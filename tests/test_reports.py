import hashlib
import json

import numpy as np
import pytest

from framedisc import Claim, InvalidParameterError, VerificationReport, revalidate
from framedisc.reports import (
    canonical_json,
    digest,
    format_float,
    report_from_dict,
    report_to_dict,
    report_to_json,
)
from framedisc.serialize import (
    matrix_from_dict,
    matrix_to_dict,
    partition_to_dict,
    signs_to_dict,
    system_from_dict,
    system_to_dict,
)
from framedisc import partition, vector_system
from framedisc.rng import make_rng


def test_claim_relations():
    assert Claim("a", computed=1.0, bound=2.0, tolerance=0.0, relation="le").passed
    assert not Claim("a", computed=3.0, bound=2.0, tolerance=0.5, relation="le").passed
    assert Claim("a", computed=3.0, bound=2.0, tolerance=0.0, relation="ge").passed
    assert Claim("a", computed=2.0, bound=2.0 + 1e-12, tolerance=1e-9, relation="abs").passed
    with pytest.raises(InvalidParameterError):
        Claim("a", computed=0.0, bound=0.0, tolerance=0.0, relation="lt")


def test_report_passed_and_revalidate():
    claims = [Claim("x", 1.0, 2.0, 0.0, "le"), Claim("y", 0.5, 0.5, 1e-9, "abs")]
    report = VerificationReport(command="t", inputs_digest=digest({"k": 1}), claims=claims)
    assert report.passed
    assert revalidate(report)
    # a tampered flag is caught
    claims[0].passed = False
    assert not revalidate(report)


def test_report_round_trip_preserves_everything():
    claims = [Claim("x", 1.5, 2.0, 1e-6, "le")]
    report = VerificationReport(command="t", inputs_digest="d" * 64, claims=claims,
                                seed=7, budget=100, extra={"note": 1}, wall_time_s=0.25)
    back = report_from_dict(report_to_dict(report))
    assert report_to_dict(back) == report_to_dict(report)
    assert revalidate(back)


def test_format_float():
    assert format_float(2.0) == "2.0"
    assert format_float(1 / 3) == "0.33333333333333331"
    with pytest.raises(InvalidParameterError):
        format_float(float("nan"))


def test_format_float_rejects_infinities():
    for x in (float("inf"), float("-inf")):
        with pytest.raises(InvalidParameterError):
            format_float(x)


def test_canonical_json_round_trips_binary64():
    rng = make_rng(60)
    values = list(rng.standard_normal(50)) + [1e-300, 1e300, 16 / 7]
    text = canonical_json({"v": values})
    parsed = json.loads(text)
    assert parsed["v"] == [float(v) for v in values]


def test_canonical_json_is_key_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [2, {"z": 3.5}]})
    b = canonical_json({"a": [2, {"z": 3.5}], "b": 1})
    assert a == b
    assert json.loads(a) == {"b": 1, "a": [2, {"z": 3.5}]}
    assert canonical_json(np.float64(0.5)) == "0.5"
    assert canonical_json(np.array([1 + 2j])) == canonical_json([[1.0, 2.0]])


def test_digest_stability():
    assert digest({"k": 5}) == digest({"k": 5})
    assert digest({"k": 5}) != digest({"k": 6})
    assert len(digest({})) == 64
    # bytes (an input file as read) are hashed as they are
    raw = b'{"k": 5}\n'
    assert digest(raw) == digest(raw) == hashlib.sha256(raw).hexdigest()
    assert digest(raw) != digest(b'{"k":5}\n')
    assert digest(canonical_json({"k": 5}).encode()) == digest({"k": 5})


def test_report_json_ends_with_newline():
    report = VerificationReport(command="t", inputs_digest=digest({}),
                                claims=[Claim("x", 0.0, 0.0, 0.0, "abs")])
    text = report_to_json(report)
    assert text.endswith("\n")
    assert json.loads(text)["passed"] is True


# ---------------------------------------------------------------------------
# wire formats


def test_matrix_round_trip():
    rng = make_rng(61)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2
    back = matrix_from_dict(json.loads(canonical_json(matrix_to_dict(h))))
    assert np.max(np.abs(back - h)) <= 1e-15
    bad = json.loads(canonical_json(matrix_to_dict(h)))
    bad["entries"] = bad["entries"][:-1]
    with pytest.raises(InvalidParameterError):
        matrix_from_dict(bad)


def test_vector_and_system_round_trip():
    rng = make_rng(62)
    vs = vector_system(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    back = system_from_dict(json.loads(canonical_json(system_to_dict(vs))))
    assert back.k == vs.k
    assert np.array_equal(back.vectors, vs.vectors)


def test_partition_wire_is_one_based():
    p = partition(3, [0, 2, 1])
    d = partition_to_dict(p)
    assert d == {"r": 3, "assignment": [1, 3, 2]}


def test_signs_round_trip():
    s = np.array([1, -1, 1], dtype=np.int64)
    assert signs_to_dict(s) == {"signs": [1, -1, 1]}
    assert json.loads(canonical_json(signs_to_dict(s)))["signs"] == s.tolist()
