import csv
import dataclasses
import hashlib
import io
import itertools
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from framedisc import (
    cli,
    counterexample,
    counterexample_vectors,
    engines,
    opnorm,
    partition,
    paving_quality,
    rank_one,
    subset_frame_bound,
    vector_system,
)
from framedisc.cli import (
    EXIT_BUDGET,
    EXIT_CLAIM_FAILURE,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)
from framedisc.reports import canonical_json, digest
from framedisc.rng import make_rng
from framedisc.serialize import matrix_to_dict, system_to_dict


def run(args):
    return main(args)


def write_system(path, vs):
    path.write_text(canonical_json(system_to_dict(vs)) + "\n")


CSV_HEADER = ["name", "computed", "bound", "tolerance", "relation", "passed"]


def strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0', text)


def test_gen_weaver_writes_instance_and_vectors(tmp_path):
    assert run(["gen-weaver", "--k", "5", "--out", str(tmp_path)]) == EXIT_PASS
    inst = json.loads((tmp_path / "weaver_instance_k5.json").read_text())
    assert inst["k"] == 5
    assert inst["N"] == pytest.approx(16 / 7)
    assert len(inst["primed"]["vectors"]) == 4
    vecs = json.loads((tmp_path / "weaver_vectors_k5.json").read_text())
    assert vecs["k"] == 5
    norms = [sum(re * re + im * im for re, im in row) for row in vecs["vectors"]]
    assert max(abs(n - 1.0) for n in norms) <= 1e-12


def test_gen_weaver_refuses_a_family_past_the_byte_cap(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["gen-weaver", "--k", "100000", "--out", str(out)]) == EXIT_BUDGET
    assert "k = 100000" in capsys.readouterr().err
    assert not out.exists()


def test_gen_weaver_usage_error():
    assert run(["gen-weaver", "--k", "4"]) == EXIT_USAGE
    assert run(["gen-weaver"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["gen-weaver", "--k", "6", "--seed", "3"],
    ["gen-weaver", "--k", "6", "--budget", "5"],
    ["gen-weaver", "--k", "6", "--format", "csv"],
    ["gen-weaver", "--k", "6", "--mode", "heuristic"],
    ["verify-weaver", "--k", "6", "--input", "sys.json"],
    ["search", "--kind", "signs", "--input", "sys.json", "--epsilon", "1"],
    ["banaszczyk-radius", "--k", "2", "--n-bound", "2"],
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_weaver_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify-weaver", "--k", "5", "--out", str(out)]) == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["passed"] is True
    names = {c["name"] for c in report["claims"]}
    assert {"primed_frame_fixes_e_k", "closed_form_subset_distance_agreement",
            "signed_norm_floor"} <= names
    assert report["extra"]["min_signed_norm_or_bound"] >= 8 / 7 - 1e-9


def test_verify_weaver_csv(tmp_path):
    out, ref = tmp_path / "report.csv", tmp_path / "report.json"
    assert run(["verify-weaver", "--k", "6", "--format", "csv",
                "--out", str(out)]) == EXIT_PASS
    assert run(["verify-weaver", "--k", "6", "--out", str(ref)]) == EXIT_PASS
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    floor = next(r for r in rows if r["name"] == "signed_norm_floor")
    extra = json.loads(ref.read_text())["extra"]
    # the floor claim carries the signed minimum and the proven floor
    assert float(floor["computed"]) == extra["min_signed_norm_or_bound"]
    assert float(floor["bound"]) == extra["lower_bound"]
    assert float(floor["computed"]) >= float(floor["bound"]) - 1e-9


def test_verify_weaver_heuristic_mode(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify-weaver", "--k", "30", "--mode", "heuristic", "--budget", "300",
                "--seed", "4", "--out", str(out)]) == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["budget"] == 300 and report["seed"] == 4


def test_verify_weaver_heuristic_above_k64(tmp_path):
    # 2^(k-1) does not fit in an int64; the subset claim takes one prefix
    # subset per count c, so it needs no bitmask
    out = tmp_path / "r.json"
    assert run(["verify-weaver", "--k", "70", "--mode", "heuristic", "--budget", "50",
                "--out", str(out)]) == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert "closed_form_subset_distance_agreement" in [c["name"] for c in report["claims"]]


def test_verify_weaver_heuristic_zero_budget_is_usage_error():
    assert run(["verify-weaver", "--k", "30", "--mode", "heuristic",
                "--budget", "0"]) == EXIT_USAGE


def test_verify_weaver_heuristic_enforces_budget(tmp_path, capsys):
    # k = 12 takes (k-1)//2 + 1 = 6 3 x 3 eigensolves, one per count of
    # minus signs up to the middle, no k x k one, and reports the exhaustive
    # minimum
    exact, heuristic = tmp_path / "exact.json", tmp_path / "heuristic.json"
    assert run(["verify-weaver", "--k", "12", "--out", str(exact)]) == EXIT_PASS
    assert run(["verify-weaver", "--k", "12", "--mode", "heuristic",
                "--budget", "5"]) == EXIT_BUDGET
    assert "6 eigensolves, over the budget 5" in capsys.readouterr().err
    assert run(["verify-weaver", "--k", "12", "--mode", "heuristic", "--budget", "6",
                "--out", str(heuristic)]) == EXIT_PASS
    report = json.loads(heuristic.read_text())
    assert report["budget"] == 6 and report["extra"]["orbit_eigensolves"] == 6
    assert report["extra"]["eigensolves"] == 0
    exact_min = json.loads(exact.read_text())["extra"]["min_signed_norm_or_bound"]
    assert report["extra"]["min_signed_norm_or_bound"] == pytest.approx(exact_min, rel=1e-12)
    assert run(["verify-weaver", "--k", "12", "--mode", "heuristic",
                "--budget", "0"]) == EXIT_USAGE


def test_exhaustive_weaver_fails_when_a_pattern_lies_below_the_orbit_minimum(
        tmp_path, monkeypatch):
    # an orbit minimum 1e-6 too high leaves every pattern that attains the
    # true minimum below the threshold: no witness certifies them, they are
    # eigensolved, and the claim that none lies below fails
    heuristic, exact = tmp_path / "heuristic.json", tmp_path / "exact.json"
    assert run(["verify-weaver", "--k", "8", "--mode", "heuristic",
                "--out", str(heuristic)]) == EXIT_PASS
    orbit = counterexample._orbit_minimum
    monkeypatch.setattr(counterexample, "_orbit_minimum",
                        lambda inst, budget: (orbit(inst, budget)[0] * (1 + 1e-6),
                                              orbit(inst, budget)[1]))
    assert run(["verify-weaver", "--k", "8", "--out", str(exact)]) == EXIT_CLAIM_FAILURE
    report = json.loads(exact.read_text())
    claim = next(c for c in report["claims"] if c["name"] == "no_pattern_below_orbit_minimum")
    assert claim["passed"] is False and claim["computed"] > 0
    # one eigensolve per uncertified pattern, all of them below the
    # threshold, and one for the attained pattern; the orbit's eigvalsh of
    # its four 3 x 3 sums counts apart
    assert report["extra"]["eigensolves"] == claim["computed"] + 1
    assert report["extra"]["orbit_eigensolves"] == 4
    assert report["extra"]["patterns_certified"] == 2**6 - claim["computed"]
    expected = json.loads(heuristic.read_text())["extra"]["min_signed_norm_or_bound"]
    assert report["extra"]["min_signed_norm_or_bound"] == pytest.approx(expected, rel=1e-12)


def test_verify_weaver_budget_refusal():
    assert run(["verify-weaver", "--k", "25"]) == EXIT_BUDGET


def test_verify_weaver_exhaustive_enforces_budget(tmp_path, capsys):
    # k = 8 walks 2^6 = 64 sign patterns
    assert run(["verify-weaver", "--k", "8", "--budget", "63"]) == EXIT_BUDGET
    assert "budget 63" in capsys.readouterr().err
    out = tmp_path / "r.json"
    assert run(["verify-weaver", "--k", "8", "--budget", "64", "--out", str(out)]) == EXIT_PASS
    assert json.loads(out.read_text())["budget"] == 64


def test_reduce_vec2proj_and_proj2vec(tmp_path):
    rng = make_rng(70)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    g /= 2 * np.linalg.norm(g, axis=1, keepdims=True)
    src = tmp_path / "sys.json"
    write_system(src, vector_system(g))
    prefix = tmp_path / "fwd"
    assert run(["reduce", "--direction", "vec2proj", "--input", str(src),
                "--n-bound", "2", "--out", str(prefix)]) == EXIT_PASS
    report = json.loads((tmp_path / "fwd.report.json").read_text())
    assert report["passed"] is True
    proj = json.loads((tmp_path / "fwd.object.json").read_text())
    assert proj["dim"] >= 4
    # feed the produced projection back through the other direction
    proj_path = tmp_path / "proj.json"
    proj_path.write_text(canonical_json(proj) + "\n")
    back = tmp_path / "back"
    assert run(["reduce", "--direction", "proj2vec", "--input", str(proj_path),
                "--n-bound", "2", "--out", str(back)]) == EXIT_PASS
    report2 = json.loads((tmp_path / "back.report.json").read_text())
    assert report2["passed"] is True
    assert report["budget"] == 20000 and report2["budget"] is None  # only vec2proj reads it


def test_reduce_csv_report_is_named_csv(tmp_path):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(np.eye(2) / 2))
    prefix = tmp_path / "fwd"
    assert run(["reduce", "--direction", "vec2proj", "--input", str(src), "--n-bound", "2",
                "--format", "csv", "--out", str(prefix)]) == EXIT_PASS
    assert not (tmp_path / "fwd.report.json").exists()
    rows = list(csv.reader(io.StringIO((tmp_path / "fwd.report.csv").read_text())))
    assert rows[0] == CSV_HEADER
    assert (tmp_path / "fwd.object.json").exists()


def test_reduce_vec2proj_budget_caps_the_completion(tmp_path, capsys):
    rng = make_rng(71)
    g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    src = tmp_path / "sys.json"
    write_system(src, vector_system(g / np.linalg.norm(g, axis=1, keepdims=True)))
    argv = ["reduce", "--direction", "vec2proj", "--input", str(src),
            "--out", str(tmp_path / "fwd")]
    assert run(argv + ["--n-bound", "4"]) == EXIT_PASS
    m = json.loads((tmp_path / "fwd.object.json").read_text())["dim"]
    assert json.loads((tmp_path / "fwd.report.json").read_text())["budget"] == 20000
    assert run(argv + ["--n-bound", "4", "--budget", str(m)]) == EXIT_PASS
    assert run(argv + ["--n-bound", "4", "--budget", str(m - 1)]) == EXIT_BUDGET
    assert f"m = {m} vectors, over the budget {m - 1}" in capsys.readouterr().err
    # the completion would hold about 3e4 vectors at 1e4, infinitely many above
    for level in ("1e4", "1e308", "1.7e308"):
        tracemalloc.start()
        try:
            assert run(argv + ["--n-bound", level]) == EXIT_BUDGET
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # refused before any piece was built
        assert "over the budget 20000" in capsys.readouterr().err


def test_reduce_vec2proj_refuses_a_projection_past_the_byte_cap(tmp_path, capsys):
    # at N = 666 the completion of 6 unit vectors in C^3 holds m = 2,000
    # vectors, within the default budget, but P would take about 960 MB
    rng = make_rng(72)
    g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    src = tmp_path / "sys.json"
    write_system(src, vector_system(g / np.linalg.norm(g, axis=1, keepdims=True)))
    tracemalloc.start()
    try:
        assert run(["reduce", "--direction", "vec2proj", "--input", str(src),
                    "--n-bound", "666", "--out", str(tmp_path / "fwd")]) == EXIT_BUDGET
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # refused before P was built
    err = capsys.readouterr().err
    m = 2000
    assert f"m = {m} completed vectors would take about {240 * m * m:,} bytes" in err
    assert "over the cap of 536,870,912 bytes" in err
    assert not (tmp_path / "fwd.object.json").exists()


def test_reduce_rejects_bad_delta(tmp_path):
    proj_path = tmp_path / "id.json"
    proj_path.write_text(canonical_json(matrix_to_dict(np.eye(2))) + "\n")
    assert run(["reduce", "--direction", "proj2vec", "--input", str(proj_path),
                "--n-bound", "2"]) == EXIT_USAGE


def test_reduce_missing_input():
    assert run(["reduce", "--direction", "proj2vec", "--input", "/nonexistent.json",
                "--n-bound", "2"]) == EXIT_USAGE


def test_search_signs_trivial(tmp_path, capsys):
    src = tmp_path / "sys.json"
    write_system(src, vector_system([[1.0, 0.0], [1.0, 0.0]]))
    assert run(["search", "--kind", "signs", "--input", str(src)]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["claims"][0]["computed"] == pytest.approx(0.0, abs=1e-12)
    assert report["extra"]["exact"] is True
    assert sorted(report["extra"]["witness"]["signs"]) == [-1, 1]


@pytest.mark.parametrize("n, k", [(9, 3), (6, 10)])  # the n > k and Gram (n < k) paths
def test_search_signs_claim_rechecks_the_witness(tmp_path, capsys, monkeypatch, n, k):
    rng = make_rng(85)
    vs = vector_system(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
    src = tmp_path / "sys.json"
    write_system(src, vs)
    assert run(["search", "--kind", "signs", "--input", str(src)]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    claim = report["claims"][0]
    signs = np.array(report["extra"]["witness"]["signs"])
    explicit = opnorm(sum(s * rank_one(v) for s, v in zip(signs, vs.vectors)))
    assert claim["name"] == "min_signed_opnorm" and claim["relation"] == "abs"
    assert claim["bound"] == pytest.approx(explicit, rel=1e-13)
    assert 0 < claim["tolerance"] < 1e-9 * float(np.sum(vs.norms_squared()))
    assert abs(claim["computed"] - claim["bound"]) <= claim["tolerance"]
    # a walk value that is off by more than rounding fails the claim
    walk = engines.exhaustive_sign_search
    monkeypatch.setattr(engines, "exhaustive_sign_search",
                        lambda vs, cap: dataclasses.replace(
                            walk(vs, cap), value=walk(vs, cap).value * (1 + 1e-8)))
    assert run(["search", "--kind", "signs", "--input", str(src)]) == EXIT_CLAIM_FAILURE


def test_sign_searches_report_their_eigensolves(tmp_path):
    rng = make_rng(86)  # 14 vectors in C^6: the walk takes 18 blocks
    vs = vector_system(rng.standard_normal((14, 6)) + 1j * rng.standard_normal((14, 6)))
    src, out = tmp_path / "sys.json", tmp_path / "signs.json"
    write_system(src, vs)
    assert run(["search", "--kind", "signs", "--input", str(src), "--out", str(out)]) == EXIT_PASS
    # the certified walk eigensolves fewer than all 2^13 patterns
    assert 0 < json.loads(out.read_text())["extra"]["eigensolves"] < 2**13
    exact, heuristic = tmp_path / "exact.json", tmp_path / "heuristic.json"
    assert run(["verify-weaver", "--k", "12", "--out", str(exact)]) == EXIT_PASS
    # every pattern passes its witness, so the one k x k sum eigensolved is
    # the attained pattern's
    assert json.loads(exact.read_text())["extra"]["eigensolves"] == 1
    # heuristic mode eigensolves one 3 x 3 sum per count of minus signs up
    # to the middle, and no k x k sum
    for k in (12, 23):
        assert run(["verify-weaver", "--k", str(k), "--mode", "heuristic", "--budget", "50",
                    "--out", str(heuristic)]) == EXIT_PASS
        extra = json.loads(heuristic.read_text())["extra"]
        assert extra["orbit_eigensolves"] == (k - 1) // 2 + 1 and extra["eigensolves"] == 0


def test_search_signs_budget_refusal(tmp_path):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(np.ones((30, 1))))
    assert run(["search", "--kind", "signs", "--input", str(src)]) == EXIT_BUDGET


def test_search_signs_enforces_budget(tmp_path, capsys):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(make_rng(3).standard_normal((5, 3))))
    assert run(["search", "--kind", "signs", "--input", str(src), "--budget", "15"]) == EXIT_BUDGET
    assert "budget 15" in capsys.readouterr().err
    assert run(["search", "--kind", "signs", "--input", str(src), "--budget", "16"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["budget"] == 16


def test_search_signs_refusal_names_the_flag_that_refused(tmp_path, capsys):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(make_rng(3).standard_normal((5, 3))))  # 16 patterns
    argv = ["search", "--kind", "signs", "--input", str(src)]
    assert run(argv + ["--limit", "15", "--budget", "100"]) == EXIT_BUDGET
    assert "over --limit 15" in capsys.readouterr().err
    assert run(argv + ["--limit", "100", "--budget", "15"]) == EXIT_BUDGET
    assert "over --budget 15" in capsys.readouterr().err
    assert run(argv + ["--limit", "16", "--budget", "16"]) == EXIT_PASS


@pytest.mark.parametrize("kind", ["signs", "partition", "pave", "matroid", "banaszczyk"])
@pytest.mark.parametrize("limit", ["0", "-5"])
def test_search_limit_below_one_is_usage_error(tmp_path, capsys, kind, limit):
    src = tmp_path / "in.json"
    if kind == "pave":
        src.write_text(canonical_json(matrix_to_dict(1.0 - np.eye(4))) + "\n")
    else:
        write_system(src, vector_system(np.vstack([np.eye(2), np.eye(2)])))
    assert run(["search", "--kind", kind, "--input", str(src), "--limit", limit]) == EXIT_USAGE
    assert "limit >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--limit", "--budget"])
@pytest.mark.parametrize("value", ["x", "1.5"])
def test_search_non_integer_count_is_usage_error_naming_the_flag(tmp_path, capsys, flag,
                                                                 value):
    src = tmp_path / "in.json"
    write_system(src, vector_system(np.vstack([np.eye(2), np.eye(2)])))
    assert run(["search", "--kind", "signs", "--input", str(src), flag, value]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {flag}: needs an integer {flag}, got '{value}'" in err
    assert "invalid" not in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("text", ['{"k": 1, "vectors": [[[1.0, 0.0]]], "note": %s}',
                                  '{"k": 1, "vectors": [[[%s, 0.0]]]}'],
                         ids=["unused-key", "vectors"])
def test_non_json_literals_are_usage_errors_naming_the_literal(tmp_path, capsys, literal,
                                                               text):
    src = tmp_path / "sys.json"
    src.write_text(text % literal)
    assert run(["search", "--kind", "signs", "--input", str(src)]) == EXIT_USAGE
    assert f"input holds {literal}, which is not a JSON number" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [{"k": 2, "vectors": [[1, 0], [0, 1]]},
                                     {"k": 2, "vectors": [[["x", 0], [1, 0]]]},
                                     {"k": 2, "vectors": 3}])
def test_malformed_wire_entries_are_usage_errors(tmp_path, capsys, payload):
    src = tmp_path / "sys.json"
    src.write_text(json.dumps(payload))
    assert run(["search", "--kind", "signs", "--input", str(src)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "[re, im]" in err or "list of vectors" in err


@pytest.mark.parametrize("argv, text", [
    (["search", "--kind", "signs"], '{"k": 1, "vectors": [[[1%s, 0]]]}'),
    (["net-check", "--epsilon", "0.1", "--n-bound", "2"], '{"k": 1, "vectors": [[[0, 1%s]]]}'),
    (["reduce", "--direction", "proj2vec", "--n-bound", "2"], '{"dim": 1, "entries": [[1%s, 0]]}'),
], ids=["search", "net-check", "reduce-proj2vec"])
def test_integer_entries_past_the_float_range_are_usage_errors(tmp_path, capsys, argv, text):
    # json parses an integer literal exactly, and 10^400 has no float
    src = tmp_path / "in.json"
    src.write_text(text % ("0" * 400))
    assert run(argv + ["--input", str(src), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "integer too large for a float" in capsys.readouterr().err


@pytest.mark.parametrize("vectors, row, length", [
    ([[[1, 0], [0, 0]], [[0, 0]]], 1, 1),
    ([[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[1, 0]]], 1, 3),
    ([[[1, 0]], [[0, 1]]], 0, 1),
    ([[[1, 0], [0, 0], [0, 1]]], 0, 3),
], ids=["ragged-short", "ragged-long", "all-short", "all-long"])
def test_vectors_of_the_wrong_length_are_named(tmp_path, capsys, vectors, row, length):
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"k": 2, "vectors": vectors}))
    assert run(["search", "--kind", "signs", "--input", str(src)]) == EXIT_USAGE
    assert f"declared k = 2 but vector {row} has length {length}" in capsys.readouterr().err


@pytest.mark.parametrize("kind, text", [
    ("pave", '{"dim": 1e400, "entries": []}'),
    ("pave", '{"dim": true, "entries": [[1, 0]]}'),
    ("signs", '{"k": 1e400, "vectors": [[[1, 0]]]}'),
    ("signs", '{"k": [2], "vectors": [[[1, 0], [0, 0]]]}'),
    ("signs", '{"k": "2", "vectors": [[[1, 0], [0, 0]]]}'),
    ("signs", '{"k": 2.7, "vectors": [[[1, 0], [0, 0]]]}'),
], ids=["dim-overflow", "dim-bool", "k-overflow", "k-list", "k-string", "k-fraction"])
def test_non_integer_sizes_are_usage_errors(tmp_path, capsys, kind, text):
    # 1e400 parses to inf; a size must be an int or a float with an integer value
    src = tmp_path / "in.json"
    src.write_text(text)
    assert run(["search", "--kind", kind, "--input", str(src)]) == EXIT_USAGE
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("kind, text, key", [
    ("pave", '{"dim": -1, "entries": [[1, 0]]}', "dim"),
    ("pave", '{"dim": -2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}', "dim"),
    ("signs", '{"k": -1, "vectors": [[[1, 0]]]}', "k"),
], ids=["dim-minus-one", "dim-minus-two", "k-minus-one"])
def test_negative_sizes_are_usage_errors(tmp_path, capsys, kind, text, key):
    # dim = -2 with 4 entries passes a dim * dim size check
    src = tmp_path / "in.json"
    src.write_text(text)
    assert run(["search", "--kind", kind, "--input", str(src)]) == EXIT_USAGE
    assert f"{key!r} must be >= 0" in capsys.readouterr().err


def test_a_size_past_the_largest_array_dimension_is_named(tmp_path, capsys):
    # 1e22 is an integer-valued float, but past 2^63 - 1 no array can have it
    src = tmp_path / "in.json"
    src.write_text('{"k": 1e22, "vectors": []}')
    assert run(["search", "--kind", "signs", "--input", str(src)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'k' must be at most 9223372036854775807, the largest array dimension" in err


def test_integer_valued_float_size_is_accepted(tmp_path):
    src = tmp_path / "in.json"
    src.write_text('{"k": 2.0, "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}')
    assert run(["search", "--kind", "signs", "--input", str(src)]) == EXIT_PASS


def test_deeply_nested_input_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text("[" * 200_000 + "]" * 200_000)
    assert run(["search", "--kind", "signs", "--input", str(src)]) == EXIT_USAGE
    assert "nests its arrays or objects too deeply" in capsys.readouterr().err


def test_malformed_matrix_entries_are_usage_errors(tmp_path, capsys):
    src = tmp_path / "a.json"
    src.write_text(json.dumps({"dim": 1, "entries": [["x", 0]]}))
    assert run(["search", "--kind", "pave", "--input", str(src)]) == EXIT_USAGE
    assert "[re, im]" in capsys.readouterr().err


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def broken(k):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr("framedisc.counterexample.counterexample_vectors", broken)
    assert run(["verify-weaver", "--k", "5"]) == EXIT_INTERNAL
    assert "internal error: ZeroDivisionError: boom" in capsys.readouterr().err


def test_search_partition_exact_and_budgeted(tmp_path, capsys):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(np.vstack([np.eye(2), np.eye(2)])))
    argv = ["search", "--kind", "partition", "--input", str(src), "--r", "2", "--n-bound", "2"]
    assert run(argv) == EXIT_PASS
    exact = json.loads(capsys.readouterr().out)["extra"]
    assert exact["exact"] is True
    assert exact["slack"] == pytest.approx(1.0)
    # ||S|| / 2 = 1: the floor meets the optimum
    assert 1.0 - 1e-13 <= exact["lower_bound"] <= 1.0
    # the walk scores 11 nodes; its first leaf, [1, 1, 2, 2], needs 1 + 3 * 2
    assert exact["nodes_visited"] == 11
    assert run(argv + ["--budget", "10"]) == EXIT_PASS
    budgeted = json.loads(capsys.readouterr().out)["extra"]
    assert budgeted["exact"] is False
    assert budgeted["witness"] == exact["witness"]
    assert budgeted["lower_bound"] == exact["lower_bound"]
    assert run(argv + ["--budget", "6"]) == EXIT_BUDGET
    assert "no leaf within budget = 6" in capsys.readouterr().err


def test_search_partition_budget_caps_the_walk(tmp_path, capsys):
    g = make_rng(80).standard_normal((9, 3)) + 1j * make_rng(81).standard_normal((9, 3))
    g /= 2 * np.linalg.norm(g, axis=1, keepdims=True)
    vs = vector_system(g)
    src = tmp_path / "sys.json"
    write_system(src, vs)
    # r = 3 and n = 9: the first leaf needs 1 + 2 + 7 * 3 = 24 nodes
    argv = ["search", "--kind", "partition", "--input", str(src), "--r", "3",
            "--n-bound", "2", "--budget", "30"]
    assert run(argv + ["--seed", "5"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    extra = report["extra"]
    assert extra["exact"] is False
    assert extra["nodes_visited"] == 30
    out = engines.exhaustive_partition_search(vs, 3, 30)
    assert extra["witness"]["assignment"] == [j + 1 for j in out.witness.assignment]
    value = report["claims"][0]["computed"]
    assert value == max(subset_frame_bound(vs, p) for p in out.witness.parts())
    assert extra["lower_bound"] == engines.partition_floor(vs, 3) <= value
    # the seed plays no part in the walk
    assert run(argv + ["--seed", "6"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["extra"] == extra
    assert run(argv[:-1] + ["23"]) == EXIT_BUDGET


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_search_partition_budget_below_one_is_usage_error(tmp_path, capsys, budget):
    g = make_rng(82).standard_normal((8, 2)) + 1j * make_rng(83).standard_normal((8, 2))
    g /= 2 * np.linalg.norm(g, axis=1, keepdims=True)
    src = tmp_path / "sys.json"
    write_system(src, vector_system(g))
    assert run(["search", "--kind", "partition", "--input", str(src), "--r", "2",
                "--n-bound", "2", "--budget", budget]) == EXIT_USAGE
    assert "budget >= 1" in capsys.readouterr().err


def test_search_pave_enforces_budget(tmp_path, capsys):
    src = tmp_path / "mat.json"
    a = np.ones((4, 4)) - np.eye(4)
    src.write_text(canonical_json(matrix_to_dict(a)) + "\n")
    argv = ["search", "--kind", "pave", "--input", str(src)]
    # ||A[S, S]|| = |S| - 1 for |S| >= 2 ties so often that the walk scores
    # 13 nodes: its first leaf [1, 2, 1, 2] after 1 + 3 * 2, then [1, 2, 2, 1]
    # and [1, 1, 2, 2], which ties the incumbent and comes first
    assert run(argv + ["--budget", "13"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["budget"] == 13
    assert report["extra"]["nodes_visited"] == 13
    assert report["extra"]["exact"] is True
    assert report["extra"]["witness"]["assignment"] == [1, 1, 2, 2]
    # J - I has eigenvalues 3 and -1, so the pinching floor is (3 - 1) / 2,
    # the optimum
    assert 1.0 - 1e-13 <= report["extra"]["lower_bound"] <= 1.0
    assert run(argv + ["--budget", "12"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["extra"]["exact"] is False
    assert report["extra"]["witness"]["assignment"] == [1, 2, 1, 2]
    assert report["claims"][0]["computed"] == pytest.approx(1.0)
    assert run(argv + ["--budget", "6"]) == EXIT_BUDGET
    assert "no leaf within budget = 6" in capsys.readouterr().err


def _node_count_input(tmp_path, kind):
    rng = make_rng(84)
    src = tmp_path / f"{kind}.json"
    if kind == "partition":
        g = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
        write_system(src, vector_system(g / (2 * np.linalg.norm(g, axis=1, keepdims=True))))
    else:
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        a = (g + g.conj().T) / 2.0
        np.fill_diagonal(a, 0.0)
        src.write_text(canonical_json(matrix_to_dict(a)) + "\n")
    return src


def test_search_partition_node_budget_boundary(tmp_path, capsys):
    src = _node_count_input(tmp_path, "partition")
    argv = ["search", "--kind", "partition", "--input", str(src), "--r", "3",
            "--n-bound", "2", "--seed", "3"]
    assert run(argv) == EXIT_PASS
    exact = json.loads(capsys.readouterr().out)
    nodes = exact["extra"]["nodes_visited"]
    assert exact["extra"]["exact"] is True
    # the whole restricted-growth tree of r = 3, n = 9 has 4925 nodes
    assert exact["extra"]["parts_scored"] <= nodes < 4925
    assert run(argv + ["--budget", str(nodes)]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["extra"] == exact["extra"]
    # one node short: the walk's incumbent, no longer certified optimal
    assert run(argv + ["--budget", str(nodes - 1)]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["extra"]["exact"] is False
    assert report["extra"]["nodes_visited"] == nodes - 1
    value = report["claims"][0]["computed"]
    assert report["extra"]["lower_bound"] == exact["extra"]["lower_bound"] <= value
    assert value >= exact["claims"][0]["computed"]
    # r = 1 has one partition and n = 9 nodes
    one = ["search", "--kind", "partition", "--input", str(src), "--r", "1", "--n-bound", "9"]
    assert run(one + ["--budget", "9"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["extra"]["nodes_visited"] == 9
    assert run(one + ["--budget", "8"]) == EXIT_BUDGET


def test_search_pave_node_budget_boundary(tmp_path, capsys):
    src = _node_count_input(tmp_path, "pave")
    argv = ["search", "--kind", "pave", "--input", str(src), "--r", "3"]
    assert run(argv) == EXIT_PASS
    exact = json.loads(capsys.readouterr().out)
    nodes = exact["extra"]["nodes_visited"]
    assert nodes < 4925
    assert run(argv + ["--budget", str(nodes)]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["extra"] == exact["extra"]
    assert run(argv + ["--budget", str(nodes - 1)]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["extra"]["exact"] is False
    assert report["extra"]["lower_bound"] <= report["claims"][0]["computed"]
    # the first leaf needs 1 + 2 + 7 * 3 = 24 nodes
    assert run(argv + ["--budget", "24"]) == EXIT_PASS
    capsys.readouterr()
    assert run(argv + ["--budget", "23"]) == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


def test_search_pave_budget_below_one_is_usage_error(tmp_path, capsys):
    src = tmp_path / "mat.json"
    src.write_text(canonical_json(matrix_to_dict(np.array([[0.0, 1.0], [1.0, 0.0]]))) + "\n")
    assert run(["search", "--kind", "pave", "--input", str(src), "--budget", "0"]) == EXIT_USAGE
    assert "budget >= 1" in capsys.readouterr().err


def test_search_pave_trivial(tmp_path, capsys):
    src = tmp_path / "mat.json"
    src.write_text(canonical_json(matrix_to_dict(
        np.array([[0.0, 1.0], [1.0, 0.0]]))) + "\n")
    assert run(["search", "--kind", "pave", "--input", str(src), "--r", "2"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["claims"][0]["computed"] == pytest.approx(0.0, abs=1e-12)


def test_search_pave_matches_brute_force(tmp_path, capsys):
    rng = make_rng(74)
    g = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    a = (g + g.conj().T) / 2.0
    np.fill_diagonal(a, 0.0)
    src = tmp_path / "mat.json"
    src.write_text(canonical_json(matrix_to_dict(a)) + "\n")
    for r in (2, 3):
        assert run(["search", "--kind", "pave", "--input", str(src),
                    "--r", str(r)]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        best_val, best = np.inf, None
        for assign in itertools.product(range(r), repeat=7):
            val = paving_quality(a, partition(r, assign))
            if val < best_val:
                best_val, best = val, assign
        assert report["claims"][0]["computed"] == pytest.approx(best_val, rel=1e-12)
        assert report["extra"]["witness"]["assignment"] == [j + 1 for j in best]


def test_search_pave_rejects_vector_system_input(tmp_path, capsys):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(np.eye(2)))
    assert run(["search", "--kind", "pave", "--input", str(src)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'dim'" in err and "'entries'" in err and "'k'" in err


def test_search_matroid_feasible_and_deficient(tmp_path, capsys):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(np.vstack([np.eye(2), np.eye(2)])))
    assert run(["search", "--kind", "matroid", "--input", str(src), "--r", "2"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["extra"]["feasible"] is True
    bad = tmp_path / "bad.json"
    write_system(bad, vector_system([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert run(["search", "--kind", "matroid", "--input", str(bad), "--r", "2"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["extra"]["feasible"] is False
    assert report["claims"][0]["computed"] >= 1.0


def test_search_banaszczyk(tmp_path, capsys):
    rng = make_rng(71)
    # the radius takes 20,000 samples whatever the budget
    ctx = engines.gaussian_median_radius(2, samples=20000, seed=0)
    for n in (6, 25):
        g = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        src = tmp_path / "sys.json"
        write_system(src, vector_system(g))
        assert run(["search", "--kind", "banaszczyk", "--input", str(src),
                    "--budget", "2000", "--seed", "0"]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["claims"][0]["computed"] <= report["extra"]["M"] + 1e-9
        assert report["extra"]["R_hat"] > 0
        mats = [rank_one(v) / 5.0 for v in vector_system(g).vectors]
        out = engines.banaszczyk_sign_search(mats, M=ctx.M, budget=2000, seed=0)
        assert report["extra"]["M"] == ctx.M
        assert report["extra"]["witness"]["signs"] == out.witness.tolist()


@pytest.mark.parametrize("kind, exact", [("signs", True), ("partition", True), ("pave", True),
                                         ("matroid", True), ("banaszczyk", False)])
def test_search_reports_exact_and_the_engine_counters(tmp_path, kind, exact):
    # each kind's report carries its Outcome's exact flag and counters, as a
    # direct engine call on the same input gives them; the Banaszczyk report
    # adds the radius's eigensolves to the search's
    rng = make_rng(88)
    src, out = tmp_path / "in.json", tmp_path / "report.json"
    if kind == "pave":
        g = rng.standard_normal((7, 7))
        a = (g + g.T) / 2
        np.fill_diagonal(a, 0.0)
        src.write_text(canonical_json(matrix_to_dict(a)) + "\n")
    else:
        g = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
        vs = vector_system(g / (2 * np.linalg.norm(g, axis=1, keepdims=True)))
        write_system(src, vs)
    assert run(["search", "--kind", kind, "--input", str(src), "--r", "2",
                "--out", str(out)]) == EXIT_PASS
    extra = json.loads(out.read_text())["extra"]
    budget = 20000  # the CLI's default
    if kind == "signs":
        outcome = engines.exhaustive_sign_search(vs, budget)
    elif kind == "partition":
        outcome = engines.exhaustive_partition_search(vs, 2, budget)
    elif kind == "pave":
        outcome = engines._paving_search(a, 2, budget)
    elif kind == "matroid":
        outcome = engines.matroid_spanning_partition(vs, 2, budget)
    else:
        ctx = engines.gaussian_median_radius(3, samples=20000, seed=0)
        outcome = engines.banaszczyk_sign_search([rank_one(v) / 5.0 for v in vs.vectors],
                                                 M=ctx.M, budget=budget, seed=0)
    counters = dict(outcome.counters)
    if kind == "banaszczyk":
        counters["eigensolves"] += ctx.eigensolves
    assert extra["exact"] is outcome.exact is exact
    assert counters and {key: extra[key] for key in counters} == counters
    assert all(value >= 1 for value in counters.values())


@pytest.mark.parametrize("scale, norm, message", [
    (1e100, 1.0, "error: the Banaszczyk sign search needs sum_i ||B_i||_F^2 zero or in "
                 "[0, 4.49e+307]; these entries, of largest entry modulus 2e+199, give inf: "
                 "rescale them"),
    (1.0, 2.0, "error: Hilbert-Schmidt norm 0.8 is not at most 1/5; scale inputs first"),
], ids=["x1e100", "norm-2"])
def test_search_banaszczyk_refuses_before_drawing_the_radius(tmp_path, capsys, monkeypatch,
                                                             scale, norm, message):
    def no_radius(*args, **kwargs):
        raise AssertionError("the radius was drawn for an input the search refuses")

    monkeypatch.setattr(engines, "gaussian_median_radius", no_radius)
    v = np.eye(3)[[0, 1, 2, 0, 1]] * scale
    v[-1] *= norm
    src = tmp_path / "sys.json"
    write_system(src, vector_system(v))
    assert run(["search", "--kind", "banaszczyk", "--input", str(src)]) == EXIT_USAGE
    assert capsys.readouterr().err == message + "\n"


def test_search_banaszczyk_zero_budget_is_usage_error(tmp_path):
    rng = make_rng(75)
    g = rng.standard_normal((21, 2)) + 1j * rng.standard_normal((21, 2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    src = tmp_path / "sys.json"
    write_system(src, vector_system(g))
    assert run(["search", "--kind", "banaszczyk", "--input", str(src),
                "--budget", "0"]) == EXIT_USAGE


def test_search_banaszczyk_exhaustive_branch_zero_budget_is_usage_error(tmp_path):
    g = make_rng(76).standard_normal((6, 2)) + 1j * make_rng(77).standard_normal((6, 2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    src = tmp_path / "sys.json"
    write_system(src, vector_system(g))
    assert run(["search", "--kind", "banaszczyk", "--input", str(src),
                "--budget", "0"]) == EXIT_USAGE


def test_net_check_k2(tmp_path, capsys):
    rng = make_rng(72)
    g = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    src = tmp_path / "sys.json"
    write_system(src, vector_system(g))
    assert run(["net-check", "--input", str(src), "--epsilon", "0.1",
                "--n-bound", "5"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["extra"]["mesh"] == pytest.approx(0.1 / 20)
    assert report["extra"]["net_max"] <= report["extra"]["eigenvalue_oracle"] + 1e-9
    assert report["extra"]["eigenvalue_oracle"] <= report["extra"]["certified_sup_bound"] + 1e-9
    assert report["extra"]["certified_net"] is True


def test_net_check_subset_flag(tmp_path, capsys):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(np.vstack([np.eye(2), np.eye(2)])))
    assert run(["net-check", "--input", str(src), "--epsilon", "0.1", "--n-bound", "2",
                "--subset", "1,3"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["extra"]["eigenvalue_oracle"] == pytest.approx(2.0, abs=1e-12)


def test_net_check_refusals(tmp_path):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(np.eye(2)))
    assert run(["net-check", "--input", str(src), "--epsilon", "-1",
                "--n-bound", "2"]) == EXIT_USAGE
    g = make_rng(73).standard_normal((8, 4)) + 1j * make_rng(74).standard_normal((8, 4))
    src4 = tmp_path / "sys4.json"
    write_system(src4, vector_system(g / np.linalg.norm(g, axis=1, keepdims=True)))
    assert run(["net-check", "--input", str(src4), "--epsilon", "0.1", "--n-bound", "2",
                "--budget", "1000"]) == EXIT_BUDGET


@pytest.mark.parametrize("n_bound", ["0", "-2"])
def test_net_check_rejects_a_level_that_is_not_positive(tmp_path, capsys, n_bound):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(np.eye(2)))
    assert run(["net-check", "--input", str(src), "--epsilon", "0.1",
                "--n-bound", n_bound]) == EXIT_USAGE
    assert "the level N must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--epsilon", "--n-bound"])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_net_check_rejects_values_that_are_not_finite_and_positive(tmp_path, capsys, flag,
                                                                    value):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(np.eye(2)))
    args = {"--epsilon": "0.1", "--n-bound": "2", flag: value}
    assert run(["net-check", "--input", str(src), "--epsilon", args["--epsilon"],
                "--n-bound", args["--n-bound"]]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert flag in err and "must be positive and finite" in err


@pytest.mark.parametrize("command", [["search", "--kind", "partition"],
                                     ["reduce", "--direction", "vec2proj"]])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_search_and_reduce_reject_a_level_that_is_not_finite_and_positive(
        tmp_path, capsys, command, value):
    src = tmp_path / "sys.json"
    g = make_rng(4).standard_normal((6, 2))
    write_system(src, vector_system(g / (2.0 * np.linalg.norm(g, axis=1, keepdims=True))))
    out = tmp_path / "out"
    assert run(command + ["--input", str(src), "--n-bound", value,
                          "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--n-bound" in err
    assert "must be positive and finite" in err and "Warning" not in err
    assert list(tmp_path.iterdir()) == [src]  # refused before any output


def test_net_check_rejects_a_repeated_subset_index(tmp_path, capsys):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(np.array([[0.6, 0.0], [0.0, 0.8]])))
    argv = ["net-check", "--input", str(src), "--epsilon", "0.1", "--n-bound", "2"]
    assert run(argv + ["--subset", "1"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["extra"]["eigenvalue_oracle"] == \
        pytest.approx(0.36, abs=1e-15)
    for subset in ("1,1", "2,1,2", "1,1,1"):
        assert run(argv + ["--subset", subset]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"--subset repeats index {subset[0]}" in err, subset


@pytest.mark.parametrize("subset, index", [("0", 0), ("5", 5), ("1,2", 2), ("-1", -1)])
def test_net_check_names_an_index_out_of_range_in_one_based_terms(tmp_path, capsys, subset,
                                                                  index):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(np.array([[0.6, 0.0]])))
    assert run(["net-check", "--input", str(src), "--epsilon", "0.1", "--n-bound", "2",
                "--subset", subset]) == EXIT_USAGE
    assert f"--subset index {index} is out of range 1..1" in capsys.readouterr().err


def test_net_check_certifies_k3_with_the_default_budget(tmp_path, capsys):
    g = make_rng(75).standard_normal((9, 3)) + 1j * make_rng(76).standard_normal((9, 3))
    src = tmp_path / "sys.json"
    write_system(src, vector_system(g / np.linalg.norm(g, axis=1, keepdims=True)))
    args = ["net-check", "--input", str(src), "--epsilon", "0.1", "--n-bound", "1"]
    assert run(args) == EXIT_PASS
    extra = json.loads(capsys.readouterr().out)["extra"]
    assert extra["certified_net"] is True
    assert 1 <= extra["net_points"] <= 20000
    assert extra["certified_sup_bound"] == extra["net_max"] + 2 * 1.0 * (0.1 / 4)
    assert run(args + ["--heuristic-net"]) == EXIT_USAGE
    eye = tmp_path / "eye.json"
    write_system(eye, vector_system(np.eye(5)))
    assert run(["net-check", "--input", str(eye), "--epsilon", "0.1", "--n-bound", "2"]) \
        == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["extra"]["net_points"] == 1


def test_banaszczyk_radius_command(tmp_path):
    out = tmp_path / "r.json"
    assert run(["banaszczyk-radius", "--k", "1", "--samples", "100000",
                "--out", str(out)]) == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["extra"]["R_hat"] == pytest.approx(0.67449, abs=0.02)
    assert report["extra"]["M"] == pytest.approx(5 * report["extra"]["R_hat"])
    assert 0 < report["extra"]["eigensolves"] < 100000  # the pilot and the candidates only


def test_banaszczyk_radius_counts_its_eigensolves(tmp_path):
    out = tmp_path / "r.json"
    argv = ["banaszczyk-radius", "--k", "3", "--samples", "20000", "--out", str(out)]
    assert run(argv) == EXIT_PASS
    solves = json.loads(out.read_text())["extra"]["eigensolves"]
    assert 0 < solves < 20000 // 4  # the pilot and the candidates only
    assert run(argv) == EXIT_PASS
    assert json.loads(out.read_text())["extra"]["eigensolves"] == solves


@pytest.mark.parametrize("k", ["0", "-2"])
def test_banaszczyk_radius_rejects_k_below_one(capsys, k):
    assert run(["banaszczyk-radius", "--k", k, "--samples", "1000"]) == EXIT_USAGE
    assert "need k >= 1" in capsys.readouterr().err


def test_reports_byte_identical_modulo_wall_time(tmp_path):
    rng = make_rng(73)
    g = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    src = tmp_path / "sys.json"
    write_system(src, vector_system(g))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(["search", "--kind", "banaszczyk", "--input", str(src),
                    "--seed", "11", "--budget", "2000", "--out", str(out)]) == EXIT_PASS
        outs.append(out.read_text())
    assert strip_wall_time(outs[0]) == strip_wall_time(outs[1])


def test_unknown_subcommand_is_usage():
    assert run(["frobnicate"]) == EXIT_USAGE


def _partition_argv(tmp_path):
    g = make_rng(79).standard_normal((8, 2)) + 1j * make_rng(80).standard_normal((8, 2))
    g /= 2 * np.linalg.norm(g, axis=1, keepdims=True)
    src = tmp_path / "sys.json"
    write_system(src, vector_system(g))
    return ["search", "--kind", "partition", "--input", str(src), "--r", "2", "--n-bound", "2"]


def test_repeated_main_calls_in_one_process_write_the_same_bytes(tmp_path, capsys):
    argv = _partition_argv(tmp_path)
    outs = []
    for interlude in ([], ["search", "--kind", "nope"], ["--help"], ["search", "--help"]):
        if interlude:
            assert run(interlude) == (EXIT_PASS if "--help" in interlude else EXIT_USAGE)
            capsys.readouterr()
        assert run(argv) == EXIT_PASS
        outs.append(strip_wall_time(capsys.readouterr().out))
    assert run(argv) == EXIT_PASS  # two identical consecutive calls
    outs.append(strip_wall_time(capsys.readouterr().out))
    assert '"exact": true' in outs[0]
    assert all(out == outs[0] for out in outs)


def test_main_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch):
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    argv = _partition_argv(tmp_path)
    codes = [run(a) for a in (argv, ["frobnicate"], ["--help"], argv, argv,
                              ["banaszczyk-radius", "--k", "1", "--samples", "1000"])]
    assert codes == [EXIT_PASS, EXIT_USAGE, EXIT_PASS, EXIT_PASS, EXIT_PASS, EXIT_PASS]
    assert len(builds) == 1


def test_main_calls_the_command_bound_in_cli_at_call_time(tmp_path, capsys, monkeypatch):
    argv = _partition_argv(tmp_path)
    assert run(argv) == EXIT_PASS  # the parser is built before the rebinding
    expected = strip_wall_time(capsys.readouterr().out)
    seen = []

    def traced_search(args):
        seen.append(args.kind)
        return original(args)

    original = cli.cmd_search
    monkeypatch.setattr(cli, "cmd_search", traced_search)
    assert run(argv) == EXIT_PASS
    assert seen == ["partition"]
    assert strip_wall_time(capsys.readouterr().out) == expected


def report_commands(tmp_path):
    """One argv per report-writing command (reduce's --out is a prefix)."""
    rng = make_rng(78)
    g = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    unit = tmp_path / "unit.json"
    write_system(unit, vector_system(g))
    half = tmp_path / "half.json"
    write_system(half, vector_system(g / 2))
    mat = tmp_path / "mat.json"
    mat.write_text(canonical_json(matrix_to_dict(1.0 - np.eye(4))) + "\n")
    proj = tmp_path / "proj.json"
    # the projection onto span{e_1 + e_2, e_3 + e_4}: diagonal 1/2 = 1/N
    proj.write_text(canonical_json(matrix_to_dict(np.kron(np.eye(2), np.full((2, 2), 0.5))))
                    + "\n")
    search = ["search", "--budget", "2000"]
    return {
        "verify-weaver": ["verify-weaver", "--k", "6"],
        "reduce-vec2proj": ["reduce", "--direction", "vec2proj", "--input", str(half),
                            "--n-bound", "2"],
        "reduce-proj2vec": ["reduce", "--direction", "proj2vec", "--input", str(proj),
                            "--n-bound", "2"],
        "search-signs": search + ["--kind", "signs", "--input", str(unit)],
        "search-partition": search + ["--kind", "partition", "--input", str(half)],
        "search-pave": search + ["--kind", "pave", "--input", str(mat)],
        "search-matroid": search + ["--kind", "matroid", "--input", str(unit)],
        "search-banaszczyk": search + ["--kind", "banaszczyk", "--input", str(unit)],
        "net-check": ["net-check", "--input", str(unit), "--epsilon", "0.5",
                      "--n-bound", "5"],
        "banaszczyk-radius": ["banaszczyk-radius", "--k", "2", "--samples", "1000"],
    }


def test_every_report_command_writes_its_claims_as_the_one_csv_table(tmp_path):
    for name, argv in report_commands(tmp_path).items():
        stem = tmp_path / name
        paths = {}
        for fmt in ("json", "csv"):
            out = f"{stem}.{fmt}"
            assert run(argv + ["--format", fmt, "--out", out]) in (EXIT_PASS, EXIT_CLAIM_FAILURE)
            paths[fmt] = f"{out}.report.{fmt}" if argv[0] == "reduce" else out
        claims = json.loads(Path(paths["json"]).read_text())["claims"]
        rows = list(csv.reader(io.StringIO(Path(paths["csv"]).read_text())))
        assert rows[0] == CSV_HEADER, name
        assert len(rows) == 1 + len(claims) >= 2, name
        for row, c in zip(rows[1:], claims):
            assert row[0] == c["name"] and row[4] == c["relation"], name
            assert [float(x) for x in row[1:4]] == [c["computed"], c["bound"], c["tolerance"]]
            assert row[5] == str(c["passed"]), name


def test_inputs_digest_is_the_sha256_of_the_input_file(tmp_path):
    """A command that reads --input digests the bytes it read, as sha256sum
    does; a command that reads only parameters digests their canonical JSON."""
    params = {"verify-weaver": {"k": 6, "mode": "exhaustive"},
              "banaszczyk-radius": {"k": 2, "samples": 1000}}
    for name, argv in report_commands(tmp_path).items():
        out = f"{tmp_path / name}.json"
        assert run(argv + ["--out", out]) in (EXIT_PASS, EXIT_CLAIM_FAILURE)
        path = f"{out}.report.json" if argv[0] == "reduce" else out
        got = json.loads(Path(path).read_text())["inputs_digest"]
        if "--input" in argv:
            src = Path(argv[argv.index("--input") + 1])
            assert got == hashlib.sha256(src.read_bytes()).hexdigest(), name
        else:
            assert got == digest(params[name]), name


def test_the_same_system_in_other_whitespace_changes_only_the_digest(tmp_path):
    g = make_rng(82).standard_normal((5, 2)) + 1j * make_rng(83).standard_normal((5, 2))
    g /= 2 * np.linalg.norm(g, axis=1, keepdims=True)
    system = json.loads(canonical_json(system_to_dict(vector_system(g))))
    reports, objects = [], []
    for name, indent in (("flat", None), ("indented", 2)):
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps(system, indent=indent))
        prefix = tmp_path / name
        assert run(["reduce", "--direction", "vec2proj", "--input", str(src),
                    "--n-bound", "2", "--out", str(prefix)]) == EXIT_PASS
        text = strip_wall_time(Path(f"{prefix}.report.json").read_text())
        assert json.loads(text)["inputs_digest"] == hashlib.sha256(src.read_bytes()).hexdigest()
        reports.append(re.sub(r'"inputs_digest": "[0-9a-f]+"', "", text))
        objects.append(Path(f"{prefix}.object.json").read_bytes())
    assert (tmp_path / "flat.json").read_bytes() != (tmp_path / "indented.json").read_bytes()
    assert reports[0] == reports[1]
    assert objects[0] == objects[1]


def unit_system(seed, n, k):
    g = make_rng(seed).standard_normal((n, k)) + 1j * make_rng(seed + 1).standard_normal((n, k))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


@pytest.mark.parametrize("n, k, scale, largest", [
    (6, 3, 1e154, "e+153"),  # each ||v_i||^2 = 1e308, their sum overflows
    (2, 3, 1e160, "e+159"),  # the n < k path
    (2, 3, 1e-160, "e-161"),  # the sum is subnormal, and the margin 0
    (14, 6, 2.0 ** 511, "e+153"),
], ids=["six-1e154", "two-1e160", "two-1e-160", "fourteen-2^511"])
def test_sign_walk_refuses_vectors_out_of_its_range_of_scales(tmp_path, capsys, n, k, scale,
                                                              largest):
    src = tmp_path / "sys.json"
    write_system(src, vector_system(unit_system(n, n, k) * scale))
    assert run(["search", "--kind", "signs", "--input", str(src)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: the sign walk needs sum_i ||v_i||^2 zero or in")
    assert "largest entry modulus" in err and largest in err and "Warning" not in err


@pytest.mark.parametrize("scale", [1e100, 1e-100])
@pytest.mark.parametrize("n", [2, 6])
def test_sign_search_passes_at_scales_inside_the_walk_range(tmp_path, capsys, scale, n):
    v = unit_system(n, n, 3)
    src = tmp_path / "sys.json"
    write_system(src, vector_system(v * scale))
    assert run(["search", "--kind", "signs", "--input", str(src)]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    value = engines.exhaustive_sign_search(vector_system(v)).value
    assert report["claims"][0]["computed"] == pytest.approx(value * scale**2, rel=1e-12)


def test_sign_search_on_zero_vectors_keeps_every_tie(tmp_path, capsys):
    # every sum is 0, so the lexicographically smallest pattern wins; the
    # walk takes 16 blocks, and the margin must keep the later ones' ties
    src = tmp_path / "sys.json"
    write_system(src, vector_system(np.zeros((12, 40))))
    assert run(["search", "--kind", "signs", "--input", str(src)]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["extra"]["witness"]["signs"] == [1] + [-1] * 11


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to a refusal
@pytest.mark.parametrize("scale", [1e100, 1e-100, 1e160, 1e-160, 1e300, 1e-300])
def test_no_command_fails_internally_at_extreme_scales(tmp_path, scale):
    v = unit_system(5, 6, 3)
    a = make_rng(7).standard_normal((5, 5))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    system, pair, net_system, matrix = (tmp_path / name
                                        for name in ("s.json", "p.json", "n.json", "m.json"))
    write_system(system, vector_system(v * scale))
    write_system(pair, vector_system(v[:2] * scale))  # the sign walk's n < k path
    write_system(net_system, vector_system(v[:, :2] * scale))
    matrix.write_text(canonical_json(matrix_to_dict(a * scale)) + "\n")
    commands = [["search", "--kind", kind, "--input", str(system)]
                for kind in ("signs", "partition", "matroid", "banaszczyk")]
    commands.append(["search", "--kind", "signs", "--input", str(pair)])
    commands += [["search", "--kind", "pave", "--input", str(matrix)],
                 ["net-check", "--input", str(net_system), "--epsilon", "0.1",
                  "--n-bound", "4"]]
    for argv in commands:
        assert run(argv) != EXIT_INTERNAL, argv


@pytest.mark.parametrize("argv", [
    ["search", "--kind", "partition"],
    ["search", "--kind", "banaszczyk"],
    ["net-check", "--epsilon", "0.1", "--n-bound", "4"],
    ["reduce", "--direction", "vec2proj", "--n-bound", "4"],
], ids=["partition", "banaszczyk", "net-check", "vec2proj"])
@pytest.mark.parametrize("scale", [1e160, 2.0 ** 511])
def test_commands_refuse_vectors_past_their_scale_before_any_warning(tmp_path, capsys, argv,
                                                                      scale):
    # sum_i ||v_i||^2 = 6 scale^2 is past max / 4: the command names the
    # scale and exits 2, with no numpy RuntimeWarning on the way (raised
    # here as an error, it would exit 4); the matroid search, whose rank
    # tests scale the vectors by a power of two, still decides
    src = tmp_path / "sys.json"
    write_system(src, vector_system(unit_system(5, 6, 3) * scale))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--input", str(src)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert run(["search", "--kind", "matroid", "--input", str(src)]) == EXIT_PASS
    command = " ".join(argv[:3] if argv[0] != "net-check" else argv[:1])
    assert err.startswith(f"error: {command} needs sum_i ||v_i||^2 zero or in [0, 4.49e+307]")
    assert "largest entry modulus" in err and "Warning" not in err


@pytest.mark.parametrize("argv, scale, needs", [
    (["search", "--kind", "pave"], 1e154, "search --kind pave needs ||A||_F^2"),
    (["search", "--kind", "pave"], 1e160, "search --kind pave needs ||A||_F^2"),
    (["reduce", "--direction", "proj2vec", "--n-bound", "2"], 1e154,
     "reduce --direction proj2vec needs ||P||_F^2"),
    (["reduce", "--direction", "proj2vec", "--n-bound", "2"], 1e100,
     "reduce --direction proj2vec needs ||P||_F^2"),
    (["search", "--kind", "banaszczyk"], 1e100,
     "the Banaszczyk sign search needs sum_i ||B_i||_F^2"),
], ids=["pave-1e154", "pave-1e160", "proj2vec-1e154", "proj2vec-1e100", "banaszczyk-1e100"])
def test_commands_refuse_matrices_past_their_scale_before_any_warning(tmp_path, capsys, argv,
                                                                      scale, needs):
    # a zero-diagonal matrix whose squared entries overflow, and unit
    # vectors whose rank-one matrices B_i = v_i v_i* / 5 do: each command
    # names the scale and exits 2, with no numpy RuntimeWarning on the way
    # (raised here as an error, it would exit 4); the projection test
    # squares P, so proj2vec refuses from ||P||_F^2 past sqrt(max / 4)
    a = make_rng(7).standard_normal((5, 5))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    src = tmp_path / "in.json"
    if "banaszczyk" in argv:
        write_system(src, vector_system(unit_system(5, 6, 3) * scale))
    else:
        src.write_text(canonical_json(matrix_to_dict(a * scale)) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--input", str(src)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {needs} zero or in [0, ")
    assert "largest entry modulus" in err and "Warning" not in err
    if argv[2] == "pave":  # below the refusal the search runs, warning-free
        src.write_text(canonical_json(matrix_to_dict(a * 1e100)) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--input", str(src)]) == EXIT_PASS


def test_partition_search_runs_on_vectors_at_large_scale(tmp_path, capsys):
    # per-part frame bounds of vectors x 1e100 are sums of 1e200-sized
    # products; they used to fail the absolute Hermitian tolerance (exit 2)
    rng = make_rng(71)
    g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    extras = []
    for scale in (1.0, 1e100):
        src = tmp_path / "sys.json"
        write_system(src, vector_system(g * scale))
        code = run(["search", "--kind", "partition", "--input", str(src), "--r", "2",
                    "--n-bound", "2"])
        assert code == (EXIT_PASS if scale == 1.0 else EXIT_CLAIM_FAILURE)
        report = json.loads(capsys.readouterr().out)
        bound = next(c["computed"] for c in report["claims"]
                     if c["name"] == "max_part_frame_bound")
        extras.append((report["extra"]["witness"], bound / scale ** 2))
    assert extras[1][0] == extras[0][0]
    assert extras[1][1] == pytest.approx(extras[0][1], rel=1e-12)
