"""Byte contract of the canonical JSON emitter on whole CLI outputs.

`reduce` in both directions and `gen-weaver` run on small seeded inputs;
the sha256 of every file they write, with `wall_time_s` zeroed, must match
the values pinned here. The pins were taken from the recursive emitter, so
any change to how a float, key or row is laid out shows up as a mismatch.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from framedisc.cli import EXIT_PASS, main
from framedisc.rng import make_rng

PINNED = {
    "weaver_instance_k6.json":
        "d184416da47eff8edc1ade1025eb0c7831ca2d15a03f245468fb6272a9d2ca9a",
    "weaver_vectors_k6.json":
        "be86d5ba31dae67e7f4dbbbbc83b7ae20ccf7ab5d2539b013744b74cc390de63",
    "v2p.object.json":
        "1f8bf3f651fbe9142a56514e4d3e2dda7807434340d90b3809eb01ef79c0a1e1",
    "v2p.report.json":
        "911a7b043d2c567c338abfa58779a65dff867fd22d88b2b3f5bdc2f85421f711",
    "p2v.object.json":
        "7ba85aed42eb8d08e5a8e862fbf26e73748c694e47e991a9241b65b3335c56ab",
    "p2v.report.json":
        "f06d226aae0b657fb3f9ab1bd10e1fedab0d510f3c1ea3769f12e701c5a4e91a",
}


def seeded_system(seed: int, n: int, k: int, top: float) -> dict:
    """n random unit-ish vectors in C^k scaled to frame bound `top`, as the
    plain json wire format (written with json.dumps, not the emitter)."""
    rng = make_rng(seed)
    v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= np.sqrt(top / np.linalg.eigvalsh(v.T @ v.conj())[-1])
    return {"k": k, "vectors": [[[float(z.real), float(z.imag)] for z in row] for row in v]}


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict:
    """Run the commands once and return {file name: sha256 with wall time
    zeroed}."""
    tmp_path = tmp_path_factory.mktemp("golden")
    src = tmp_path / "sys.json"
    src.write_text(json.dumps(seeded_system(20261018, 14, 3, 1.8)))
    assert main(["gen-weaver", "--k", "6", "--out", str(tmp_path)]) == EXIT_PASS
    assert main(["reduce", "--direction", "vec2proj", "--input", str(src),
                 "--n-bound", "2", "--out", str(tmp_path / "v2p")]) == EXIT_PASS
    assert main(["reduce", "--direction", "proj2vec", "--input",
                 str(tmp_path / "v2p.object.json"), "--n-bound", "2",
                 "--out", str(tmp_path / "p2v")]) == EXIT_PASS
    out = {}
    for name in PINNED:
        text = (tmp_path / name).read_text()
        text = re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0.0', text)
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_match_pinned_digest(digests, name):
    assert digests[name] == PINNED[name]
