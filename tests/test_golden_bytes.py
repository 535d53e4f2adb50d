"""Byte contract of the canonical JSON emitter on whole CLI outputs.

`reduce` in both directions and `gen-weaver` run on small seeded inputs;
the sha256 of every file they write, with `wall_time_s` zeroed, must match
the values pinned here. The pins were taken from the recursive emitter, so
any change to how a float, key or row is laid out shows up as a mismatch.

Heuristic `verify-weaver` at k = 14, 15 and 40 and `search --kind matroid`
on a feasible and an infeasible input are pinned the same way, so a change
to which subsets the distance claim checks or how the matroid search
decides its exchanges shows up too. The matroid pins predate the search's `eliminations` and
`exchange_queries` counters, so those two keys are dropped before hashing.
The heuristic `verify-weaver` pins hold the family's orbit minimum: the
least norm over the counts c = 0..(k-1)//2 of minus signs. The four
`verify-weaver` pins were retaken when that minimum began to come from one
3 x 3 sum T_c per count instead of a k x k sum: at k = 12 and k = 40 it
moved by an ulp or two, the subset and e_k claims, now summed entrywise
from (k, alpha, beta), moved by a few 1e-16, and the reports gained
`orbit_eigensolves`. They were retaken again when every `verify-weaver`
report gained the claim `orbit_minimum_matches_closed_form`, the minimum
against the closed form max(|lambda_c|, w), and the exhaustive ones the
claim `orbit_minimum_attained`, with `orbit_eigensolves` halved (the
witnesses stopped taking an eigh of T_c). The minimum, `lower_bound` and
the floor claim kept their bits. The odd k = 15 pin was added then: its
claim replaced `orbit_minimum_equals_floor`, and there the closed form is
the floor.

`banaszczyk-radius` at k = 4 (250,000 samples) and k = 3 (an odd 1,001
samples), and `search --kind banaszczyk` on a seeded input, pin the
Gaussian median radius R_hat and M = 5 R_hat; the radius report's
`eigensolves` counter is dropped before hashing. The `search --kind
banaszczyk` pin also holds the greedy sign search's witness, the first
state it finds within M. The three pins were retaken when the radius began
to draw each sample as the real tridiagonal with the Gaussian's eigenvalue
law (2k - 1 draws instead of k^2), which draws other samples: R_hat moved
from 2.943822620273438 to 2.943116519119746 at k = 4, from
2.364238903149688 to 2.3648254891860936 at k = 3, and from
2.343859390078796 to 2.3537579878559756 in the search, whose witness held.
Each is still the bits of the all-samples median of its draws.

`search --kind signs` on a real input, a complex input with n >= k and a
complex input with n < k pin the exhaustive sign search's minimum and
witness; the `eigensolves` counter of the certified walk is dropped before
hashing. Their pins were retaken when the walk began to add each sum as
H + L, a Gray-code sum H over the first signs plus a tabulated sum L over
the last ones, instead of a running sum over every pattern: the witnesses
stayed and each minimum moved by an ulp or two, onto or nearer the norm of
the witness's explicit signed sum. Exhaustive `verify-weaver` at k = 12 and k = 14 pins the orbit
minimum's bits, as heuristic mode reports them, with the certificate that
no sign pattern lies below it: `patterns_certified` = 2^(k-2) and no
survivor. These two pins were retaken when the exhaustive mode stopped
searching for the minimum itself; it had reported the walk's bits, a few
ulps away.

The matroid and `search --kind banaszczyk` pins were retaken when every
search began to report whether it ran to completion: those reports gained
`exact` (true for the matroid decision, false for the greedy sign search).
The exhaustive `verify-weaver` pins were retaken when the e_k claim began
to sum sum_i <e_k, v'_i> v'_i from the vectors in exhaustive mode: it moved
from 0.0 to 2.2e-16 at k = 12 and 2.3e-16 at k = 14. They were retaken
again when the subset claim began to check the prefix subsets
{0, ..., c-1}, one per count c, from prefix sums of the vectors' entries
in exhaustive mode: it moved from 5.6e-17 to 2.2e-16 at k = 12 and from
1.1e-16 to 2.2e-16 at k = 14. The heuristic pins held: there the claim,
summed from (k, alpha, beta), kept its largest gap.

A mid-size `reduce --direction vec2proj` (60 seeded vectors in C^8 at
N = 4) pins a 79 x 79 projection: 12,482 floats that take 4,553 distinct
magnitudes, so the emitter's one string per distinct magnitude is checked
where thousands of them repeat, with either sign. Its pins were taken from
the emitter that formatted every float. The two `vec2proj` report pins
were retaken when the command began to cap its tight completion by
`--budget`: the reports' `budget` moved from null to 20000, and nothing
else did.

`search --kind partition` at r = 2 and at r = 3 with a budget that cuts
the walk short (an inexact incumbent), `search --kind pave` on a seeded
zero-diagonal Hermitian matrix, and `net-check` on a three-vector subset
pin the reports whose per-part bounds, slack and certified bracket the
command assembles from the engines' results. Their pins were taken before
those results were slimmed to what the commands read.

A report of a command that reads `--input` (reduce, matroid, banaszczyk
and signs above) also pins its `inputs_digest`, the SHA-256 of the input
file's bytes, and so the bytes the inputs below are written with: the
seeded systems as `json.dumps` writes them, and `v2p.object.json` as the
emitter does. The other reports pin the digest of their parameters'
canonical JSON.
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
        "e984b1adad9d19fc5ea28da3f0c9844978b28bb0e421c591784edb44c162b684",
    "v2p_mid.object.json":
        "1cdbfd8cd29e0f47338363d15640ebc7cb1a759983c173e5a2be87b3477d0a59",
    "v2p_mid.report.json":
        "84bf568e44b381af5d78df8cc3e1b444787d8e93723c7cfba634ba98640fd2cd",
    "p2v.object.json":
        "7ba85aed42eb8d08e5a8e862fbf26e73748c694e47e991a9241b65b3335c56ab",
    "p2v.report.json":
        "afab6089945f12ec048141afe9255f2b9a6db6527569112f7246942d3ccdb955",
    "weaver_heur_k14.report.json":
        "c2aa20bced4462dae62616f3ab7be82543e6fa8a719c769de8e57fdad90fbcd7",
    "weaver_heur_k15.report.json":
        "5b86a574735eea5cdc6a1416bfb87d2c9df1755dd02619870d62f9e038a37136",
    "weaver_heur_k40.report.json":
        "32efea93f52ae04083a5eea860e1343f9e4c1a28766443e014c7134d9594c27e",
    "matroid_feasible.report.json":
        "6b890405641203b51b3f08402344841d5917825bf64684784e5a360e4191d381",
    "matroid_infeasible.report.json":
        "71b3270dea86e11d12f26cdcf1639db82af95480a483f87de132b4cc7b9ce2be",
    "radius_k4.report.json":
        "7791bcd743bd43f6cd47aa5fc52e75bf92c36f77819c79dbd8105967a89877c5",
    "radius_k3.report.json":
        "e59928f2e5aba4485b39227e8c4641a38862b6b267194e9fa4b1fc3ff60f8e1a",
    "banaszczyk.report.json":
        "f06291892730ecaa6e7279279a2e52cc165e993ca4af82d8f6d74d8e9a568c19",
    "signs_real.report.json":
        "65cfdd10639a666a73514b1b6be0e08dc15ff247ffcc776081d0b53c7e0c7a98",
    "signs_complex_n_ge_k.report.json":
        "3f4e3034c7bd1bdd2a4b91cf6e63f9149d0ae07251e6b50aad633d4e24021529",
    "signs_complex_n_lt_k.report.json":
        "2ca362ddb5f5c58896012980e845c96f00791de0c80cbc110e0928c127525f69",
    "weaver_exact_k12.report.json":
        "4b36c3e0edfaeda9cd7dfe9c7694d065207557a89591e608bbed3fa77877aa97",
    "weaver_exact_k14.report.json":
        "7a4a8f7812b0ff300992649afcf8fa45fd43d603b7175ed4409cbef86b29d021",
    "partition_r2.report.json":
        "0ac1597faf9a7d54ec1bdaa75537e709e8daa861c2d9cc5276db034cb7636253",
    "partition_r3_cut.report.json":
        "d7488938d5d4c6fb3b5e40fbd79d78e0432d33c5c550d53d70afdd2038de955a",
    "pave.report.json":
        "8b910fb0f5f9985a5c4d384353cab38fe49a28aefc32a9d882f7cd66e0b4d1ad",
    "net.report.json":
        "52ff2529b7d1c821148655ce591629655bcad0502f2723c363901d652c60a895",
}


def seeded_system(seed: int, n: int, k: int, top: float) -> dict:
    """n random unit-ish vectors in C^k scaled to frame bound `top`, as the
    plain json wire format (written with json.dumps, not the emitter)."""
    rng = make_rng(seed)
    v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= np.sqrt(top / np.linalg.eigvalsh(v.T @ v.conj())[-1])
    return wire(k, v)


def real_system(seed: int, n: int, k: int) -> dict:
    """n real unit vectors in R^k (zero imaginary parts) in the wire format."""
    v = make_rng(seed).standard_normal((n, k))
    return wire(k, v / np.linalg.norm(v, axis=1, keepdims=True))


def wire(k: int, v: np.ndarray) -> dict:
    return {"k": k, "vectors": [[[float(z.real), float(z.imag)] for z in row] for row in v]}


def zero_diagonal_matrix(seed: int, n: int) -> dict:
    """A Hermitian n x n matrix with zero diagonal in the wire format."""
    rng = make_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = np.triu(g, 1)
    h = h + h.conj().T
    return {"dim": n, "entries": [[float(z.real), float(z.imag)] for z in h.ravel()]}


def deficient_system(seed: int) -> dict:
    """10 vectors in a 2-dim subspace of C^4 and 2 generic ones: no split
    into 2 spanning parts exists."""
    rng = make_rng(seed)
    basis = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    flat = (rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))) @ basis
    generic = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    return wire(4, np.vstack([flat, generic])[rng.permutation(12)])


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
    mid = tmp_path / "mid.json"
    mid.write_text(json.dumps(seeded_system(20261025, 60, 8, 3.5)))
    assert main(["reduce", "--direction", "vec2proj", "--input", str(mid),
                 "--n-bound", "4", "--out", str(tmp_path / "v2p_mid")]) == EXIT_PASS
    assert main(["reduce", "--direction", "proj2vec", "--input",
                 str(tmp_path / "v2p.object.json"), "--n-bound", "2",
                 "--out", str(tmp_path / "p2v")]) == EXIT_PASS
    for k in (14, 15, 40):
        assert main(["verify-weaver", "--k", str(k), "--mode", "heuristic", "--budget", "300",
                     "--seed", "5", "--out", str(tmp_path / f"weaver_heur_k{k}.report.json")]
                    ) == EXIT_PASS
    feasible = tmp_path / "feasible.json"
    feasible.write_text(json.dumps(seeded_system(20261019, 10, 3, 2.0)))
    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(json.dumps(deficient_system(20261020)))
    for name, src, r in (("feasible", feasible, 3), ("infeasible", infeasible, 2)):
        assert main(["search", "--kind", "matroid", "--input", str(src), "--r", str(r),
                     "--out", str(tmp_path / f"matroid_{name}.report.json")]) == EXIT_PASS
    assert main(["banaszczyk-radius", "--k", "4", "--samples", "250000", "--seed", "3",
                 "--out", str(tmp_path / "radius_k4.report.json")]) == EXIT_PASS
    assert main(["banaszczyk-radius", "--k", "3", "--samples", "1001", "--seed", "41",
                 "--out", str(tmp_path / "radius_k3.report.json")]) == EXIT_PASS
    balancing = tmp_path / "balancing.json"
    balancing.write_text(json.dumps(seeded_system(20261021, 16, 3, 2.0)))
    assert main(["search", "--kind", "banaszczyk", "--input", str(balancing), "--seed", "7",
                 "--out", str(tmp_path / "banaszczyk.report.json")]) == EXIT_PASS
    for name, system in (("real", real_system(20261022, 12, 4)),
                         ("complex_n_ge_k", seeded_system(20261023, 11, 3, 2.0)),
                         ("complex_n_lt_k", seeded_system(20261024, 9, 14, 2.0))):
        src = tmp_path / f"signs_{name}.json"
        src.write_text(json.dumps(system))
        assert main(["search", "--kind", "signs", "--input", str(src),
                     "--out", str(tmp_path / f"signs_{name}.report.json")]) == EXIT_PASS
    for k in (12, 14):
        assert main(["verify-weaver", "--k", str(k), "--mode", "exhaustive",
                     "--out", str(tmp_path / f"weaver_exact_k{k}.report.json")]) == EXIT_PASS
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps(seeded_system(20261026, 10, 3, 1.8)))
    for name, r, budget in (("r2", 2, 20000), ("r3_cut", 3, 60)):
        assert main(["search", "--kind", "partition", "--input", str(parts), "--r", str(r),
                     "--n-bound", "2", "--budget", str(budget),
                     "--out", str(tmp_path / f"partition_{name}.report.json")]) == EXIT_PASS
    pave = tmp_path / "pave.json"
    pave.write_text(json.dumps(zero_diagonal_matrix(20261027, 8)))
    assert main(["search", "--kind", "pave", "--input", str(pave), "--r", "2",
                 "--out", str(tmp_path / "pave.report.json")]) == EXIT_PASS
    net = tmp_path / "net.json"
    net.write_text(json.dumps(seeded_system(20261028, 6, 2, 1.8)))
    assert main(["net-check", "--input", str(net), "--subset", "1,3,4", "--epsilon", "0.1",
                 "--n-bound", "2", "--out", str(tmp_path / "net.report.json")]) == EXIT_PASS
    out = {}
    for name in PINNED:
        text = (tmp_path / name).read_text()
        text = re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0.0', text)
        text = re.sub(r'\n *"(eliminations|exchange_queries|eigensolves)": \d+,', '', text)
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_match_pinned_digest(digests, name):
    assert digests[name] == PINNED[name]
