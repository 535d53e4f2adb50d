"""Seeded inputs and the fixed case cycle of each benchmark workload.

A workload is a list of CLI cases run in order, one cycle after another.
Inputs are drawn with numpy from the workload seed and written to JSON
files in the framedisc wire format; the program sees only the file paths.
Every case passes an explicit ``--budget`` (and ``--limit`` where the
command takes one) that covers its whole enumeration, so the cases stay
valid when the budget is enforced everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

@dataclass
class Case:
    """One CLI call of a workload cycle.

    ``argv`` omits ``--out``, which the runner appends per call. ``check``
    names the correctness check, ``data`` holds the numpy inputs that check
    recomputes from, and ``info`` the sizes the trace divides by.
    """

    name: str
    argv: list
    check: str
    inputs: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def unit_vectors(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def random_projection(rng: np.random.Generator, m: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    q, _ = np.linalg.qr(g)
    p = q @ q.conj().T
    return (p + p.conj().T) / 2.0


def gram_projection(vectors: np.ndarray, n_bound: float) -> np.ndarray:
    """The Gram projection of the reduction: shrink by 1/sqrt(N), pad the
    frame to a Parseval one with rank-one pieces of squared norm <= 1/N,
    and return P[i, j] = <w_j, w_i>."""
    w = vectors / math.sqrt(n_bound)
    b, f = np.linalg.eigh(np.eye(w.shape[1]) - w.T @ w.conj())
    pieces = []
    for t, bt in enumerate(b):
        if bt > 1e-12:
            count = max(1, math.ceil(bt * n_bound - 1e-9))
            pieces += [math.sqrt(bt / count) * f[:, t]] * count
    full = np.vstack([w, np.array(pieces)])
    p = full.conj() @ full.T
    return (p + p.conj().T) / 2.0


def _pairs(arr) -> list:
    z = np.asarray(arr, dtype=np.complex128).ravel()
    return np.stack([z.real, z.imag], axis=1).tolist()


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


def write_system(path: Path, vectors: np.ndarray) -> str:
    return _write(path, {"k": int(vectors.shape[1]),
                         "vectors": [_pairs(row) for row in vectors]})


def write_matrix(path: Path, m: np.ndarray) -> str:
    return _write(path, {"dim": int(m.shape[0]), "entries": _pairs(m)})


def _weaver(k: int, mode: str, budget: int, seed: int) -> Case:
    argv = ["verify-weaver", "--k", str(k), "--mode", mode, "--budget", str(budget),
            "--seed", str(seed)]
    name = f"weaver-k{k}" + ("-heur" if mode == "heuristic" else "")
    return Case(name, argv, "weaver", data={"k": k, "exact": mode == "exhaustive"})


def _signs(d: Path, seed: int, salt: int, n: int, k: int) -> Case:
    v = unit_vectors(_rng(seed, salt), n, k)
    path = write_system(d / f"signs-n{n}-k{k}.json", v)
    enum = 2 ** (n - 1)
    argv = ["search", "--kind", "signs", "--input", path, "--budget", str(enum),
            "--limit", str(enum), "--seed", str(seed)]
    return Case(f"signs-n{n}-k{k}", argv, "signs", [path], {"v": v})


def sign_enum(d: Path, seed: int) -> list:
    return [
        _weaver(14, "exhaustive", 2**12, seed),
        _weaver(15, "exhaustive", 2**13, seed),
        # k = 12 also runs the closed-form check over all 2^11 subsets
        _weaver(12, "exhaustive", 2**11, seed),
        _weaver(40, "heuristic", 1500, seed),
        _signs(d, seed, 1, 14, 6),
        _signs(d, seed, 2, 13, 20),
    ]


def _partition(d: Path, v: np.ndarray, r: int, budget: int, seed: int) -> Case:
    n = v.shape[0]
    path = write_system(d / f"partition-n{n}.json", v)
    argv = ["search", "--kind", "partition", "--input", path, "--r", str(r),
            "--n-bound", "2.0", "--budget", str(budget), "--limit", str(r**n),
            "--seed", str(seed)]
    exact = r**n <= budget
    return Case(f"partition-r{r}-n{n}", argv, "partition", [path],
                {"v": v, "n_bound": 2.0}, {"leaves": r**n if exact else 0})


def _matroid(d: Path, name: str, v: np.ndarray, r: int, seed: int) -> Case:
    path = write_system(d / f"{name}.json", v)
    argv = ["search", "--kind", "matroid", "--input", path, "--r", str(r),
            "--budget", "20000", "--limit", str(2**24), "--seed", str(seed)]
    return Case(name, argv, "matroid", [path], {"v": v, "r": r})


def partition_search(d: Path, seed: int) -> list:
    # 12 vectors of squared norm 1/2 in C^4: every part stays below N = 2
    part_v = unit_vectors(_rng(seed, 3), 12, 4) / math.sqrt(2.0)
    pave_p = random_projection(_rng(seed, 4), 10, 4)
    pave_a = pave_p - np.diag(np.diag(pave_p))
    pave_path = write_matrix(d / "pave-m10.json", pave_a)
    # 26 vectors in a 4-dim subspace of C^8 and 4 generic ones: the generic
    # four leave a complement of rank 4, so 3 spanning parts cannot exist
    rng = _rng(seed, 6)
    basis = unit_vectors(rng, 4, 8)
    flat = (rng.standard_normal((26, 4)) + 1j * rng.standard_normal((26, 4))) @ basis
    deficient = np.vstack([flat / np.linalg.norm(flat, axis=1, keepdims=True),
                           unit_vectors(rng, 4, 8)])[rng.permutation(30)]
    return [
        _partition(d, part_v, 2, 2**12, seed),
        # 3^12 exceeds the budget, so this case anneals (2000 steps)
        _partition(d, part_v, 3, 20000, seed),
        Case("pave-r2-m10",
             ["search", "--kind", "pave", "--input", pave_path, "--r", "2",
              "--budget", str(2**10), "--limit", str(2**10), "--seed", str(seed)],
             "pave", [pave_path], {"a": pave_a}, {"leaves": 2**10, "candidates": 2**10}),
        _matroid(d, "matroid-feasible-n45", unit_vectors(_rng(seed, 5), 45, 8), 5, seed),
        _matroid(d, "matroid-infeasible-n30", deficient, 3, seed),
    ]


def bulk_kernels(d: Path, seed: int) -> list:
    bz_v = unit_vectors(_rng(seed, 7), 30, 4)
    bz_path = write_system(d / "banaszczyk-n30.json", bz_v)
    net_v = unit_vectors(_rng(seed, 8), 6, 2)
    net_path = write_system(d / "net-k2.json", net_v)
    red_v = unit_vectors(_rng(seed, 9), 200, 12)
    top = np.linalg.eigvalsh(red_v.T @ red_v.conj())[-1]
    red_v *= math.sqrt(3.6 / top)  # frame bound 3.6 < N = 4
    red_path = write_system(d / "reduce-n200.json", red_v)
    proj = gram_projection(red_v, 4.0)
    proj_path = write_matrix(d / "projection.json", proj)
    return [
        Case("radius-k4",
             # two chunks of 125k matrices
             ["banaszczyk-radius", "--k", "4", "--samples", "250000",
              "--budget", "250000", "--seed", str(seed)],
             "radius"),
        Case("banaszczyk-n30",
             ["search", "--kind", "banaszczyk", "--input", bz_path,
              "--budget", "20000", "--limit", "20000", "--seed", str(seed)],
             "banaszczyk", [bz_path], {"v": bz_v}),
        Case("net-k2",
             ["net-check", "--input", net_path, "--epsilon", "0.1", "--n-bound", "4.0",
              "--budget", str(2**22), "--seed", str(seed)],
             "net", [net_path], {"v": net_v, "epsilon": 0.1, "n_bound": 4.0}),
        Case("vec2proj-n200",
             ["reduce", "--direction", "vec2proj", "--input", red_path, "--n-bound", "4.0",
              "--budget", "20000", "--seed", str(seed)],
             "vec2proj", [red_path], {"n_bound": 4.0}),
        Case("proj2vec-n200",
             ["reduce", "--direction", "proj2vec", "--input", proj_path, "--n-bound", "4.0",
              "--budget", "20000", "--seed", str(seed)],
             "proj2vec", [proj_path], {"n_bound": 4.0}),
    ]


BUILDERS = {"sign-enum": sign_enum, "partition-search": partition_search,
            "bulk-kernels": bulk_kernels}


def build(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's inputs for ``seed`` under ``directory`` and
    return its case cycle."""
    return BUILDERS[workload](Path(directory), seed)
