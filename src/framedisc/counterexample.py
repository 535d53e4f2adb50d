"""The sharp k-vector counterexample family and its closed forms.

For integer k >= 5, the family consists of k-1 real vectors in C^k,

    v'_i = (k-2)*alpha*e_i - alpha*sum_{j != i, j < k} e_j + beta*e_k,

with alpha = (k-1)^(-3/2) and beta = (k-1)^(-1/2). Every v'_i has squared
norm delta = (2k-3)/(k-1)^2, and the normalized system v_i = v'_i/sqrt(delta)
has optimal frame bound exactly N = 1/delta. The distance of any subset sum
of rank-one images of e_k from e_k/2 has the closed form

    c(k-1-c)/(k-1)^3 + (c/(k-1) - 1/2)^2,   c = |subset|,

minimized near c = (k-1)/2, which forces every signed sum of the normalized
rank-one operators to have operator norm at least 1/(delta*sqrt(k-1)),
about sqrt(k)/2. That growth makes the family a witness that no constant
can bound the signed operator discrepancy of trace-norm-one PSD matrices.

The exact minimum over sign patterns comes from the family's symmetry:
one sum per count of minus signs (_orbit_minimum). The exhaustive check
walks every pattern and proves each one's norm above that minimum less a
margin with a Cholesky factorization that fails, of t I - S or t I + S,
tried first on the side the trace of S points to, so only a pattern that
would contradict the symmetry is ever eigensolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError
from .engines import WALK_BLOCK_BYTES, WALK_ETA, _require_walk_budget, sign_patterns_below
from .frames import VectorSystem, frame_operator
from .linalg import _opnorm
from .reports import Claim, VerificationReport, finish_report
from .rng import make_rng


@dataclass(frozen=True)
class CounterexampleInstance:
    k: int
    alpha: float
    beta: float
    delta: float
    N: float
    primed: VectorSystem
    normalized: VectorSystem


def counterexample_vectors(k: int) -> CounterexampleInstance:
    """Build the k-1 primed vectors and their unit-norm rescaling."""
    if int(k) != k or k < 5:
        raise InvalidParameterError(f"the family needs integer k >= 5, got {k}")
    k = int(k)
    alpha = (k - 1) ** -1.5
    beta = (k - 1) ** -0.5
    delta = (2 * k - 3) / (k - 1) ** 2
    primed = np.full((k - 1, k), -alpha)
    np.fill_diagonal(primed, (k - 2) * alpha)
    primed[:, k - 1] = beta
    primed_vs = VectorSystem(k=k, vectors=primed.astype(np.complex128))
    normalized_vs = VectorSystem(k=k, vectors=primed_vs.vectors / math.sqrt(delta))
    return CounterexampleInstance(
        k=k, alpha=alpha, beta=beta, delta=delta, N=1.0 / delta,
        primed=primed_vs, normalized=normalized_vs,
    )


def _subset_center_distances(inst: CounterexampleInstance, bits: np.ndarray):
    """Direct and closed-form distances of sum_{i in X} A_{v'_i} e_k from
    e_k/2 for every subset X at once: row t of the 0/1 matrix ``bits``
    (M x (k-1)) marks the members of subset t. Returns two length-M arrays."""
    k = inst.k
    v = inst.primed.vectors
    # A_v e_k = <e_k, v> v with <u,v> = sum u conj(v), so <e_k, v> = conj(v_k)
    totals = bits @ (v[:, -1:].conj() * v)
    totals[:, -1] -= 0.5
    direct = np.linalg.norm(totals, axis=1)
    c = bits.sum(axis=1)
    closed = np.sqrt(c * (k - 1 - c) / (k - 1) ** 3 + (c / (k - 1) - 0.5) ** 2)
    return direct, closed


def subset_center_distance(inst: CounterexampleInstance, X) -> tuple[float, float]:
    """Distance of sum_{i in X} A_{v'_i} e_k from e_k/2: direct evaluation
    and the closed form in c = |X|."""
    idx = sorted(int(i) for i in X)
    if idx and (idx[0] < 0 or idx[-1] >= inst.k - 1):
        raise InvalidParameterError(f"subset indices out of range 0..{inst.k - 2}")
    bits = np.bincount(np.asarray(idx, dtype=np.int64), minlength=inst.k - 1)
    direct, closed = _subset_center_distances(inst, bits[None, :].astype(float))
    return float(direct[0]), float(closed[0])


def signed_norm_lower_bound(k: int) -> float:
    """1/(delta*sqrt(k-1)), the proven floor for every sign pattern."""
    delta = (2 * k - 3) / (k - 1) ** 2
    return 1.0 / (delta * math.sqrt(k - 1))


def _orbit_minimum(inst: CounterexampleInstance, budget: int = 20000) -> tuple[float, int]:
    """The exact min over sign patterns of ||sum_i s_i A_{v_i}||, and the
    eigensolves it took: (k-1)//2 + 1.

    Permuting the k-1 vectors permutes coordinates 1..k-1 and leaves the
    family unchanged, so a pattern's norm depends only on its count c of
    minus signs, and a global flip maps c to k-1-c. The minimum is the
    least norm of the real sums with the first c signs negative,
    c = 0..(k-1)//2, eigensolved in blocks of at most WALK_BLOCK_BYTES.
    Refuses when the eigensolves exceed ``budget``."""
    k = inst.k
    counts = (k - 1) // 2 + 1
    if counts > budget:
        raise BudgetExceededError(
            f"the orbit minimum needs {counts} eigensolves, over the budget {budget}")
    v = inst.normalized.vectors.real
    block = max(1, WALK_BLOCK_BYTES // (k * k * v.itemsize))
    best = math.inf
    for start in range(0, counts, block):
        c = np.arange(start, min(start + block, counts))
        signs = np.where(np.arange(k - 1) < c[:, None], -1.0, 1.0)
        best = min(best, float(_opnorm((v.T * signs[:, None, :]) @ v).min()))
    return best, counts


def verify_counterexample(
    inst: CounterexampleInstance, mode: str = "exhaustive", seed: int = 0, budget: int = 20000
) -> VerificationReport:
    """Check the family's headline claims.

    Both modes report the exact minimum m over the 2^(k-2) sign patterns of
    ||sum_i s_i A_{v_i}|| from _orbit_minimum's (k-1)//2 + 1 eigensolves,
    and assert it is at least the closed-form floor. Heuristic mode takes
    the symmetry on trust and only refuses when the orbit exceeds the
    budget. Exhaustive mode checks it: it refuses when 2^(k-2) exceeds the
    budget (k <= 16 under the default budget), walks every pattern, and
    rules out each one whose sum a Cholesky pair proves above
    t = m - WALK_ETA sum_i ||v_i||^2 (see engines.sign_patterns_below). Its
    claim ``no_pattern_below_orbit_minimum`` asserts that none survives;
    a survivor is eigensolved, and the reported minimum is the least of m
    and the survivors' norms. Its report carries ``patterns_certified``,
    and both modes' carry their ``eigensolves``.

    The closed-form subset claim checks all 2^(k-1) subsets for k <= 12 and
    256 seeded ones above: drawn as bitmasks up to k = 64, and as 0/1
    indicator rows beyond, where a bitmask no longer fits in an int64.
    """
    k = inst.k
    lb = signed_norm_lower_bound(k)
    counters: dict = {}
    claims = []
    if mode == "exhaustive":
        _require_walk_budget(k - 1, budget)  # before the orbit's eigensolves
        min_norm, orbit_solves = _orbit_minimum(inst, budget)
        margin = WALK_ETA * float(np.sum(inst.normalized.norms_squared()))
        _, norms = sign_patterns_below(inst.normalized, min_norm - margin, budget, counters)
        min_norm = min(min_norm, float(norms.min(initial=math.inf)))
        counters["eigensolves"] += orbit_solves
        claims.append(Claim("no_pattern_below_orbit_minimum", computed=float(norms.size),
                            bound=0.0, tolerance=0.0, relation="le"))
    elif mode == "heuristic":
        min_norm, counters["eigensolves"] = _orbit_minimum(inst, budget)
    else:
        raise InvalidParameterError(f"mode must be 'exhaustive' or 'heuristic', got {mode!r}")

    if k <= 64:
        if k <= 12:
            masks = np.arange(2 ** (k - 1), dtype=np.int64)
        else:
            masks = make_rng(seed).integers(0, 2 ** (k - 1), size=256)
        subsets = masks[:, None] >> np.arange(k - 1) & 1
    else:  # 2^(k-1) is past int64: draw each subset's indicator row instead
        subsets = make_rng(seed).integers(0, 2, size=(256, k - 1))
    subset_dev = 0.0
    block = max(1, 1024 // k)  # subsets per product: each temporary stays <= 16 KB
    for start in range(0, subsets.shape[0], block):
        bits = subsets[start:start + block].astype(float)
        direct, closed = _subset_center_distances(inst, bits)
        subset_dev = max(subset_dev, float(np.max(np.abs(direct - closed))))

    e_k = np.zeros(k)
    e_k[-1] = 1.0
    image_err = float(np.linalg.norm(frame_operator(inst.primed) @ e_k - e_k))
    claims += [
        Claim("primed_frame_fixes_e_k", computed=image_err, bound=0.0,
              tolerance=1e-10, relation="abs"),
        Claim("closed_form_subset_distance_agreement", computed=subset_dev,
              bound=0.0, tolerance=1e-12, relation="abs"),
        Claim("signed_norm_floor", computed=float(min_norm), bound=lb,
              tolerance=1e-9, relation="ge"),
    ]
    return finish_report(
        "verify-counterexample",
        {"k": k, "mode": mode},
        claims,
        seed=seed,
        budget=budget,
        extra={"min_signed_norm_or_bound": float(min_norm), "lower_bound": lb, **counters},
    )
