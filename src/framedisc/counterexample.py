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

The exact minimum m over sign patterns comes in closed 3 x 3 form. A
pattern s with c minus signs (P, M its plus and minus coordinates among the
first k-1, p = k-1-c) leaves span{1_P/sqrt(p), 1_M/sqrt(c), e_k} invariant,
and there S_s = sum_i s_i v_i v_i^T acts as

    T_c = (p a_P a_P^T - c a_M a_M^T) / delta,
    a_P = (c alpha/sqrt(p), -alpha sqrt(c), beta),
    a_M = (-alpha sqrt(p), p alpha/sqrt(c), beta),

the coordinates of each v'_i in that basis (the 1_M one is 0 for c = 0).
On the complement, never empty for k >= 5, it acts as +w on vectors summing
to 0 over P and -w on those over M, w = (k-1)/(2k-3). So
||S_s|| = max(||T_c||, w), a global flip maps c to k-1-c, and m is the
least over c = 0..(k-1)//2: one batched 3 x 3 eigvalsh, O(k) time and
memory with no vector built (_orbit_minimum). For odd k it is the floor.

The exhaustive check proves each of the 2^(k-2) patterns (s_0 = +1) at or
above t = m - WALK_ETA sum_i ||v_i||^2 with a Rayleigh witness: the extreme
eigenvector y of T_c is the unit vector x_s = p_c + q_c s_j on coordinate
j < k-1 and e_c on e_k, p_c + q_c = y_1/sqrt(p), p_c - q_c = y_2/sqrt(c),
e_c = y_3 (_orbit_witness). Then ||S_s|| >= |q_s|, q_s = sum_i s_i
<x_s, v_i>^2, computed from the vectors' entries as p_c r + q_c V's + e_c w
(r the row sums of the first k-1 columns V' of V, w its last column, V's
blockwise from engines._sign_blocks: _uncertified_patterns). A pattern with
|q_s| > t is certified; the rest have their k x k sums eigensolved. No
closed form in c enters, so a witness that fits badly only sends its
pattern to the eigensolver. Each <x_s, v_i> is a sum of at most k + 4
terms (V's = H + L per block, not a running Gray sum), so the quotient is
off by at most c k^(3/2) eps sum_i ||v_i||^2, far below the margin
1e-9 sum_i ||v_i||^2 at every k an exhaustive walk can reach.

The distance claims take one subset per count c = 0..k-1, the prefix
X_c = {0, ..., c-1} (the family is symmetric in its first k-1
coordinates), and the row c = k-1 also against e_k (_prefix_distances).
Only gen-weaver and exhaustive mode read the vectors, which an instance
builds on first use. Heuristic verify-weaver at k = 10^6 runs in about
0.7 s and 35 MB peak RSS on a 2-vCPU host, mostly the 3 x 3 eigensolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError
from .engines import WALK_BLOCK_BYTES, WALK_ETA, _block_signs, _sign_blocks
from .frames import VectorSystem, _subset_indices
from .linalg import _opnorm, _solve
from .reports import Claim, VerificationReport, finish_report


@dataclass(frozen=True)
class CounterexampleInstance:
    k: int
    alpha: float
    beta: float
    delta: float
    N: float

    @cached_property
    def primed(self) -> VectorSystem:
        """The k-1 vectors v'_i, built on first use."""
        k = self.k
        primed = np.full((k - 1, k), -self.alpha)
        np.fill_diagonal(primed, (k - 2) * self.alpha)
        primed[:, k - 1] = self.beta
        return VectorSystem(primed.astype(np.complex128))

    @cached_property
    def normalized(self) -> VectorSystem:
        """The unit vectors v_i = v'_i / sqrt(delta), built on first use."""
        return VectorSystem(self.primed.vectors / math.sqrt(self.delta))


def counterexample_vectors(k: int) -> CounterexampleInstance:
    """The family at k: its constants now, its vectors on first use."""
    if int(k) != k or k < 5:
        raise InvalidParameterError(f"the family needs integer k >= 5, got {k}")
    k = int(k)
    delta = (2 * k - 3) / (k - 1) ** 2
    return CounterexampleInstance(k=k, alpha=(k - 1) ** -1.5, beta=(k - 1) ** -0.5,
                                  delta=delta, N=1.0 / delta)


def _closed_distance(k: int, c):
    """The closed form in c = |X| of the distance from e_k/2."""
    c = np.asarray(c, dtype=float)
    return np.sqrt(c * (k - 1 - c) / (k - 1) ** 3 + (c / (k - 1) - 0.5) ** 2)


def subset_center_distance(inst: CounterexampleInstance, X) -> tuple[float, float]:
    """Distance of sum_{i in X} A_{v'_i} e_k from e_k/2: direct evaluation
    from the vectors and the closed form in c = |X|."""
    v = inst.primed.vectors[_subset_indices(X, inst.k - 1)]
    image = v[:, -1].conj() @ v  # sum_{i in X} <e_k, v'_i> v'_i
    image[-1] -= 0.5
    return float(np.linalg.norm(image)), float(_closed_distance(inst.k, len(v)))


def _prefix_distances(inst: CounterexampleInstance, c: np.ndarray, target: float,
                      exhaustive: bool) -> np.ndarray:
    """||sum_{i < c} <e_k, v'_i> v'_i - target e_k|| for each c of the int
    array c: from prefix sums of the vectors' entries in exhaustive mode (a
    wrong entry of v'_i moves every c > i), in heuristic mode from (k,
    alpha, beta) in O(1) per c: beta alpha (k-1-c) on the c members,
    -beta alpha c on the rest and beta^2 c last."""
    k = inst.k
    if exhaustive:
        v = inst.primed.vectors
        sums = np.cumsum(np.vstack([np.zeros((1, k)), v[:, k - 1:].conj() * v]), axis=0)[c]
        sums[:, k - 1] -= target
        return np.linalg.norm(sums, axis=1)
    ba, c = inst.beta * inst.alpha, c.astype(float)
    p = k - 1 - c
    return np.sqrt(c * (ba * p) ** 2 + p * (ba * c) ** 2
                   + (inst.beta * inst.beta * c - target) ** 2)


def signed_norm_lower_bound(k: int) -> float:
    """1/(delta*sqrt(k-1)), the proven floor for every sign pattern."""
    inst = counterexample_vectors(k)
    return 1.0 / (inst.delta * math.sqrt(inst.k - 1))


def _signed_sums(v: np.ndarray, signs: np.ndarray):
    """Yield the sums sum_i s_i v_i v_i^T of real vectors v (k-1, k) for the
    sign rows of ``signs`` (m, k-1), in stacks of at most WALK_BLOCK_BYTES."""
    k = v.shape[1]
    block = max(1, WALK_BLOCK_BYTES // (k * k * v.itemsize))
    for start in range(0, len(signs), block):
        yield (v.T * signs[start:start + block, None, :]) @ v


def _orbit_sums(inst: CounterexampleInstance, c: np.ndarray) -> np.ndarray:
    """T_c for each count c of minus signs, a stack (len(c), 3, 3)."""
    alpha, c = inst.alpha, c.astype(float)
    p = inst.k - 1 - c
    root_p, root_c = np.sqrt(p), np.sqrt(c)
    beta = np.full_like(c, inst.beta)
    a_p = np.stack([c * alpha / root_p, -alpha * root_c, beta], axis=-1)
    a_m = np.stack([-alpha * root_p, np.divide(p * alpha, root_c, out=np.zeros_like(c),
                                               where=c > 0), beta], axis=-1)
    return (p[:, None, None] * a_p[:, :, None] * a_p[:, None, :]
            - c[:, None, None] * a_m[:, :, None] * a_m[:, None, :]) / inst.delta


def _orbit_minimum(inst: CounterexampleInstance, budget: int = 20000) -> tuple[float, int]:
    """(m, (k-1)//2 + 1): the least of max(||T_c||, w) over c = 0..(k-1)//2
    (module docstring), the T_c eigensolved in stacks of at most
    WALK_BLOCK_BYTES, and the eigensolves taken, refused past ``budget``."""
    k = inst.k
    counts = (k - 1) // 2 + 1
    if counts > budget:
        raise BudgetExceededError(
            f"the orbit minimum needs {counts} eigensolves, over the budget {budget}")
    block = max(1, WALK_BLOCK_BYTES // 72)
    least = min(float(_opnorm(_orbit_sums(inst, np.arange(s, min(s + block, counts)))).min())
                for s in range(0, counts, block))
    return max(least, (k - 1) / (2 * k - 3)), counts


def _orbit_witness(inst: CounterexampleInstance) -> np.ndarray:
    """The witness table (k, 3): row c holds (p_c, q_c, e_c) of a pattern
    with c minus signs, read from the eigenvector of T_c's eigenvalue of
    largest modulus (module docstring). Row c > (k-1)/2 is the global flip
    (p, -q, e) of row k-1-c: S_s = -S_{-s}, and x_s is the witness of -s."""
    k = inst.k
    c = np.arange((k - 1) // 2 + 1)
    w, u = _solve(np.linalg.eigh, _orbit_sums(inst, c))
    y = u[c, :, np.where(abs(w[:, -1]) >= abs(w[:, 0]), -1, 0)]
    plus = y[:, 0] / np.sqrt(k - 1 - c)
    minus = np.divide(y[:, 1], np.sqrt(c), out=np.zeros(len(c)), where=c > 0)
    half = np.column_stack([(plus + minus) / 2, (plus - minus) / 2, y[:, 2]])
    flips = half[k - 1 - np.arange(len(half), k)] * [1.0, -1.0, 1.0]
    return np.vstack([half, flips])


def _uncertified_patterns(v: np.ndarray, witness: np.ndarray,
                          t: float) -> tuple[np.ndarray, np.ndarray]:
    """The sign patterns (s_0 = +1) of real vectors v (k-1, k) whose quotient
    |q_s| under the ``witness`` table of _orbit_witness is not above t (a
    NaN included), as an (m, k-1) array, and their explicit sums' norms.
    Each block of engines._sign_blocks over the columns of V' gives
    V's = V'_high h + L, and with it every q_s of the block at once."""
    n = len(v)
    head, tail = v[:, :n], v[:, n]
    base = witness[:, :1] * head.sum(axis=1) + witness[:, 2:] * tail  # p_c r + e_c w
    low, table, blocks = _sign_blocks(np.ascontiguousarray(head.T))
    b = low.shape[1]
    split = n - b
    # rows sorted by their count j of low minus signs (b signs summing to
    # b - 2j): run j takes one base row
    minus = (b - np.einsum("ij->i", low)) // 2
    order = np.argsort(minus, kind="stable")
    low, table, minus = low[order], table[order], minus[order]
    edges = np.searchsorted(minus, np.arange(b + 2))
    runs = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    kept = [np.zeros((0, n), dtype=np.int64)]
    z = np.empty_like(table)  # one per walk: see engines._walk_screen
    for high, _ in blocks:
        high_minus = np.count_nonzero(high < 0)
        np.add(table, head[:, :split] @ high, out=z)  # V's
        z *= witness[minus + high_minus, 1:2]
        for j, rows in enumerate(runs):
            z[rows] += base[high_minus + j]
        z *= z
        quotient = z[:, :split] @ high + np.einsum("ij,ij->i", z[:, split:], low)
        rows = np.flatnonzero(~(np.abs(quotient) > t))  # NaN certifies nothing
        if rows.size:
            kept.append(_block_signs(high, low, rows))
    signs = np.concatenate(kept)
    return signs, np.concatenate([np.zeros(0)] + [_opnorm(s) for s in _signed_sums(v, signs)])


def verify_counterexample(
    inst: CounterexampleInstance, mode: str = "exhaustive", seed: int = 0, budget: int = 20000
) -> VerificationReport:
    """Check the family's headline claims.

    Both modes report the exact minimum m from _orbit_minimum and assert it
    is at least the floor, and for odd k equal to it within 16 ulps.
    Heuristic mode takes the symmetry on trust. Exhaustive mode refuses
    when 2^(k-2) exceeds the budget (k <= 16 by default), proves each
    pattern above t = m - WALK_ETA sum_i ||v_i||^2 by its witness or by
    eigensolving its sum, asserts ``no_pattern_below_orbit_minimum`` and
    reports the least of m and the norms below t. Counters:
    ``patterns_certified``, the patterns proven at or above t;
    ``eigensolves``, the k x k sums eigensolved (0 in heuristic mode); and
    ``orbit_eigensolves``, the 3 x 3 ones, (k-1)//2 + 1 for m and as many
    again for the witnesses.

    ``closed_form_subset_distance_agreement`` compares the distance from
    e_k/2 of each prefix X_c with the closed form in c, in blocks of
    WALK_BLOCK_BYTES // 8 counts, and ``primed_frame_fixes_e_k`` asserts
    that X_{k-1}'s sum is e_k (_prefix_distances). ``seed`` is recorded in
    the report; no claim depends on it.
    """
    k = inst.k
    lb = signed_norm_lower_bound(k)
    claims = []
    if mode not in ("exhaustive", "heuristic"):
        raise InvalidParameterError(f"mode must be 'exhaustive' or 'heuristic', got {mode!r}")
    if mode == "exhaustive" and 2 ** (k - 2) > budget:  # before the orbit's eigensolves
        raise BudgetExceededError(
            f"the sign walk needs 2^{k - 2} patterns, over the budget {budget}")
    orbit_min, orbit_solves = _orbit_minimum(inst, budget)
    min_norm, counters = orbit_min, {"eigensolves": 0, "orbit_eigensolves": orbit_solves}
    if mode == "exhaustive":
        t = orbit_min - WALK_ETA * float(np.sum(inst.normalized.norms_squared()))
        _, norms = _uncertified_patterns(inst.normalized.vectors.real, _orbit_witness(inst), t)
        below = norms[norms < t]
        min_norm = min(orbit_min, float(below.min(initial=math.inf)))
        counters = {"patterns_certified": 2 ** (k - 2) - below.size,
                    "eigensolves": norms.size, "orbit_eigensolves": 2 * orbit_solves}
        claims.append(Claim("no_pattern_below_orbit_minimum", computed=float(below.size),
                            bound=0.0, tolerance=0.0, relation="le"))

    exhaustive, block = mode == "exhaustive", WALK_BLOCK_BYTES // 8
    subset_dev = max(float(np.max(np.abs(_prefix_distances(inst, c, 0.5, exhaustive)
                                         - _closed_distance(k, c))))
                     for c in (np.arange(s, min(s + block, k)) for s in range(0, k, block)))
    image_err = float(_prefix_distances(inst, np.array([k - 1]), 1.0, exhaustive)[0])
    claims += [
        Claim("primed_frame_fixes_e_k", computed=image_err, bound=0.0,
              tolerance=1e-10, relation="abs"),
        Claim("closed_form_subset_distance_agreement", computed=subset_dev,
              bound=0.0, tolerance=1e-12, relation="abs"),
        Claim("signed_norm_floor", computed=float(min_norm), bound=lb,
              tolerance=1e-9, relation="ge"),
    ]
    if k % 2:
        claims.append(Claim("orbit_minimum_equals_floor", computed=orbit_min, bound=lb,
                            tolerance=16 * math.ulp(lb), relation="abs"))
    return finish_report("verify-counterexample", {"k": k, "mode": mode}, claims, seed=seed,
                         budget=budget, extra={"min_signed_norm_or_bound": float(min_norm),
                                               "lower_bound": lb, **counters})
