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

The exact minimum m over sign patterns comes from the family's symmetry:
one sum per count of minus signs (_orbit_minimum). The exhaustive check
proves every one of the 2^(k-2) patterns (s_0 = +1) at or above
t = m - WALK_ETA sum_i ||v_i||^2 with an explicit Rayleigh witness. A
pattern s with c minus signs leaves span{1_P, 1_M, e_k} invariant (P, M
its plus and minus coordinates among the first k-1), and its extreme
eigenvector lies in that span, so one eigh of the orbit representatives
gives a unit vector x_s for every pattern: p_c + q_c s_j on coordinate
j < k-1 and e_c on e_k (_orbit_witness; c > (k-1)/2 takes the witness
of the global flip). Then ||S_s|| >= |q_s|, q_s = sum_i s_i <x_s, v_i>^2,
computed from the vectors' entries as p_c r + q_c V's + e_c w, with r the
row sums of the first k-1 columns V' of V and w its last column; V's comes
blockwise from engines._sign_blocks (_uncertified_patterns). A pattern
with |q_s| > t is certified; the rest have their explicit k x k sums
eigensolved, and those of norm below t survive. Nothing here uses a closed
form in c, so the check does not take the symmetry on trust: a witness
that fits badly only sends its pattern to the eigensolver.

Rounding: each <x_s, v_i> is a sum of at most k + 4 terms (V's is formed
per block as a product H + L with the low-sign table, not as a running
Gray sum), off by at most c k eps sum_j |v_ij| <= c k^(3/2) eps ||v_i||;
squaring, summing and the witness's norm (1 up to k eps) bring the
quotient's error to at most c k^(3/2) eps sum_i ||v_i||^2, far below the
margin 1e-9 sum_i ||v_i||^2 at every k an exhaustive walk can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError
from .engines import WALK_BLOCK_BYTES, WALK_ETA, _block_signs, _sign_blocks
from .frames import VectorSystem, frame_operator
from .linalg import _opnorm, _solve
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


def _signed_sums(v: np.ndarray, signs: np.ndarray):
    """Yield the sums sum_i s_i v_i v_i^T of real vectors v (k-1, k) for the
    sign rows of ``signs`` (m, k-1), in stacks of at most WALK_BLOCK_BYTES."""
    k = v.shape[1]
    block = max(1, WALK_BLOCK_BYTES // (k * k * v.itemsize))
    for start in range(0, len(signs), block):
        yield (v.T * signs[start:start + block, None, :]) @ v


def _orbit_signs(k: int) -> np.ndarray:
    """The orbit representatives' sign rows: the first c of the k-1 signs
    negative, c = 0..(k-1)//2."""
    c = np.arange((k - 1) // 2 + 1)
    return np.where(np.arange(k - 1) < c[:, None], -1.0, 1.0)


def _orbit_minimum(inst: CounterexampleInstance, budget: int = 20000) -> tuple[float, int]:
    """The exact min over sign patterns of ||sum_i s_i A_{v_i}||, and the
    eigensolves it took: (k-1)//2 + 1.

    Permuting the k-1 vectors permutes coordinates 1..k-1 and leaves the
    family unchanged, so a pattern's norm depends only on its count c of
    minus signs, and a global flip maps c to k-1-c. The minimum is the
    least norm of the real sums with the first c signs negative,
    c = 0..(k-1)//2, eigensolved in blocks of at most WALK_BLOCK_BYTES.
    Refuses when the eigensolves exceed ``budget``."""
    counts = (inst.k - 1) // 2 + 1
    if counts > budget:
        raise BudgetExceededError(
            f"the orbit minimum needs {counts} eigensolves, over the budget {budget}")
    v = inst.normalized.vectors.real
    return min(float(_opnorm(s).min()) for s in _signed_sums(v, _orbit_signs(inst.k))), counts


def _orbit_witness(inst: CounterexampleInstance) -> np.ndarray:
    """The witness table (k, 3): row c holds (p_c, q_c, e_c), the unit
    vector x_s = p_c + q_c s_j on coordinate j < k-1 and e_c on e_k for a
    pattern s with c minus signs (module docstring).

    Rows c <= (k-1)//2 come from one eigh of the orbit representatives:
    the eigenvector of the eigenvalue of largest modulus, averaged over the
    minus and the plus coordinates (which moves it only by rounding when it
    lies in span{1_P, 1_M, e_k}) and renormalized. Row c > (k-1)/2 is the
    global flip of row k-1-c, (p, -q, e): S_s = -S_{-s}, and x_s is the
    witness of -s."""
    k = inst.k
    v = inst.normalized.vectors.real
    signs = _orbit_signs(k)
    x = []
    for sums in _signed_sums(v, signs):
        w, u = _solve(np.linalg.eigh, sums)
        extreme = np.where(abs(w[:, -1]) >= abs(w[:, 0]), -1, 0)
        x.append(u[np.arange(len(w)), :, extreme])
    x = np.concatenate(x)
    c = np.arange(len(signs))
    minus = signs < 0
    a = np.sum(x[:, :-1] * minus, axis=1) / np.maximum(c, 1)
    b = np.sum(x[:, :-1] * ~minus, axis=1) / (k - 1 - c)
    e = x[:, -1]
    norm = np.sqrt(c * a * a + (k - 1 - c) * b * b + e * e)
    half = np.column_stack([(a + b) / 2, (b - a) / 2, e]) / norm[:, None]
    flips = half[k - 1 - np.arange(len(half), k)] * [1.0, -1.0, 1.0]
    return np.vstack([half, flips])


def _uncertified_patterns(v: np.ndarray, witness: np.ndarray,
                          t: float) -> tuple[np.ndarray, np.ndarray]:
    """The sign patterns (s_0 = +1) of real vectors v (k-1, k) whose witness
    quotient |q_s| is not above t (a NaN included), as an (m, k-1) array,
    and the norms of their explicit sums, eigensolved.

    ``witness`` is a (k, 3) table as _orbit_witness makes. The patterns are
    walked in the blocks of engines._sign_blocks over the columns of V',
    the first k-1 columns of V: a block's high signs h and its table of
    low-sign sums L give V's = V'_high h + L, and with it every q_s of the
    block at once (module docstring)."""
    n = len(v)
    head, tail = v[:, :n], v[:, n]
    base = witness[:, :1] * head.sum(axis=1) + witness[:, 2:] * tail  # p_c r + e_c w
    low, table, blocks = _sign_blocks(np.ascontiguousarray(head.T))
    split = n - low.shape[1]
    low_minus, low_signs = np.count_nonzero(low < 0, axis=1), low.astype(float)
    kept = [np.zeros((0, n), dtype=np.int64)]
    # two table-sized buffers per walk: fresh ones per block would fault
    # their pages in again (see engines._walk_screen)
    z, gathered = np.empty_like(table), np.empty_like(table)
    for high, _ in blocks:
        c = low_minus + np.count_nonzero(high < 0)
        np.add(table, head[:, :split] @ high, out=z)  # V's
        z *= witness[c, 1:2]
        # c is in range; the default mode="raise" would buffer ``out``
        z += np.take(base, c, axis=0, out=gathered, mode="clip")
        z *= z
        quotient = z[:, :split] @ high + np.einsum("ij,ij->i", z[:, split:], low_signs)
        rows = np.flatnonzero(~(np.abs(quotient) > t))  # NaN certifies nothing
        if rows.size:
            kept.append(_block_signs(high, low, rows))
    signs = np.concatenate(kept)
    return signs, np.concatenate([np.zeros(0)] + [_opnorm(s) for s in _signed_sums(v, signs)])


def verify_counterexample(
    inst: CounterexampleInstance, mode: str = "exhaustive", seed: int = 0, budget: int = 20000
) -> VerificationReport:
    """Check the family's headline claims.

    Both modes report the exact minimum m over the 2^(k-2) sign patterns of
    ||sum_i s_i A_{v_i}|| from _orbit_minimum's (k-1)//2 + 1 eigensolves,
    and assert it is at least the closed-form floor. Heuristic mode takes
    the symmetry on trust and only refuses when the orbit exceeds the
    budget. Exhaustive mode checks it: it refuses when 2^(k-2) exceeds the
    budget (k <= 16 under the default budget), and proves each pattern's
    norm above t = m - WALK_ETA sum_i ||v_i||^2 by its Rayleigh witness or,
    failing that, by eigensolving its sum (module docstring). Its claim
    ``no_pattern_below_orbit_minimum`` asserts that no pattern's norm is
    below t, and the reported minimum is the least of m and those norms.
    Its report carries ``patterns_certified``, the patterns proven at or
    above t, and ``eigensolves``: the orbit's eigvalsh, the witness's eigh
    of the same (k-1)//2 + 1 sums, and one per pattern no witness
    certifies. Heuristic mode's ``eigensolves`` is the orbit's alone.

    The closed-form subset claim checks all 2^(k-1) subsets for k <= 12 and
    256 seeded ones above: drawn as bitmasks up to k = 64, and as 0/1
    indicator rows beyond, where a bitmask no longer fits in an int64.
    """
    k = inst.k
    lb = signed_norm_lower_bound(k)
    counters: dict = {}
    claims = []
    if mode == "exhaustive":
        # refused here, before the orbit's eigensolves
        if 2 ** (k - 2) > budget:
            raise BudgetExceededError(
                f"the sign walk needs 2^{k - 2} patterns, over the budget {budget}")
        min_norm, orbit_solves = _orbit_minimum(inst, budget)
        t = min_norm - WALK_ETA * float(np.sum(inst.normalized.norms_squared()))
        _, norms = _uncertified_patterns(inst.normalized.vectors.real, _orbit_witness(inst), t)
        below = norms[norms < t]
        min_norm = min(min_norm, float(below.min(initial=math.inf)))
        counters = {"patterns_certified": 2 ** (k - 2) - below.size,
                    "eigensolves": 2 * orbit_solves + norms.size}
        claims.append(Claim("no_pattern_below_orbit_minimum", computed=float(below.size),
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
