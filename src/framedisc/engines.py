"""Constructive discrepancy engines and search machinery.

* Beck-Fiala iterative rounding on coordinate profiles (l-infinity
  discrepancy <= 2 for columns of l1 mass <= 1).
* Exhaustive sign search (Gray-code enumeration with incremental operator
  updates) and exhaustive / simulated-annealing partition search for the
  min-max subset frame bound.
* One blocked Gray-code walker serves the exhaustive sign search and the
  n <= 20 branch of the Banaszczyk sign search. It builds the signed sums
  of a block of consecutive patterns with one cumulative sum; a block
  array holds at most WALK_BLOCK_BYTES (256 KB). The Banaszczyk branch
  takes every sum's norm with one batched eigensolve per block. Real input
  is walked in real arithmetic, and the sign search on n < k vectors walks
  the n x n Gram form instead.
* The exhaustive sign search eigensolves only the sums that can tie or
  beat the incumbent, the smallest norm eigensolved so far. The first
  block is eigensolved whole. In each later block a sum S is dropped when
  a batched LAPACK Cholesky factorization of t I - S, or then of t I + S,
  fails, with t = incumbent + eta sum_i ||v_i||^2 and eta = WALK_ETA
  (1e-9); the survivors are eigensolved as before. A failed factorization
  puts an eigenvalue of S outside (-t, t) up to Cholesky's backward error
  c k eps (t + ||S||) <= 2 c k eps sum_i ||v_i||^2, and eigvalsh is off by
  at most c k eps ||S||; both are far below eta sum_i ||v_i||^2, so a
  dropped sum's computed norm exceeds the incumbent, which is at least the
  final minimum: it can neither win nor tie. A batched eigensolve gives
  each matrix the bits it gets alone, so the minimum and its
  lexicographically smallest witness are bitwise those of eigensolving
  every sum. The margin scales with sum_i ||v_i||^2 rather than with the
  incumbent, which can be a rounding residue (duplicated vectors give
  minima of 1e-16). Near-ties of the incumbent survive, so a block is
  certified only when at most half of the previous block's eigensolved
  sums lay below the new threshold; when almost every pattern ties the
  walk eigensolves every block, as before. Nor is a walk whose M_i are all
  diagonal (each vector on one coordinate, such as np.eye(n)) ever
  certified: the eigensolve of a diagonal sum is as cheap as a Cholesky
  factorization, so ruling sums out cannot pay.
* One exact partition search serves both the partition search (parts
  scored by their frame bound) and the paving search behind
  ``search --kind pave`` (parts scored by ||A[S, S]||). It is a depth-first
  branch and bound over restricted-growth prefixes, so each partition into
  at most r parts is reached at most once. Its precondition is that a part
  score is monotone under inclusion: a frame bound grows because each
  vector adds a PSD term, ||A[S, S]|| by Cauchy interlacing. A prefix whose
  largest partial part score exceeds the best leaf so far by more than
  PRUNE_MARGIN (1e-12) of it is pruned; the margin absorbs the few ulps by
  which a superset's computed score can fall below its subset's. The walk
  counts the prefixes (nodes) it visits, and a budget caps them.
* Matroid union augmentation deciding whether a vector family splits into
  r parts each spanning C^k, with a counting certificate on failure. One
  elimination per part, of its members followed by all n vectors and
  pivoting among the members only, answers every (element, part) exchange
  query until that part changes; the certificate's closure test is one
  such elimination too. An element that fails to insert is never retried:
  the union matroid's span only grows as elements are placed. A budget
  caps the exchange queries.
* Gaussian median radius of the operator norm on self-adjoint matrices and
  a sign search keeping signed sums inside operator-norm radius 5R. For
  2 <= k <= RADIUS_CERTIFY_MAX_K the median is a certified selection: it
  returns the bits of np.median over every sample's eigensolved norm but
  eigensolves only a pilot and the samples that can be the median. The
  exact norms of the first p ~ (z n / 2)^(2/3) of n samples give a bracket
  [t_lo, t_hi] at pilot ranks p/2 -+ z sqrt(p)/2 (z = RADIUS_Z). Every
  other sample H is placed by unpivoted Cholesky factorizations of
  t I -+ H: both succeed at t_lo (1 - eta) => its computed norm is below
  t_lo; either fails at t_hi (1 + eta) => above t_hi. The margin
  eta = RADIUS_ETA (1e-9) is far above the k * eps backward error of
  Cholesky and of the eigensolver. The remaining candidates C are
  eigensolved. With B samples certified below and i, j the median ranks
  minus B, the sorted candidate norms c_i, c_j are the full sample's order
  statistics at the median ranks when 0 <= i <= j < |C|, c_i >= t_lo and
  c_j <= t_hi: certified-below values are < t_lo <= c_i, and
  certified-above values are > t_hi >= c_j. A batched eigensolve gives
  each matrix the bits it gets alone, so c_i and c_j carry the bits of the
  all-samples computation, and they are averaged as np.median does. On a
  bracket miss (probability about 2 Phi(-z)) the pass reruns with every
  sample a candidate, which is the all-samples computation. Above
  RADIUS_CERTIFY_MAX_K every sample is a candidate from the start.
* One branch and bound for every k brackets the subset frame bound, the
  sup of f(u) = u* S u = sum_{i in X} |<u, v_i>|^2 over unit u in C^k. Up
  to phase, u has Hopf coordinates theta in [0, pi/2]^(k-1) and phi in
  [0, 2 pi]^(k-1): u_1 = cos theta_1, u_{j+1} = sin theta_1 ... sin theta_j
  cos theta_{j+1} e^{i phi_j} (cos theta_k read as 1). Its coordinate
  columns are orthogonal in R^(2k): a theta column is the real spherical
  one times each entry's phase, and du/dphi_j = i u_{j+1} e_{j+1} meets
  another column in one entry at most, where Re(i a m) = 0 for real a, m.
  Their norms, prod_{l<i} sin theta_l and |u_{j+1}|, are at most w on a
  box (sines at its upper theta ends, cosines at its lower), so each point
  of a box with half-widths h lies within r = ||w h||_2 of the centre's
  point c. For unit u = c + d, 2 Re <d, c> = -||d||^2, so with
  g = S c - f(c) c and L >= lambda_max(S),
  f(u) = f(c) + 2 Re <d, g> + d* S d - f(c) ||d||^2
       <= f(c) + 2 ||g|| r + max(L - f(c), 0) r^2 (+ 1e-12 L for rounding),
  with L = min(tr S, max row sum of |S|) (1 + 1e-12). Each round scores
  every open centre, drops the boxes bounded by best + gap and halves the
  rest along their largest w_i h_i; then best <= sup f <= best + gap.

Tie rules of the exact searches: the sign search fixes s_0 = +1 and returns
the lexicographically smallest optimal sign vector; the exhaustive branch
of the Banaszczyk search returns the first pattern in Gray order within M
among the first ``budget`` patterns.
The partition and paving searches return the lexicographically smallest
optimal assignment. Each distinct part is scored once, so a partition and
its relabelings tie exactly, and the first of them, the restricted-growth
string, is the one the walk visits. Leaves are reached in lexicographic
order and accepted only on a strict improvement, and pruning drops only
prefixes that no leaf below can strictly improve on, so the winner and
its value are those of scoring every restricted-growth string.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError
from .frames import (Partition, PartitionCertificate, VectorSystem, _unit_ball_norms,
                     partition, partition_certificate)
from .linalg import _cholesky_factors, _opnorm, _solve, as_hermitian, rank_one
from .reductions import paving_quality
from .rng import make_rng


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class SignVector:
    """n signs, each +1 or -1."""

    signs: np.ndarray

    @property
    def n(self) -> int:
        return self.signs.size


@dataclass(frozen=True)
class CoordinateProfile:
    """Rows a_i in R^k with a_i[j] = |<e_j, v_i>|^2; each row has l1 mass <= 1."""

    a: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def k(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class BanaszczykContext:
    """Empirical median radius of the Gaussian operator-norm distribution
    on self-adjoint k x k matrices, and the balancing radius M = 5 R."""

    k: int
    R_hat: float
    M: float
    samples: int
    seed: int
    eigensolves: int


@dataclass(frozen=True)
class ViolatingSet:
    """Certificate that no partition into r spanning parts exists: with
    d = dim span of the complement, r*(k - d) > |X|."""

    indices: tuple
    complement_rank: int
    r: int
    k: int

    def deficiency(self) -> int:
        return self.r * (self.k - self.complement_rank) - len(self.indices)


@dataclass(frozen=True)
class SignSearchFailure:
    """Budgeted sign search ended without certifying the target; carries
    the best value and witness found."""

    best_value: float
    best_signs: SignVector
    evaluations: int


# ---------------------------------------------------------------------------
# Beck-Fiala


def coordinate_profile(vs: VectorSystem) -> CoordinateProfile:
    """Entrywise squared moduli of the system's vectors."""
    _unit_ball_norms(vs)
    return CoordinateProfile(a=np.abs(vs.vectors) ** 2)


def _row_reduce(m: np.ndarray, tol: float, ncols: int | None = None) -> tuple[np.ndarray, list]:
    """Reduced row echelon form of m by Gauss-Jordan elimination with partial
    pivoting, and its pivot columns (pivots[row] = col). A pivot is accepted
    when its modulus exceeds tol. Real input stays real, complex stays complex.

    With ``ncols``, pivots are sought only among the first ncols columns, but
    every row operation still acts on all columns. Row operations act on each
    column separately, so any later column ends up exactly as it would if it
    were the only column after the first ncols.

    Each pivot updates the whole table in place, m -= m[:, col, None] *
    pivot_row with a copy of the pivot row, and then writes that copy back
    over the pivot row's own (discarded) result. Every other row gets the
    one product and one subtraction per entry that
    m[others] -= np.outer(m[others, col], pivot_row) makes, so values,
    signed zeros and pivots are bitwise those of that masked update, without
    copying the other rows out through a mask and back."""
    m = np.array(m, dtype=np.result_type(m, np.float64))
    rows, cols = m.shape
    pivots: list = []
    for col in range(cols if ncols is None else ncols):
        row = len(pivots)
        if row >= rows:
            break
        p = int(np.argmax(np.abs(m[row:, col]))) + row
        if abs(m[p, col]) <= tol:
            continue
        if p != row:
            m[[row, p]] = m[[p, row]]
        m[row] /= m[row, col]
        pivot_row = m[row].copy()
        m -= m[:, col, None] * pivot_row
        m[row] = pivot_row
        pivots.append(col)
    return m, pivots


def beck_fiala_signs(profile: CoordinateProfile) -> SignVector:
    """Signs with || sum_i s_i a_i ||_inf <= 2 for rows of l1 mass <= 1.

    Classical iterative rounding: fractional signs start at 0; coordinates
    whose floating l1 mass exceeds 1 are held constant by moving along a
    nullspace direction of the active constraint block until some variable
    hits +-1 and freezes.
    """
    a = profile.a
    if np.any(a < -1e-15):
        raise InvalidParameterError("coordinate profile entries must be nonnegative")
    if np.any(a.sum(axis=1) > 1 + 1e-12):
        raise InvalidParameterError("coordinate profile rows must have l1 mass <= 1")
    c = a.T  # constraint rows are coordinates, columns are sign variables
    n = profile.n
    x = np.zeros(n)
    floating = np.ones(n, dtype=bool)
    for _ in range(n + 1):
        fl = np.flatnonzero(floating)
        if fl.size == 0:
            break
        mass = c[:, fl].sum(axis=1)
        active = np.flatnonzero(mass > 1 + 1e-12)
        if active.size == 0:
            x[fl] = np.where(x[fl] >= 0, 1.0, -1.0)
            floating[fl] = False
            break
        if active.size >= fl.size:
            raise RuntimeError(
                "Beck-Fiala invariant violated: active rows >= floating variables"
            )
        # a nullspace direction of the active block (fewer rows than columns)
        red, pivots = _row_reduce(c[np.ix_(active, fl)], 1e-11)
        free = next(j for j in range(fl.size) if j not in pivots)
        d = np.zeros(fl.size)
        d[free] = 1.0
        d[pivots] = -red[:len(pivots), free]
        moving = np.abs(d) > 1e-14
        steps = np.where(d > 0, (1.0 - x[fl]) / np.where(moving, d, 1.0),
                         (-1.0 - x[fl]) / np.where(moving, d, 1.0))
        t = np.min(steps[moving])
        x[fl] += t * d
        hit = fl[np.abs(x[fl]) >= 1.0 - 1e-12]
        x[hit] = np.where(x[hit] >= 0, 1.0, -1.0)
        floating[hit] = False
    if floating.any():
        raise RuntimeError("Beck-Fiala rounding failed to freeze all variables")
    signs = np.where(x >= 0, 1, -1).astype(np.int64)
    disc = float(np.max(np.abs(c @ signs)))
    if disc > 2 + 1e-9:
        raise RuntimeError(f"Beck-Fiala bound violated: discrepancy {disc:.12g} > 2")
    return SignVector(signs=signs)


# ---------------------------------------------------------------------------
# exhaustive and annealed searches


# Byte cap of each (B, k, k) block of signed sums the sign walker builds:
# large enough to amortise the per-call cost of the eigensolver, small
# enough to keep the walk's peak memory flat.
WALK_BLOCK_BYTES = 1 << 18
# The sign search rules a pattern out once Cholesky proves its norm above
# the incumbent plus this share of sum_i ||v_i||^2 (see the module docstring).
WALK_ETA = 1e-9


def _real_if_real(a: np.ndarray) -> np.ndarray:
    """a as float64 when no entry has an imaginary part, else a unchanged."""
    return np.ascontiguousarray(a.real) if np.iscomplexobj(a) and not a.imag.any() else a


def _gray_blocks(mats: np.ndarray, count: int | None = None):
    """Yield (signs, sums) blocks covering sum_i s_i M_i for the first
    ``count`` (default all 2^(n-1)) sign patterns with s_0 = +1, in
    Gray-code order.

    Pattern t has gray(t) = t ^ (t >> 1), and s_{i+1} = -1 iff bit i of
    gray(t) is set, so consecutive patterns differ in one sign. A block's
    sums are the running sum (np.cumsum in place, seeded with the previous
    block's last sum) of its -+2 M_i steps, which adds the same numbers in
    the same order as a one-pattern-at-a-time walk. ``signs`` is (B, n) and
    ``sums`` is (B, k, k), with B * k * k * itemsize <= WALK_BLOCK_BYTES
    unless B = 1.
    """
    n, k = mats.shape[0], mats.shape[-1]
    total = 2 ** (n - 1) if count is None else min(count, 2 ** (n - 1))
    size = max(1, WALK_BLOCK_BYTES // (k * k * mats.itemsize))
    bits = np.arange(n - 1, dtype=np.int64)
    last = None
    for start in range(0, total, size):
        t = np.arange(start, min(start + size, total), dtype=np.int64)
        signs = np.ones((t.size, n), dtype=np.int64)
        signs[:, 1:] -= 2 * ((t ^ (t >> 1))[:, None] >> bits & 1)
        # step t > 0 flips sign i, where bit i - 1 is the lowest set bit of t
        flip = np.frexp(t & -t)[1]
        sums = np.take(mats, flip, axis=0)
        sums *= 2 * signs[np.arange(t.size), flip][:, None, None]
        if last is None:
            sums[0] = np.sum(mats, axis=0)
        else:
            sums[0] += last
        np.cumsum(sums, axis=0, out=sums)
        last = sums[-1].copy()
        yield signs, sums


def exhaustive_sign_search(vs: VectorSystem, budget: int = 2**23,
                           counters: dict | None = None) -> tuple[SignVector, float]:
    """Global minimum over sign patterns of ||sum_i s_i A_{v_i}||.

    The first sign is fixed +1 (global flip symmetry), so the walk covers
    2^(n-1) patterns; it refuses when that exceeds ``budget`` (the default
    reaches n = 24). Enumeration walks a Gray code in blocks (see
    _gray_blocks). Ties go to the lexicographically smallest sign vector.
    Real vectors are walked in real arithmetic, and when n < k the walk runs
    on the columns g_i of G^(1/2), G the n x n Gram matrix, since
    ||sum_i s_i v_i v_i*|| = ||G^(1/2) S G^(1/2)||.

    Only the patterns that a Cholesky certificate cannot rule out are
    eigensolved (see the module docstring); the minimum and its witness
    are those of eigensolving every pattern. ``counters``, if given,
    receives ``eigensolves``: the matrices eigensolved, the Gram square
    root's included.
    """
    n = vs.n
    if 2 ** (n - 1) > budget:
        raise BudgetExceededError(
            f"exhaustive sign search needs 2^{n - 1} evaluations, over the budget {budget}"
        )
    vecs = _real_if_real(vs.vectors)
    solves = 0
    if n < vs.k:
        w, u = _solve(np.linalg.eigh, vecs.conj() @ vecs.T)
        vecs = ((u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T).T
        solves = 1
    mats = vecs[:, :, None] * vecs.conj()[:, None, :]  # rank_one of each row
    # sum_i ||v_i||^2 bounds every ||sum_i s_i M_i||, and with it the
    # backward errors of both Cholesky and the eigensolver
    margin = WALK_ETA * float(np.sum(np.abs(vecs) ** 2))
    eye = np.eye(mats.shape[-1])
    # when every M_i is diagonal so is every sum, and its eigensolve costs no
    # more than a Cholesky factorization: such walks are never certified
    dense = np.count_nonzero(mats) > np.count_nonzero(np.diagonal(mats, axis1=1, axis2=2))
    best_val, best_signs, certify = np.inf, None, False
    for signs, sums in _gray_blocks(mats):
        patterns, t = len(sums), best_val + margin
        if certify:
            keep = np.flatnonzero(_cholesky_factors(t * eye - sums))
            keep = keep[_cholesky_factors(sums[keep] + t * eye)]
            signs, sums = signs[keep], sums[keep]
        if len(sums):
            vals = _opnorm(sums)
            solves += len(sums)
            val = vals.min()
            if val <= best_val:
                key = min(map(tuple, signs[vals == val].tolist()))
                if val < best_val or key < best_signs:
                    best_val, best_signs = val, key
            # near-ties of the incumbent are not ruled out, so certifying
            # pays only while they are at most half of a block
            certify = dense and 2 * np.count_nonzero(vals < best_val + margin) <= patterns
    if counters is not None:
        counters["eigensolves"] = solves
    return SignVector(signs=np.array(best_signs, dtype=np.int64)), float(best_val)


# A prefix is pruned once its score exceeds the incumbent by more than this
# share of it: a superset's computed score can be a few ulps below its
# subset's, and pruning on a bare ">" could then drop an optimal leaf.
PRUNE_MARGIN = 1e-12


def _min_max_partition(n: int, r: int, empty, grow, part_score, limit: int,
                       budget: int | None = None, counters: dict | None = None) -> Partition:
    """Lexicographically first assignment of 0..n-1 to r parts minimizing
    max_j of its parts' scores; the empty part scores 0.

    A part is scored from a state: the empty part's state is ``empty``,
    grow(state, i) is the state of the part with index i added, i above
    every index already in it, and part_score(state) is the part's score.
    A part's state is therefore always grown through its indices in
    increasing order, whichever prefix reaches it. The winner is optimal
    for the scores as computed: where the state is a floating-point sum
    (exhaustive_partition_search's frame operators), scores can differ by
    a few ulps from another way of computing them, and on exact ties
    another, equally optimal partition can come first.

    Precondition: the score is monotone under inclusion (S <= T implies
    score(S) <= score(T), up to rounding).

    An assignment's value depends only on its parts, so the lexicographically
    first optimal assignment is the first relabeling of its partition, a
    restricted-growth string (a_0 = 0, a_i <= max(a_<i) + 1). A depth-first
    branch and bound walks their prefixes in lexicographic order. A prefix's
    bound is the max score of its partial parts, which by monotonicity no
    completion goes below; the prefix is dropped once that bound exceeds the
    best leaf so far by more than PRUNE_MARGIN of it. A leaf is accepted
    only on a strict improvement, so the walk returns what scoring every
    restricted-growth string would. Scores are cached by the part's bitmask,
    so each distinct part is scored once and a leaf's value is the same float
    whichever path reached it. A part's state is grown only where the walk
    scores the part or extends the prefix below it. The walk runs under
    np.errstate(all="ignore"), so that an eigensolve scoring a part fails
    with _opnorm's EigensolverError alone.

    Refuses up front when r^n exceeds ``limit``, and raises
    BudgetExceededError when the walk would visit more than ``budget``
    prefixes (nodes). ``counters``, if given, receives ``nodes_visited`` and
    ``parts_scored``.
    """
    if r < 1:
        raise InvalidParameterError(f"part count must be >= 1, got {r}")
    if r**n > limit:
        raise BudgetExceededError(
            f"exhaustive partition search refuses r^n = {r}^{n} > limit = {limit}"
        )
    scores = {0: 0.0}  # at most min(2^n, r^n) entries
    masks = [0] * r  # bitmask of each part of the current prefix
    states = [empty] * r  # the state of each part of the current prefix
    current = [0.0] * r  # scores[masks[j]]
    assign = [0] * n
    best_val, best_assign = math.inf, None
    nodes = 0

    def visit(i: int, used: int) -> None:
        """Extend the prefix a_0..a_(i-1), which uses labels < used, by a_i."""
        nonlocal best_val, best_assign, nodes
        for j in range(min(used + 1, r)):
            if budget is not None and nodes >= budget:
                raise BudgetExceededError(
                    f"exhaustive partition search visits more than budget = {budget} nodes"
                )
            nodes += 1
            old_mask, old_score, old_state = masks[j], current[j], states[j]
            mask = masks[j] = old_mask | 1 << i
            state = None
            score = scores.get(mask)
            if score is None:
                state = grow(old_state, i)
                score = scores[mask] = part_score(state)
            current[j] = score
            bound = max(current)
            assign[i] = j
            if i + 1 == n:
                if bound < best_val:
                    best_val, best_assign = bound, list(assign)
            elif bound <= best_val + PRUNE_MARGIN * best_val:
                states[j] = grow(old_state, i) if state is None else state
                visit(i + 1, max(used, j + 1))
            masks[j], current[j], states[j] = old_mask, old_score, old_state

    try:
        with np.errstate(all="ignore"):
            visit(0, 0)
    finally:
        if counters is not None:
            counters.update(nodes_visited=nodes, parts_scored=len(scores) - 1)
    return partition(r, best_assign)


def exhaustive_partition_search(
    vs: VectorSystem, r: int, N: float, limit: int = 2**24,
    budget: int | None = None, counters: dict | None = None,
) -> PartitionCertificate:
    """Globally minimal max_j subset frame bound over all r^n assignments.

    Lexicographically smallest optimal assignment wins ties. Refuses when
    r^n exceeds the enumeration limit or the walk exceeds ``budget`` nodes
    (see _min_max_partition, which also fills ``counters``). A part's frame
    bound can only grow as vectors join it, since each adds a PSD term.

    The walk scores a part by the operator norm of its frame operator
    summed term by term, ((v_a v_a* + v_b v_b*) + ...) for a < b < ...,
    each part's sum grown from its parent part's. That sum can differ from
    a matrix product by a few ulps, so where different partitions are
    optimal in exact arithmetic (duplicated vectors, say) the winner is the
    lexicographically first partition that is optimal as computed here.
    """
    terms = list(vs.vectors[:, :, None] * vs.vectors.conj()[:, None, :])  # rank_one of each row
    part = _min_max_partition(vs.n, r, np.zeros((vs.k, vs.k), dtype=np.complex128),
                              lambda s, i: s + terms[i], _opnorm, limit, budget, counters)
    return partition_certificate(vs, part, N)


def _paving_search(a, r: int, limit: int, budget: int | None = None,
                   counters: dict | None = None) -> tuple[Partition, float]:
    """Exhaustive min over r^n partitions of max_j ||Q_j A Q_j||: the
    lexicographically smallest optimal partition and its paving quality.
    ||A[S, S]|| can only grow with S, by Cauchy interlacing, so the
    branch and bound of _min_max_partition applies. A part's state is its
    index list, and A[S, S] is an exact gather."""
    a = as_hermitian(a)
    part = _min_max_partition(a.shape[0], r, [], lambda idx, i: idx + [i],
                              lambda idx: _opnorm(a[idx][:, idx]), limit, budget, counters)
    return part, paving_quality(a, part)


@dataclass(frozen=True)
class AnnealSchedule:
    """Simulated annealing schedule: step count, initial temperature, and
    per-step geometric cooling factor."""

    steps: int = 2000
    t0: float = 0.5
    cooling: float = 0.995


def anneal_partition_search(
    vs: VectorSystem, r: int, N: float, seed: int, schedule: AnnealSchedule | None = None
) -> PartitionCertificate:
    """Heuristic partition search; deterministic given (seed, schedule).

    Single-index moves with Metropolis acceptance under geometric cooling;
    the best assignment ever seen is returned, so the result is never worse
    than the seeded initial random partition. Not claimed optimal.
    """
    if r < 2:
        raise InvalidParameterError(f"annealing needs r >= 2, got {r}")
    schedule = schedule or AnnealSchedule()
    rng = make_rng(seed)
    n = vs.n
    mats = np.stack([rank_one(v) for v in vs.vectors])
    assignment = rng.integers(0, r, size=n)
    sums = np.stack([mats[assignment == j].sum(axis=0) if np.any(assignment == j)
                     else np.zeros((vs.k, vs.k), dtype=np.complex128) for j in range(r)])

    def value(ss):
        return max(_opnorm(s) for s in ss)

    with np.errstate(all="ignore"):  # _opnorm's single-matrix kernel, once
        cur = value(sums)
        best_val, best_assign = cur, assignment.copy()
        temp = schedule.t0
        for _ in range(schedule.steps):
            i = int(rng.integers(0, n))
            old = int(assignment[i])
            new = int(rng.integers(0, r - 1))
            if new >= old:
                new += 1
            sums[old] -= mats[i]
            sums[new] += mats[i]
            cand = value(sums)
            delta = cand - cur
            if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-12)):
                assignment[i] = new
                cur = cand
                if cur < best_val:
                    best_val, best_assign = cur, assignment.copy()
            else:
                sums[old] += mats[i]
                sums[new] -= mats[i]
            temp *= schedule.cooling
    part = partition(r, best_assign)
    return partition_certificate(vs, part, N)


# ---------------------------------------------------------------------------
# matroid spanning partition


def _rank_tol(vs: VectorSystem) -> float:
    norms = np.sqrt(vs.norms_squared())
    return 1e-10 * float(max(np.max(norms), 1e-30))


def matroid_spanning_partition(vs: VectorSystem, r: int, budget: int | None = None,
                               counters: dict | None = None):
    """Partition into r parts each spanning C^k, or a ViolatingSet.

    Matroid union augmentation (Edmonds) over r copies of the linear matroid
    of the vectors: each element is inserted via an augmenting exchange path
    when possible. A part's table is one elimination of [members | all n
    vectors] that pivots among the members only; v_z's column of it holds
    what eliminating [members | v_z] would leave there, and answers both
    questions about (z, part): an entry above tol below the pivot rows means
    z can join the part; otherwise the entries in the pivot rows are the
    coordinates of v_z in the part's basis, and z can replace exactly the
    members with a nonzero coordinate. A table is built when a search first
    queries its part and dropped when the part changes, by an insertion or
    an exchange along an augmenting path. Success means r disjoint bases
    were assembled (leftover elements go to part 0). The placed elements
    only grow, so their span in the union matroid only grows, and an element
    that cannot be inserted once never can be later; it is not retried. The
    closure of the set reachable from all unplaceable elements then yields X
    with r*(k - d) > |X| for d the span dimension of the complement of X;
    one table of the reachable set decides the closure for every element.

    Raises BudgetExceededError when the searches would examine more than
    ``budget`` (element, part) pairs. ``counters``, if given, receives
    ``exchange_queries`` (the pairs examined) and ``eliminations`` (the
    _row_reduce calls).
    """
    if r < 2:
        raise InvalidParameterError(f"need r >= 2, got {r}")
    n, k = vs.n, vs.k
    tol = _rank_tol(vs)
    cols = vs.vectors.T  # column i is vector i
    norms = np.sqrt(vs.norms_squared())
    tally = counters if counters is not None else {}
    tally.update(exchange_queries=0, eliminations=0)

    def eliminate(idxs, ncols=None):
        tally["eliminations"] += 1
        return _row_reduce(cols[:, idxs], tol, ncols)

    def table(members):
        """(reduced [members | all n vectors], pivots); column len(members) + z
        belongs to v_z."""
        return eliminate(members + list(range(n)), len(members))

    parts: list[set] = [set() for _ in range(r)]
    tables: list = [None] * r  # (members, reduced, pivots) of each part, or None
    placed: dict[int, int] = {}

    def search(sources):
        """BFS over exchange arcs z -> y (z can replace y in part label[y])
        from the sources. Returns (parent, label, sink, sink_part); sink is the
        first element reached that can join part sink_part, or None."""
        parent = dict.fromkeys(sources)
        label = {}
        queue = deque(sources)
        while queue:
            z = queue.popleft()
            for j in range(r):
                if z in parts[j]:
                    continue
                if budget is not None and tally["exchange_queries"] >= budget:
                    raise BudgetExceededError(
                        f"matroid partition examines more than budget = {budget} "
                        f"exchange queries"
                    )
                tally["exchange_queries"] += 1
                if tables[j] is None:
                    members = list(parts[j])
                    tables[j] = (members, *table(members))
                members, red, pivots = tables[j]
                col = red[:, len(members) + z]
                if np.any(np.abs(col[len(pivots):]) > tol):
                    return parent, label, z, j
                for row, c in enumerate(pivots):
                    y = members[c]
                    if y not in parent and abs(col[row]) * norms[y] > tol:
                        parent[y] = z
                        label[y] = j
                        queue.append(y)
        return parent, label, None, None

    unplaced = []
    for x in range(n):
        if len(placed) == r * k:
            break
        parent, label, cur, j = search([x])
        if cur is None:
            unplaced.append(x)
            continue
        parts[j].add(cur)
        tables[j] = None
        placed[cur] = j
        while parent[cur] is not None:
            prev = parent[cur]
            j = label[cur]
            parts[j].remove(cur)
            parts[j].add(prev)
            tables[j] = None
            placed[prev] = j
            cur = prev

    if len(placed) == r * k:
        assignment = np.zeros(n, dtype=np.int64)
        for elem, j in placed.items():
            assignment[elem] = j
        if any(len(eliminate(sorted(part_set))[1]) != k for part_set in parts):
            raise RuntimeError("internal error: assembled part does not span C^k")
        return partition(r, assignment)

    reach, _, sink, _ = search(unplaced)
    if sink is not None:
        raise RuntimeError("internal error: an unplaced element became insertable")
    base = sorted(reach)
    red, pivots = table(base)
    d = len(pivots)
    raises_rank = np.any(np.abs(red[d:, len(base):]) > tol, axis=0)
    in_closure = np.array([z in reach for z in range(n)]) | ~raises_rank
    x_set = tuple(int(i) for i in np.flatnonzero(~in_closure))
    violation = ViolatingSet(indices=x_set, complement_rank=d, r=r, k=k)
    if violation.deficiency() <= 0:
        raise RuntimeError("internal error: certificate does not violate the count")
    return violation


# ---------------------------------------------------------------------------
# Banaszczyk radius and sign balancing


# Gaussian median radius: the certified selection (see the module
# docstring). On a 2-vCPU x86 host the Cholesky tests stop paying for
# themselves past k = 12 at 2,000 samples (past k ~ 22 at 20,000 samples,
# past k ~ 9 at 1,000), so larger k eigensolves every sample. RADIUS_Z is the pilot bracket's
# half-width in binomial standard deviations, RADIUS_ETA the relative
# margin of the Cholesky tests.
RADIUS_CERTIFY_MAX_K = 12
RADIUS_Z = 5.0
RADIUS_ETA = 1e-9


def _selfadjoint_draws(k: int, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``count`` standard Gaussian self-adjoint k x k matrices,
    in the one order they are drawn: diag (count, k) ~ N(0, 1), then the
    real and the imaginary part (each N(0, 1/2)) of entry (a, b) for each
    pair a < b in row-major order, as off (k(k-1)/2, 2, count)."""
    diag = rng.standard_normal((count, k))
    off = rng.standard_normal((k * (k - 1) // 2, 2, count)) / np.sqrt(2)
    return diag, off


def _selfadjoint_matrices(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The complex (count, k, k) matrices of entry arrays as drawn by
    ``_selfadjoint_draws``."""
    count, k = diag.shape
    h = np.zeros((count, k, k), dtype=np.complex128)
    idx = np.arange(k)
    h[:, idx, idx] = diag
    for (a, b), (re, im) in zip(zip(*np.triu_indices(k, 1)), off):
        h[:, a, b] = re + 1j * im
        h[:, b, a] = re - 1j * im
    return h


def sample_selfadjoint_gaussian(k: int, count: int, rng) -> np.ndarray:
    """Standard Gaussian on the real space of self-adjoint k x k matrices:
    diagonal entries N(0,1); off-diagonal real and imaginary parts N(0, 1/2),
    so the Hilbert-Schmidt norm is the Euclidean norm of the Gaussian."""
    return _selfadjoint_matrices(*_selfadjoint_draws(k, count, rng))


def _cholesky_succeeds(t: float, sign: int, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Where the unpivoted Cholesky factorization A = R* R of A = t I + sign H
    runs to the end, for a batch of self-adjoint H given by their entry
    arrays with the batch as the last axis: diag (k, c) and off as drawn.
    Real arithmetic on the upper triangle of R. A pivot <= 0 makes every
    later pivot nan or -inf, so the last pivot alone decides."""
    k = diag.shape[0]
    q = {pair: i for i, pair in enumerate(zip(*np.triu_indices(k, 1)))}
    re, im = {}, {}
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(k):
            pivot = t + sign * diag[j]
            for i in range(j):
                pivot -= re[i, j] ** 2 + im[i, j] ** 2
            if j == k - 1:
                return pivot > 0
            inv = 1.0 / np.sqrt(pivot)
            for l in range(j + 1, k):
                x, y = sign * off[q[j, l], 0], sign * off[q[j, l], 1]
                for i in range(j):  # minus conj(R_ij) R_il
                    x -= re[i, j] * re[i, l] + im[i, j] * im[i, l]
                    y -= re[i, j] * im[i, l] - im[i, j] * re[i, l]
                re[j, l], im[j, l] = x * inv, y * inv


def _norm_below(t: float, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Where both t I - H and t I + H factor, so -t < lambda(H) < t. The
    second factorization runs only on the matrices that passed the first."""
    ok = _cholesky_succeeds(t, -1, diag, off)
    idx = np.flatnonzero(ok)
    ok[idx] = _cholesky_succeeds(t, 1, diag[:, idx], off[..., idx])
    return ok


def _pilot_bracket(norms: np.ndarray) -> tuple[float, float]:
    """[t_lo, t_hi] at ranks p/2 -+ z sqrt(p)/2 of p sorted pilot norms."""
    p, half = norms.size, RADIUS_Z * math.sqrt(norms.size) / 2
    return norms[max(0, math.floor(p / 2 - half))], norms[min(p - 1, math.ceil(p / 2 + half))]


def _median_pass(k: int, samples: int, seed: int, certify: bool):
    """One pass of the certified selection (see the module docstring):
    (median or None on a bracket miss, eigensolves). Without ``certify``
    every sample is eigensolved and the median is always found."""
    rng = make_rng(seed)
    chunk = max(1, 2_000_000 // (k * k))
    lo, hi = -np.inf, np.inf
    pilot = min(samples, int((RADIUS_Z * samples / 2) ** (2 / 3)))
    exact, below, done = [], 0, 0
    while done < samples:
        c = min(chunk, samples - done)
        diag, off = _selfadjoint_draws(k, c, rng)
        first = 0
        if certify and done == 0:
            first = min(c, pilot)
            exact.append(np.sort(_opnorm(_selfadjoint_matrices(diag[:first], off[..., :first]))))
            lo, hi = _pilot_bracket(exact[0])
        keep = slice(first, c)
        if certify:
            dg, od = np.ascontiguousarray(diag[keep].T), off[..., keep]
            rest = np.flatnonzero(~_norm_below(lo * (1 - RADIUS_ETA), dg, od))
            below += c - first - rest.size
            keep = first + rest[_norm_below(hi * (1 + RADIUS_ETA), dg[:, rest], od[..., rest])]
        exact.append(_opnorm(_selfadjoint_matrices(diag[keep], off[..., keep])))
        done += c
    exact = np.concatenate(exact)
    i, j = (samples - 1) // 2 - below, samples // 2 - below
    if not 0 <= i <= j < exact.size:
        return None, exact.size
    part = np.partition(exact, (i, j))
    if not (part[i] >= lo and part[j] <= hi):
        return None, exact.size
    return float(np.median(part[i:j + 1])), exact.size


def gaussian_median_radius(k: int, samples: int, seed: int) -> BanaszczykContext:
    """Empirical median of the operator norm of Gaussian self-adjoint
    matrices, and the balancing radius M = 5 R."""
    if k < 1:
        raise InvalidParameterError(f"need k >= 1, got {k}")
    if samples < 1000:
        raise InvalidParameterError(f"need at least 1000 samples, got {samples}")
    if k == 1:  # the norm of a 1 x 1 Gaussian is |g|
        r_hat, solves = float(np.median(np.abs(make_rng(seed).standard_normal(samples)))), 0
    else:
        r_hat, solves = _median_pass(k, samples, seed, certify=k <= RADIUS_CERTIFY_MAX_K)
        if r_hat is None:
            r_hat, more = _median_pass(k, samples, seed, certify=False)
            solves += more
    return BanaszczykContext(k=k, R_hat=r_hat, M=5.0 * r_hat, samples=samples, seed=seed,
                             eigensolves=solves)


def banaszczyk_sign_search(matrices, M: float, budget: int = 20000, seed: int = 0):
    """Signs with ||sum_i s_i B_i|| <= M for Hilbert-Schmidt-small B_i.

    For n <= 20 the first ``budget`` patterns of the Gray code (first sign
    fixed), stopping at the first one within M; otherwise seeded random
    restarts with greedy single flips for ``budget`` evaluations. Both need
    budget >= 1. Existence is guaranteed by Banaszczyk's theorem, but the
    finder only sees the patterns its budget covers, so a SignSearchFailure
    carries the best value found and the number of patterns evaluated.
    """
    mats = [np.asarray(b, dtype=np.complex128) for b in matrices]
    n = len(mats)
    if n == 0:
        raise InvalidParameterError("need at least one matrix")
    for b in mats:
        hs = float(np.linalg.norm(b))
        if not hs <= 0.2 + 1e-12:  # also rejects non-finite entries
            raise InvalidParameterError(
                f"Hilbert-Schmidt norm {hs:.12g} is not at most 1/5; scale inputs first"
            )
    if budget < 1:
        raise InvalidParameterError(f"sign search needs budget >= 1, got {budget}")
    stacked = _real_if_real(np.stack(mats))
    if n <= 20:
        best_val = np.inf
        for signs, sums in _gray_blocks(stacked, count=budget):
            vals = _opnorm(sums)
            hit = np.flatnonzero(vals <= M)
            if hit.size:
                return SignVector(signs=signs[hit[0]])
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val, best_signs = vals[j], signs[j]
        return SignSearchFailure(best_value=float(best_val),
                                 best_signs=SignVector(signs=best_signs),
                                 evaluations=min(budget, 2 ** (n - 1)))
    rng = make_rng(seed)
    best_val, best_signs, evals = np.inf, None, 0
    with np.errstate(all="ignore"):  # _opnorm's single-matrix kernel, once
        while evals < budget:
            signs = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int64)
            s = np.tensordot(signs, stacked, axes=1)
            val = _opnorm(s)
            evals += 1
            improved = True
            while improved and evals < budget:
                improved = False
                for i in range(n):
                    cand = s - 2 * signs[i] * stacked[i]
                    cval = _opnorm(cand)
                    evals += 1
                    if cval < val - 1e-15:
                        s, val = cand, cval
                        signs[i] = -signs[i]
                        improved = True
            if val < best_val:
                best_val, best_signs = val, signs.copy()
            if best_val <= M:
                return SignVector(signs=best_signs)
    return SignSearchFailure(best_value=float(best_val),
                             best_signs=SignVector(signs=best_signs),
                             evaluations=evals)


# ---------------------------------------------------------------------------
# certified subset frame bound


def normalize_phase(u: np.ndarray) -> np.ndarray:
    """Phase-quotient representative: first entry of modulus > 1e-12 made
    real nonnegative."""
    nz = np.flatnonzero(np.abs(u) > 1e-12)
    if nz.size == 0:
        return u
    pivot = u[nz[0]]
    return u * (pivot.conjugate() / abs(pivot))


def _hopf_points(x: np.ndarray) -> np.ndarray:
    """The unit vectors u(theta, phi) of rows x = (theta, phi)."""
    d = x.shape[1] // 2
    u = np.ones((x.shape[0], d + 1), dtype=np.complex128)
    u[:, :d] = np.cos(x[:, :d])
    u[:, 1:] *= np.cumprod(np.sin(x[:, :d]), axis=1) * np.exp(1j * x[:, d:])
    return u


def _box_bounds(s: np.ndarray, lam: float, lo: np.ndarray, hi: np.ndarray):
    """(f, u, bound, w h) of the boxes [lo, hi]: centre points u, their values
    f = u* S u, each box's bound on u* S u given lam >= lambda_max(S), and
    the weighted half-widths, whose norm is the box radius r."""
    m, d = lo.shape[0], lo.shape[1] // 2
    sin_hi = np.cumprod(np.hstack([np.ones((m, 1)), np.sin(hi[:, :d])]), axis=1)
    cos_lo = np.hstack([np.cos(lo[:, 1:d]), np.ones((m, 1))])
    wh = np.hstack([sin_hi[:, :d], sin_hi[:, 1:] * cos_lo]) * (0.5 * (hi - lo))
    r = np.linalg.norm(wh, axis=1)
    u = _hopf_points(0.5 * (lo + hi))
    su = u @ s.T
    # u* S u is real: the real dot product of u and S u read as (re, im) pairs
    f = np.einsum("pj,pj->p", u.view(np.float64), su.view(np.float64))
    g = np.linalg.norm(su - f[:, None] * u, axis=1)
    return f, u, f + 2.0 * g * r + np.maximum(lam - f, 0.0) * r * r + 1e-12 * lam, wh


def certified_subset_bound(vs: VectorSystem, X, gap: float, budget: int = 20000):
    """(lower, upper, evaluations, witness): lower <= sup over unit u of
    sum_{i in X} |<u, v_i>|^2 <= upper = lower + gap, where lower is the
    value at the unit vector witness and evaluations counts the box centres
    scored. Raises BudgetExceededError when they would exceed ``budget``."""
    idx = np.asarray(sorted(X), dtype=np.int64)
    if idx.size and (idx[0] < 0 or idx[-1] >= vs.n):
        raise InvalidParameterError(f"subset indices out of range 0..{vs.n - 1}")
    v = vs.vectors[idx]
    s = v.T @ v.conj()  # S = sum_i v_i v_i*
    lam = min(float(np.trace(s).real), float(np.max(np.abs(s).sum(axis=1)))) * (1 + 1e-12)
    if not (gap > 1e-12 * lam and math.isfinite(gap)):
        raise InvalidParameterError(
            f"gap must be finite and above the rounding slack {1e-12 * lam:.3g}, got {gap}")
    lo = np.zeros((1, 2 * vs.k - 2))
    hi = np.repeat([np.pi / 2, 2 * np.pi], vs.k - 1)[None, :]
    best, witness, evaluations = -math.inf, None, 0
    while True:
        if evaluations + lo.shape[0] > budget:
            raise BudgetExceededError(f"the bound needs more than {budget} box evaluations")
        evaluations += lo.shape[0]
        f, u, bound, wh = _box_bounds(s, lam, lo, hi)
        top = int(np.argmax(f))
        if f[top] > best:
            best, witness = float(f[top]), u[top]
        keep = bound > best + gap
        if not keep.any():
            return best, best + gap, evaluations, witness
        lo, hi, wh = lo[keep], hi[keep], wh[keep]
        rows = np.arange(lo.shape[0])
        axis = np.argmax(wh, axis=1)
        mid = 0.5 * (lo[rows, axis] + hi[rows, axis])
        lo, hi = np.concatenate([lo, lo]), np.concatenate([hi, hi])
        hi[rows, axis] = mid
        lo[rows + rows.size, axis] = mid
