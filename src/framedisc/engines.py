"""Constructive discrepancy engines and search machinery.

* Beck-Fiala iterative rounding on coordinate profiles (l-infinity
  discrepancy <= 2 for columns of l1 mass <= 1).
* Exhaustive sign search (Gray-code enumeration with incremental operator
  updates) and a budgeted partition search for the min-max subset frame
  bound.
* One blocked Gray-code walker (_sign_blocks) enumerates the signed sums
  sum_i s_i T_i of n terms of any shape: the k x k terms of the exhaustive
  sign search, and the vector columns behind the Weaver witness check of
  counterexample.py. It splits the n signs: the signed sums L of the last
  b terms are tabulated once, by doubling, in a table of at most
  WALK_BLOCK_BYTES (256 KB), b as large as fits and at most n - 1; the
  first n - b signs (s_0 = +1) are walked in Gray order with one step
  each, and each step's sum H makes a block of the 2^b sums H + L. The
  sign search runs one loop (_screened_blocks) after one prologue
  (_walk_terms): real input is walked in real arithmetic, and n < k
  vectors in the n x n Gram form. The loop screens each block with one
  Cholesky pair (_walk_screen; its backward-error argument is in the next
  item), trying each sum S first on t I - S when tr S >= 0 and on t I + S
  otherwise, the side of the extreme eigenvalue more likely past t, and
  the other side only if that factors.
* The exhaustive sign search eigensolves only the sums that can tie or
  beat the incumbent, the smallest norm eigensolved so far. The first
  block is eigensolved whole. In each later block a sum S is dropped when
  a batched LAPACK Cholesky factorization of t I - S or of t I + S fails,
  with t = incumbent + eta sum_i ||v_i||^2 and eta = WALK_ETA
  (1e-9); the survivors are eigensolved as before. A failed factorization
  puts an eigenvalue of S outside (-t, t) up to Cholesky's backward error
  c k eps (t + ||S||) <= 2 c k eps sum_i ||v_i||^2, and eigvalsh is off by
  at most c k eps ||S||. The screen factors (t I -+ H) -+ L rather than
  t I -+ S with S = H + L as eigensolved, which moves each entry by a few
  eps sum_i ||v_i||^2 more. All of it is far below eta sum_i ||v_i||^2, so a
  dropped sum's computed norm exceeds the incumbent, which is at least the
  final minimum: it can neither win nor tie. A batched eigensolve gives
  each matrix the bits it gets alone, so the minimum and its
  lexicographically smallest witness are bitwise those of eigensolving
  every sum. The margin scales with sum_i ||v_i||^2 rather than with the
  incumbent, which can be a rounding residue (duplicated vectors give
  minima of 1e-16). A nonzero sum_i ||v_i||^2 outside [tiny / eta, max / 4]
  is refused: below, the margin underflows; above, an entry of 2 M_i or of
  t I -+ S could overflow, and a factorization failing on overflow proves
  nothing. All-zero vectors get the margin tiny, the least normal float.
* One partition search serves both the partition search (parts
  scored by their frame bound) and the paving search behind
  ``search --kind pave`` (parts scored by ||A[S, S]||). It is a depth-first
  branch and bound over restricted-growth prefixes, so each partition into
  at most r parts is reached at most once. Its precondition is that a part
  score is monotone under inclusion: a frame bound grows because each
  vector adds a PSD term, ||A[S, S]|| by Cauchy interlacing. A prefix whose
  largest partial part score exceeds the best leaf so far by more than
  PRUNE_MARGIN (1e-12) of it is pruned; the margin absorbs the few ulps by
  which a superset's computed score can fall below its subset's. The walk
  scores all children of a prefix before descending into them, lowest bound
  first. It counts the prefixes (nodes) it scores, and a budget caps them:
  a walk that runs out returns its best leaf so far as inexact.
  partition_floor and _paving_floor bound every partition's value from
  below: by ||S|| / r and max_i ||v_i||^2 for frames, by max_i |A_ii| and
  the pinching bound for paving.
* Matroid union augmentation deciding whether a vector family splits into
  r parts each spanning C^k, with a counting certificate on failure. One
  elimination per part, of its members followed by all n vectors and
  pivoting among the members only, answers every (element, part) exchange
  query until that part changes; the certificate's closure test is one
  such elimination too. An element that fails to insert is never retried:
  the union matroid's span only grows as elements are placed. A budget
  caps the exchange queries.
* Gaussian median radius of the operator norm on self-adjoint matrices and
  a sign search keeping signed sums inside operator-norm radius 5R. The
  standard Gaussian on self-adjoint k x k matrices has diagonal entries
  N(0, 1) and off-diagonal real and imaginary parts N(0, 1/2). Householder
  tridiagonalization keeps its eigenvalues, and by Dumitriu and Edelman
  (J. Math. Phys. 43, 2002) the result is a real symmetric tridiagonal T
  with independent diagonal a_j ~ N(0, 1) and squared off-diagonals
  b_j^2 ~ Gamma(k - j, 1), j = 1..k-1. So ||T|| has the law of the
  Gaussian's norm, and a sample costs 2k - 1 draws (_selfadjoint_draws).
  The median is a certified selection: it returns the bits of np.median
  over every sample's eigensolved norm (LAPACK dsyevd on the dense real T,
  off-diagonals sqrt(b_j^2)) but eigensolves only a pilot and the samples
  that can be the median. The exact norms of the first
  p ~ (z n / 2)^(2/3) of n samples give a bracket [t_lo, t_hi] at pilot
  ranks p/2 -+ z sqrt(p)/2 (z = RADIUS_Z). Every sample, the pilot's
  included, is placed by the pivots of the LDL^T factorizations of
  t I -+ T, d_1 = t -+ a_1 and d_j = (t -+ a_j) - b_{j-1}^2 / d_{j-1}:
  t I -+ T is positive definite iff every pivot is positive (a Sturm
  sequence test, O(k) per sample; for k = 1 it tests |a_1| < t).
  Every pivot of both positive at t_lo (1 - eta) => its computed norm is
  below t_lo; a pivot <= 0 in either at t_hi (1 + eta) => above t_hi.
  Every pivot is tested, since a pivot <= 0 can be followed by positive
  ones. The computed pivots are the exact pivots of t I -+ T' whose
  diagonal entries t -+ a_j and squared off-diagonals b_j^2 are each off
  by a relative few eps, so ||T' - T|| <= 3 eps (t + ||T||). The
  eigensolved matrix has off-diagonals fl(sqrt(b_j^2)), within a relative
  eps of sqrt(b_j^2), so it lies within 2 eps ||T|| of T, and dsyevd adds
  a backward error of c k eps ||T||. The margin eta = RADIUS_ETA (1e-9) is
  far above all of it, so a sample placed below t_lo (above t_hi) has
  computed norm below t_lo (above t_hi).
  Narrowing passes then place the candidates left by the same certificate
  on a narrower bracket [a, b] inside [t_lo, t_hi]: a sample placed below
  a has computed norm below a, as has every sample placed below
  t_lo <= a (and above b likewise), so after a pass the argument below
  holds with a, b for t_lo, t_hi. With m candidates and i <= j their
  median ranks, a and b sit at rank fractions (i - z sqrt(m)/2)/m and
  (j + z sqrt(m)/2)/m of the bracket, read off linearly. A pass is kept
  only if both median ranks still fall among its candidates; otherwise the
  previous candidates stand and the narrowing ends. It also ends after a pass that fails to halve the candidates, or
  at RADIUS_NARROW_MIN candidates. The remaining candidates C are
  eigensolved. With B samples certified below the last bracket kept,
  [t_lo, t_hi], and i, j the median ranks minus B, the sorted candidate
  norms c_i, c_j are the full sample's order statistics at the median
  ranks when 0 <= i <= j < |C|, c_i >= t_lo and c_j <= t_hi:
  certified-below values are < t_lo <= c_i, and certified-above values are
  > t_hi >= c_j. A batched eigensolve gives each matrix the bits it gets
  alone, so c_i and c_j carry the bits of the all-samples computation, and
  they are averaged as np.median does. When this check fails (the pilot
  bracket missed the median, probability about 2 Phi(-z)) the pass reruns
  with every sample a candidate, which is the all-samples computation.
* The Banaszczyk sign search flips single signs greedily from seeded
  random starts and returns the first state within M: a restart's start,
  or the sum after a taken flip. Otherwise it stops after exactly
  ``budget`` evaluations, each one eigensolve. A flip is taken only when
  its norm is below val - margin, with val the current norm and
  margin = eta sum_i ||B_i||_F (eta = WALK_ETA), so a gain of rounding
  noise is never taken.
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

Every search returns one Outcome, the net bound's branch and bound
included: its witness, the witness's value as the search computed it,
whether the search ran to completion (the Banaszczyk greedy never does, and
a partition walk cut short by its budget does not), and the counters that
the report carries.

Tie rules of the exact searches: the sign search fixes s_0 = +1 and returns
the lexicographically smallest optimal sign vector.
The partition and paving searches return the lexicographically smallest
optimal assignment. Each distinct part is scored once, so a partition and
its relabelings tie exactly, and the first of them, the restricted-growth
string, is the one the walk visits. A leaf is accepted when it is below
the incumbent, or ties it with a lexicographically smaller assignment, and
pruning never drops an ancestor of an optimal leaf, so the winner and its
value are those of scoring every restricted-growth string.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError
from .frames import VectorSystem, _subset_indices, _unit_ball_norms, frame_bound, partition
from .linalg import _cholesky_factors, _opnorm, _solve, as_hermitian, eigenvalues
from .rng import make_rng


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class Outcome:
    """What a search found: its ``witness`` (an int64 sign array, a
    Partition, a ViolatingSet or a unit vector), the witness's ``value`` as
    the search computed it, whether the search ran to completion (``exact``)
    rather than stopping at an incumbent, and the ``counters`` of its work
    that a report carries."""

    witness: object
    value: float
    exact: bool
    counters: dict


@dataclass(frozen=True)
class BanaszczykContext:
    """Empirical median radius of the Gaussian operator-norm distribution
    on self-adjoint k x k matrices, the eigensolves taken, and the
    balancing radius M = 5 R."""

    R_hat: float
    eigensolves: int

    @property
    def M(self) -> float:
        return 5.0 * self.R_hat


@dataclass(frozen=True)
class ViolatingSet:
    """Certificate that no partition into r spanning parts exists: the
    indices X, with d = dim span of the complement, r*(k - d) > |X|."""

    indices: tuple
    complement_rank: int


# ---------------------------------------------------------------------------
# Beck-Fiala


def coordinate_profile(vs: VectorSystem) -> np.ndarray:
    """The (n, k) coordinate profile: row i holds a_i[j] = |<e_j, v_i>|^2,
    of l1 mass ||v_i||^2 <= 1."""
    _unit_ball_norms(vs)
    return np.abs(vs.vectors) ** 2


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


def beck_fiala_signs(a) -> np.ndarray:
    """Signs (an int64 array) with || sum_i s_i a_i ||_inf <= 2 for the rows
    a_i of an (n, k) profile, each of l1 mass <= 1.

    Classical iterative rounding: fractional signs start at 0; coordinates
    whose floating l1 mass exceeds 1 are held constant by moving along a
    nullspace direction of the active constraint block until some variable
    hits +-1 and freezes.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidParameterError(f"coordinate profile must be (n, k), got shape {a.shape}")
    if not np.all(np.isfinite(a)):  # NaN would pass both checks below
        raise InvalidParameterError("coordinate profile entries must be finite")
    if np.any(a < -1e-15):
        raise InvalidParameterError("coordinate profile entries must be nonnegative")
    if np.any(a.sum(axis=1) > 1 + 1e-12):
        raise InvalidParameterError("coordinate profile rows must have l1 mass <= 1")
    c = a.T  # constraint rows are coordinates, columns are sign variables
    n = a.shape[0]
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
    return signs


# ---------------------------------------------------------------------------
# exhaustive and budgeted searches


# Byte cap of the table of low-sign sums the sign walker builds, and of each
# stack of k x k sums counterexample.py forms: large enough to amortise the
# per-call cost of Cholesky and the eigensolver, small enough to keep peak
# memory flat.
WALK_BLOCK_BYTES = 1 << 18
# The sign search rules a pattern out once Cholesky proves its norm above
# the incumbent plus this share of sum_i ||v_i||^2, exhaustive verify-weaver
# certifies every pattern against the orbit minimum less this share, and the
# greedy sign search takes a flip only when it gains more than this share of
# sum_i ||B_i||_F (see the module docstring).
WALK_ETA = 1e-9


def _real_if_real(a: np.ndarray) -> np.ndarray:
    """a as float64 when no entry has an imaginary part, else a unchanged."""
    return np.ascontiguousarray(a.real) if np.iscomplexobj(a) and not a.imag.any() else a


def _low_bits(terms: np.ndarray) -> int:
    """b, the number of low signs the walk over terms (n, ...) tabulates:
    the largest b <= n - 1 whose 2^b sums fit in WALK_BLOCK_BYTES, or 0."""
    return min(len(terms) - 1, max(1, WALK_BLOCK_BYTES // terms[0].nbytes).bit_length() - 1)


def _gray_sums(terms: np.ndarray):
    """Yield (signs, sum_i s_i T_i) for the 2^(n-1) sign patterns of terms
    (n, ...) with s_0 = +1, in Gray-code order, each a new pair of arrays.

    Pattern t has gray(t) = t ^ (t >> 1), and s_{i+1} = -1 iff bit i of
    gray(t) is set, so pattern t > 0 flips sign i, where bit i - 1 is the
    lowest set bit of t, and its sum is the previous one -+ 2 T_i."""
    signs = np.ones(len(terms), dtype=np.int64)
    total = np.sum(terms, axis=0)
    twice = 2 * terms  # exact
    yield signs, total
    for t in range(1, 2 ** (len(terms) - 1)):
        i = (t & -t).bit_length()
        total = total - twice[i] if signs[i] > 0 else total + twice[i]
        signs = signs.copy()
        signs[i] = -signs[i]
        yield signs, total


def _sign_blocks(terms: np.ndarray):
    """The walk over sum_i s_i T_i for all 2^(n-1) sign patterns with
    s_0 = +1, as (low, table, blocks), for terms (n, ...) of any shape: the
    k x k matrices of the sign search, or the vector columns of the Weaver
    witness check (counterexample.py).

    The last b = _low_bits(terms) signs are tabulated once: ``table``
    (2^b, ...) holds the signed sums of T_{n-b}, ..., T_{n-1}, built by
    doubling (each T_i in turn added to, then subtracted from, the rows so
    far, so each row is summed left to right), and ``low`` (2^b, b) their
    signs. ``blocks`` is _gray_sums over T_0, ..., T_{n-b-1}: each of its
    2^(n-1-b) pairs (high, H) is a block of 2^b patterns, with signs high
    followed by low[r] and sums H + table[r]. The walk adds one step per
    block, not per pattern, so a sum carries the rounding of at most
    2^(n-1-b) + n additions."""
    n, b = len(terms), _low_bits(terms)
    low = np.ones((2 ** b, b), dtype=np.int64)
    table = np.zeros((2 ** b,) + terms.shape[1:], terms.dtype)
    for j, m in enumerate(terms[n - b:]):
        rows = 2 ** j
        np.subtract(table[:rows], m, out=table[rows:2 * rows])
        table[:rows] += m
        low[rows:2 * rows] = low[:rows]
        low[rows:2 * rows, j] = -1
    return low, table, _gray_sums(terms[:n - b])


def _block_signs(high: np.ndarray, low: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (len(rows), n) sign rows of a block's patterns ``rows``."""
    return np.hstack((np.broadcast_to(high, (len(rows), high.size)), low[rows]))


# _scale's default cap: past it, a sum of the v_i v_i*, or twice one, could
# overflow. A command that squares a matrix input passes its square root.
SCALE_MAX = float(np.finfo(float).max) / 4


def _scale(x, needs: str, lo: float = 0.0, hi: float = SCALE_MAX,
           what: str = "sum_i ||v_i||^2") -> float:
    """The sum of the squared entry moduli of x, a VectorSystem
    (sum_i ||v_i||^2) or an array of matrix entries (``what`` names the
    sum), refused before any other arithmetic unless zero or in [lo, hi]."""
    entries = x.vectors if isinstance(x, VectorSystem) else x
    with np.errstate(over="ignore"):
        total = float(np.sum(np.abs(entries) ** 2))
    if total and not lo <= total <= hi:
        raise InvalidParameterError(
            f"{needs} needs {what} zero or in [{lo:.3g}, {hi:.3g}]; these entries, "
            f"of largest entry modulus {np.max(np.abs(entries)):.3g}, give {total:.3g}: "
            "rescale them")
    return total


def _walk_terms(vs: VectorSystem, budget: int) -> tuple[np.ndarray, float, int]:
    """The prologue of the sign search: (the terms M_i whose signed sums
    the walk builds, the Cholesky screen's margin, eigensolves taken).

    Refuses past ``budget`` and out of its range of scales (module
    docstring). Real vectors give real terms, and when n < k the terms are
    g_i g_i* for the columns g_i of G^(1/2), G the n x n Gram matrix, since
    ||sum_i s_i v_i v_i*|| = ||G^(1/2) S G^(1/2)||; that square root is the
    one eigensolve taken here. sum_i ||v_i||^2 bounds every
    ||sum_i s_i M_i||, and with it the backward errors of both Cholesky and
    the eigensolver, so the margin is WALK_ETA times it."""
    if 2 ** (vs.n - 1) > budget:
        raise BudgetExceededError(
            f"the sign walk needs 2^{vs.n - 1} patterns, over the budget {budget}")
    tiny = np.finfo(float).tiny
    total, solves = _scale(vs, "the sign walk", tiny / WALK_ETA), 0
    vecs = _real_if_real(vs.vectors)
    if vs.n < vs.k:
        w, u = _solve(np.linalg.eigh, vecs.conj() @ vecs.T)
        vecs = ((u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T).T
        total, solves = float(np.sum(np.abs(vecs) ** 2)), 1
    mats = vecs[:, :, None] * vecs.conj()[:, None, :]  # rank_one of each row
    return mats, max(WALK_ETA * total, tiny), solves


def _walk_screen(table: np.ndarray):
    """The screen of the blocks of _sign_blocks with ``table``, sorted by
    trace: screen(H, t) returns (rows, sums), the indices r of the sums
    S = H + table[r] whose norm no Cholesky failure proves above t, those
    where both t I - S and t I + S factor, and those sums; with t None,
    every row and sum.

    Each sum is tried first on the side its trace points to, t I - S when
    tr S >= 0, and on the other side only if that factors; whether both
    factor does not depend on the order. With the table sorted by trace,
    the first tries are two slices, (t I + H) + table[:c] and
    (t I - H) - table[c:]. The matrices and their factors are written into
    two table-sized arrays made once per walk. Fresh table-sized
    temporaries would come, block after block, from memory that glibc's
    allocator returns to the system when they are freed, and each block
    would fault their pages in again."""
    work = np.empty_like(table)
    factors = np.empty_like(table)
    traces = np.trace(table, axis1=1, axis2=2).real
    every = np.arange(len(table))
    eye = np.eye(table.shape[-1])

    def screen(h: np.ndarray, t: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        if t is None:
            return every, np.add(table, h, out=work)
        plus, minus = t * eye + h, t * eye - h
        c = int(np.searchsorted(traces, -np.trace(h).real))
        np.add(plus, table[:c], out=work[:c])
        np.subtract(minus, table[c:], out=work[c:])
        rows = np.flatnonzero(_cholesky_factors(work, factors))
        a = int(np.searchsorted(rows, c))  # rows[:a] tried t I + S first
        second = np.take(table, rows, axis=0, out=work[:rows.size])
        np.subtract(minus, second[:a], out=second[:a])
        np.add(plus, second[a:], out=second[a:])
        rows = rows[_cholesky_factors(second, factors[:rows.size])]
        sums = np.take(table, rows, axis=0, out=work[:rows.size])
        return rows, np.add(sums, h, out=sums)

    return screen


def _screened_blocks(mats: np.ndarray, threshold):
    """The loop of the sign search over mats (n, k, k): for each block of
    _sign_blocks(mats), the screen at t = threshold() (None keeps the block
    whole) and a batched eigensolve of the sums it keeps. Yields
    (signs, norms), the (m, n) sign rows of those sums and their norms,
    for each block that keeps any. The table is sorted by trace first, as
    _walk_screen needs."""
    low, table, blocks = _sign_blocks(mats)
    order = np.argsort(np.trace(table, axis1=1, axis2=2).real)
    low, table = low[order], table[order]
    screen = _walk_screen(table)
    for high, h in blocks:
        rows, sums = screen(h, threshold())
        if rows.size:
            yield _block_signs(high, low, rows), _opnorm(sums)


def exhaustive_sign_search(vs: VectorSystem, budget: int = 2**23) -> Outcome:
    """Global minimum over sign patterns of ||sum_i s_i A_{v_i}||.

    The first sign is fixed +1 (global flip symmetry), so the walk covers
    2^(n-1) patterns; it refuses when that exceeds ``budget`` (the default
    reaches n = 24). Enumeration is _screened_blocks over the terms of
    _walk_terms. Ties go to the lexicographically smallest sign vector.

    The first block is eigensolved whole; each later one only where the
    Cholesky pair at the incumbent plus the margin keeps a sum (see the
    module docstring). The minimum and its witness are those of
    eigensolving every pattern. The outcome is exact; its counter
    ``eigensolves`` counts the matrices eigensolved, the Gram square root's
    included.
    """
    mats, margin, solves = _walk_terms(vs, budget)
    best_val, best_signs = np.inf, None
    for signs, vals in _screened_blocks(
            mats, lambda: None if best_signs is None else best_val + margin):
        solves += len(vals)
        val = vals.min()
        if val <= best_val:
            key = min(map(tuple, signs[vals == val].tolist()))
            if val < best_val or key < best_signs:
                best_val, best_signs = val, key
    return Outcome(np.array(best_signs, dtype=np.int64), float(best_val), True,
                   {"eigensolves": solves})


# A prefix is pruned once its score exceeds the incumbent by more than this
# share of it: a superset's computed score can be a few ulps below its
# subset's, and pruning on a bare ">" could then drop an optimal leaf.
PRUNE_MARGIN = 1e-12


def _min_max_partition(n: int, r: int, empty, grow, part_score,
                       budget: int | None = None) -> Outcome:
    """The lexicographically first assignment of 0..n-1 to r parts
    minimizing max_j of its parts' scores (the empty part scores 0), as a
    Partition with that value, exact; or, once ``budget`` nodes are scored,
    the best assignment found, inexact, or BudgetExceededError if no leaf
    was reached.

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
    branch and bound scores every child a_i = j of a prefix (a node each),
    then descends into them by (bound, j). A prefix's bound is the max score
    of its partial parts, which by monotonicity no completion goes below; a
    child is dropped once its bound exceeds the best leaf so far by more
    than PRUNE_MARGIN of it. A leaf is accepted when it is below the best,
    or ties it with a lexicographically smaller assignment. The best never
    falls below the optimum, so every optimal leaf is reached, and the
    winner is what scoring every restricted-growth string would give.
    Scores are cached by the part's bitmask, so each distinct part is scored
    once and a leaf's value is the same float whichever path reached it.
    The walk keeps its own stack rather than recursing, and runs under
    np.errstate(all="ignore"), so that an eigensolve scoring a part fails
    with _opnorm's EigensolverError alone. Counters: ``nodes_visited`` and
    ``parts_scored``.
    """
    if r < 1:
        raise InvalidParameterError(f"part count must be >= 1, got {r}")
    scores = {0: 0.0}  # at most min(2^n, r^n) entries
    assign = [0] * n
    best_val, best_assign = math.inf, None
    nodes = 0
    stack = []  # per open prefix: (i, used, masks, current, states, children left)

    def expand(i: int, used: int, masks: list, current: list, states: list) -> None:
        """Score the children a_i = j of a prefix using the labels below
        ``used``; judge them if leaves, else push them in (bound, j) order."""
        nonlocal best_val, best_assign, nodes
        children = []
        for j in range(min(used + 1, r)):
            if budget is not None and nodes >= budget:
                raise BudgetExceededError(
                    f"the partition search reaches no leaf within budget = {budget} nodes")
            nodes += 1
            mask = masks[j] | 1 << i
            state = None
            score = scores.get(mask)
            if score is None:
                state = grow(states[j], i)
                score = scores[mask] = part_score(state)
            old, current[j] = current[j], score
            children.append((max(current), j, mask, score, state))
            current[j] = old
        children.sort(key=lambda child: child[:2])
        if i + 1 < n:
            stack.append((i, used, masks, current, states, iter(children)))
            return
        value, assign[i] = children[0][:2]
        if value < best_val or value == best_val and assign < best_assign:
            best_val, best_assign = value, list(assign)

    try:
        with np.errstate(all="ignore"):
            expand(0, 0, [0] * r, [0.0] * r, [empty] * r)
            while stack:
                i, used, masks, current, states, children = stack[-1]
                child = next(children, None)
                if child is None or child[0] > best_val + PRUNE_MARGIN * best_val:
                    stack.pop()  # the children left are bounded at least as high
                    continue
                _, j, mask, score, state = child
                masks, current, states = masks.copy(), current.copy(), states.copy()
                masks[j], current[j] = mask, score
                states[j] = grow(states[j], i) if state is None else state
                assign[i] = j
                expand(i + 1, max(used, j + 1), masks, current, states)
    except BudgetExceededError:
        if best_assign is None:
            raise
    # a walk cut short leaves prefixes open
    return Outcome(partition(r, best_assign), best_val, not stack,
                   {"nodes_visited": nodes, "parts_scored": len(scores) - 1})


def exhaustive_partition_search(vs: VectorSystem, r: int,
                                budget: int | None = None) -> Outcome:
    """The partition into r parts of least max_j subset frame bound and that
    value, as _min_max_partition finds it within ``budget`` nodes
    (lexicographically smallest optimal assignment on ties). A part's frame
    bound only grows as vectors join it, since each adds a PSD term.

    The walk scores a part by the operator norm of its frame operator
    summed term by term, ((v_a v_a* + v_b v_b*) + ...) for a < b < ...,
    each part's sum grown from its parent part's. That sum can differ from
    a matrix product by a few ulps, so where different partitions are
    optimal in exact arithmetic (duplicated vectors, say) the winner is the
    lexicographically first partition that is optimal as computed here.
    """
    terms = list(vs.vectors[:, :, None] * vs.vectors.conj()[:, None, :])  # rank_one of each row
    return _min_max_partition(vs.n, r, np.zeros((vs.k, vs.k), dtype=np.complex128),
                              lambda s, i: s + terms[i], _opnorm, budget)


def partition_floor(vs: VectorSystem, r: int) -> float:
    """A lower bound on max_j ||S_j|| over every partition of the system into
    r parts, S_j the frame operator of part j: S = sum_j S_j gives
    ||S|| <= r max_j ||S_j||, and S_j >= v_i v_i* for each member i.

    Rounding, with t = sum_i ||v_i||^2: forming a frame operator errs by at
    most 2 n eps t (n products per entry, and |V|^T |V| has norm <= t), and
    the eigensolver's backward error is taken as 4 k eps t. So ||S|| and
    each ||S_j|| are computed within (2 n + 4 k) eps t, and ||v_i||^2
    within k eps t; the floor gives up 8 (n + k) eps t and is clipped at 0."""
    norms = vs.norms_squared()
    slack = 8 * (vs.n + vs.k) * float(np.finfo(float).eps) * float(np.sum(norms))
    return max(0.0, max(frame_bound(vs) / r, float(np.max(norms))) - slack)


def _paving_search(a, r: int, budget: int | None = None) -> Outcome:
    """The partition into r parts of least max_j ||Q_j A Q_j|| and that
    value, as _min_max_partition finds it within ``budget`` nodes.
    ||A[S, S]|| can only grow with S, by Cauchy interlacing. A part's state
    is its index list, and A[S, S] is an exact gather."""
    a = as_hermitian(a)
    return _min_max_partition(a.shape[0], r, [], lambda idx, i: idx + [i],
                              lambda idx: _opnorm(a[idx][:, idx]), budget)


def _paving_floor(a, r: int) -> float:
    """A lower bound on max_j ||Q_j A Q_j|| over every partition into r parts.

    |A_ii| <= ||Q_j A Q_j|| for i in part j. With c = max(0, -lambda_min(A)),
    B = A + c I is PSD, and pinching gives B <= r sum_j Q_j B Q_j: the sum is
    the average of the r conjugates U^m B U^-m (m = 0..r-1) by
    U = sum_j w^j Q_j, w = exp(2 pi i / r), which are PSD, and the m = 0 one
    is B. Its top eigenvalue is max_j lambda_max(Q_j A Q_j) + c over the
    nonempty parts, so lambda_max(A) + c <= r (max_j ||Q_j A Q_j|| + c);
    the same holds for -A. For PSD A, c = 0 and the floor is ||A|| / r.

    Rounding: the eigensolver's backward error is taken as 4 m eps ||A||_F
    for m x m A, which bounds the error of each computed ||Q_j A Q_j|| and of
    the pinching floor (its eigenvalue weights total at most 1); the floor
    gives up 8 m eps ||A||_F and is clipped at 0."""
    a = as_hermitian(a)
    w = eigenvalues(a)
    lo, hi = float(w[0]), float(w[-1])
    pinched = max(hi - (r - 1) * max(0.0, -lo), -lo - (r - 1) * max(0.0, hi)) / r
    slack = 8 * a.shape[0] * float(np.finfo(float).eps) * float(np.linalg.norm(a))
    return max(0.0, max(float(np.max(np.abs(a.diagonal()))), pinched) - slack)


# ---------------------------------------------------------------------------
# matroid spanning partition


def _rank_columns(vs: VectorSystem) -> tuple[np.ndarray, np.ndarray, float]:
    """(columns, norms, tol) of the matroid's rank tests: the vectors as
    the columns of a k x n array, scaled by the power of two that brings
    their largest real or imaginary part into [0.5, 1), the columns' norms,
    and the rank tolerance 1e-10 times the largest norm (1e-40 for all-zero
    vectors). A power of two scales each entry, norm and elimination step
    exactly while they stay normal floats, so no rank decision moves; it
    keeps the norms from overflowing at large scales, where an infinite
    tolerance would judge every vector dependent, and from sinking below
    that floor at small ones."""
    parts = np.ascontiguousarray(vs.vectors, dtype=np.complex128).view(np.float64)
    _, e = np.frexp(np.max(np.abs(parts)))
    cols = np.ldexp(parts, -e).view(np.complex128).T
    norms = np.sqrt(np.sum(np.abs(cols) ** 2, axis=0))
    return cols, norms, 1e-10 * float(max(np.max(norms), 1e-30))


def matroid_spanning_partition(vs: VectorSystem, r: int, budget: int | None = None) -> Outcome:
    """A partition into r parts each spanning C^k, of value r, or a
    ViolatingSet, of value its deficiency; the decision is exact.

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
    ``budget`` (element, part) pairs. Counters: ``exchange_queries`` (the
    pairs examined) and ``eliminations`` (the _row_reduce calls).
    """
    if r < 2:
        raise InvalidParameterError(f"need r >= 2, got {r}")
    n, k = vs.n, vs.k
    cols, norms, tol = _rank_columns(vs)  # column i is vector i
    tally = {"exchange_queries": 0, "eliminations": 0}

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
        return Outcome(partition(r, assignment), float(r), True, tally)

    reach, _, sink, _ = search(unplaced)
    if sink is not None:
        raise RuntimeError("internal error: an unplaced element became insertable")
    base = sorted(reach)
    red, pivots = table(base)
    d = len(pivots)
    raises_rank = np.any(np.abs(red[d:, len(base):]) > tol, axis=0)
    in_closure = np.array([z in reach for z in range(n)]) | ~raises_rank
    x_set = tuple(int(i) for i in np.flatnonzero(~in_closure))
    deficiency = r * (k - d) - len(x_set)
    if deficiency <= 0:
        raise RuntimeError("internal error: certificate does not violate the count")
    return Outcome(ViolatingSet(indices=x_set, complement_rank=d), float(deficiency), True, tally)


# ---------------------------------------------------------------------------
# Banaszczyk radius and sign balancing


# Gaussian median radius: the certified selection (see the module
# docstring). RADIUS_Z is the pilot bracket's half-width in binomial
# standard deviations, RADIUS_ETA the relative margin of the pivot tests.
RADIUS_Z = 5.0
RADIUS_ETA = 1e-9
# Narrowing stops at RADIUS_NARROW_MIN candidates: below that many, a pass
# costs more than the eigensolves it can save. On a 2-vCPU x86 host stops
# from 64 to 1,024 timed alike at k = 4 (20,000 and 250,000 samples), while
# at k = 40 and 20,000 samples 64 took 138 ms, 256 took 147 ms and 512
# took 153 ms (medians of 15 runs).
RADIUS_NARROW_MIN = 64


def _selfadjoint_draws(k: int, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """``count`` samples of the tridiagonal model of the standard Gaussian on
    self-adjoint k x k matrices (see the module docstring), batch last, in
    the one order they are drawn: the diagonal diag (k, count) ~ N(0, 1),
    then the squared off-diagonal off2 (k - 1, count), row j ~ Gamma(k-1-j, 1)."""
    diag = rng.standard_normal((k, count))
    off2 = rng.standard_gamma(np.arange(k - 1, 0, -1.0)[:, None], (k - 1, count))
    return diag, off2


def _selfadjoint_matrices(diag: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """The real symmetric tridiagonal (count, k, k) matrices of the arrays
    drawn by ``_selfadjoint_draws``: diagonal diag, off-diagonals sqrt(off2)."""
    k, count = diag.shape
    h = np.zeros((count, k, k))
    idx = np.arange(k)
    h[:, idx, idx] = diag.T
    h[:, idx[1:], idx[:-1]] = h[:, idx[:-1], idx[1:]] = np.sqrt(off2.T)
    return h


def _eigensolved_norms(diag: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """The eigensolved norm of each sample, in dense stacks of at most
    2,000,000 entries."""
    k, count = diag.shape
    step = max(1, 2_000_000 // (k * k))
    return np.concatenate([np.empty(0)] + [
        _opnorm(_selfadjoint_matrices(diag[:, s:s + step], off2[:, s:s + step]))
        for s in range(0, count, step)])


def _pivots_positive(t: float, sign: int, diag: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """Where every pivot of the LDL^T factorization of t I + sign T is
    positive, so t I + sign T is positive definite, for the tridiagonals T of
    the arrays drawn by ``_selfadjoint_draws``: d_1 = t + sign a_1 and
    d_j = (t + sign a_j) - b_{j-1}^2 / d_{j-1}. A pivot <= 0 can be
    followed by positive ones, so every pivot is tested."""
    shifted = t + sign * diag
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = shifted[0]
        ok = d > 0
        for a, b2 in zip(shifted[1:], off2):
            d = a - b2 / d
            ok &= d > 0
    return ok


def _norm_below(t: float, diag: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """Where both t I - T and t I + T are positive definite, so
    -t < lambda(T) < t."""
    return _pivots_positive(t, -1, diag, off2) & _pivots_positive(t, 1, diag, off2)


def _pilot_bracket(norms: np.ndarray) -> tuple[float, float]:
    """[t_lo, t_hi] at ranks p/2 -+ z sqrt(p)/2 of p sorted pilot norms."""
    p, half = norms.size, RADIUS_Z * math.sqrt(norms.size) / 2
    return norms[max(0, math.floor(p / 2 - half))], norms[min(p - 1, math.ceil(p / 2 + half))]


def _narrowed_bracket(lo: float, hi: float, i: int, j: int, m: int) -> tuple[float, float]:
    """[a, b] at rank fractions (i - z sqrt(m)/2)/m and (j + z sqrt(m)/2)/m of
    [lo, hi], for m candidates whose median ranks are i <= j."""
    half = RADIUS_Z * math.sqrt(m) / 2
    return lo + (hi - lo) * max(0.0, (i - half) / m), lo + (hi - lo) * min(1.0, (j + half) / m)


def _screen(lo: float, hi: float, dg: np.ndarray, od: np.ndarray) -> tuple[int, np.ndarray]:
    """Place samples given by their drawn arrays (batch last) against
    [lo, hi]: (how many are certified below lo, the indices of the rest
    that are not certified above hi)."""
    below = _norm_below(lo * (1 - RADIUS_ETA), dg, od)
    keep = np.flatnonzero(~below & _norm_below(hi * (1 + RADIUS_ETA), dg, od))
    return int(np.count_nonzero(below)), keep


def _narrow(samples: int, lo: float, hi: float, below: int, dg: np.ndarray, od: np.ndarray):
    """The narrowing passes of the certified selection (see the module
    docstring), from the pilot bracket [lo, hi] with ``below`` samples
    certified below it and the candidates' drawn arrays: (lo, hi, below,
    dg, od) as the last kept pass left them."""
    i, j, m = (samples - 1) // 2 - below, samples // 2 - below, dg.shape[1]
    while m > RADIUS_NARROW_MIN and 0 <= i <= j < m:
        a, b = _narrowed_bracket(lo, hi, i, j, m)
        n, keep = _screen(a, b, dg, od)
        if not 0 <= i - n <= j - n < keep.size:
            break  # the median ranks left [a, b]: keep the previous candidates
        lo, hi, below, dg, od = a, b, below + n, dg[:, keep], od[:, keep]
        i, j, m, last = i - n, j - n, dg.shape[1], m
        if 2 * m > last:
            break
    return lo, hi, below, dg, od


def _median_pass(k: int, samples: int, seed: int, certify: bool):
    """One pass of the certified selection (see the module docstring):
    (median or None on a bracket miss, eigensolves). Without ``certify``
    every sample is eigensolved and the median is always found."""
    rng = make_rng(seed)
    chunk = max(1, 2_000_000 // (2 * k - 1))
    sizes = [min(chunk, samples - d) for d in range(0, samples, chunk)]
    if not certify:
        norms = [_eigensolved_norms(*_selfadjoint_draws(k, c, rng)) for c in sizes]
        return float(np.median(np.concatenate(norms))), samples
    first = min(sizes[0], int((RADIUS_Z * samples / 2) ** (2 / 3)))
    dgs, ods, below = [], [], 0
    for c in sizes:
        dg, od = _selfadjoint_draws(k, c, rng)
        if not dgs:  # the pilot: the first samples of the first chunk
            lo, hi = _pilot_bracket(np.sort(_eigensolved_norms(dg[:, :first], od[:, :first])))
        n, keep = _screen(lo, hi, dg, od)
        below += n
        dgs.append(dg[:, keep])
        ods.append(od[:, keep])
    dg, od = np.concatenate(dgs, axis=1), np.concatenate(ods, axis=1)
    lo, hi, below, dg, od = _narrow(samples, lo, hi, below, dg, od)
    solved = _eigensolved_norms(dg, od)
    eigensolves = first + dg.shape[1]
    i, j = (samples - 1) // 2 - below, samples // 2 - below
    if not 0 <= i <= j < solved.size:
        return None, eigensolves
    part = np.partition(solved, (i, j))
    if not (part[i] >= lo and part[j] <= hi):
        return None, eigensolves
    return float(np.median(part[i:j + 1])), eigensolves


def gaussian_median_radius(k: int, samples: int, seed: int) -> BanaszczykContext:
    """Empirical median of the operator norm of Gaussian self-adjoint
    matrices, and the balancing radius M = 5 R."""
    if k < 1:
        raise InvalidParameterError(f"need k >= 1, got {k}")
    if samples < 1000:
        raise InvalidParameterError(f"need at least 1000 samples, got {samples}")
    r_hat, solves = _median_pass(k, samples, seed, certify=True)
    if r_hat is None:
        r_hat, more = _median_pass(k, samples, seed, certify=False)
        solves += more
    return BanaszczykContext(R_hat=r_hat, eigensolves=solves)


def _balancing_terms(matrices) -> tuple[np.ndarray, np.ndarray]:
    """The stack of the B_i and their Hilbert-Schmidt norms, refused unless
    there is at least one, each norm is at most 1/5 and sum_i ||B_i||_F^2
    is in _scale's range."""
    mats = [np.asarray(b, dtype=np.complex128) for b in matrices]
    if not mats:
        raise InvalidParameterError("need at least one matrix")
    stacked = np.stack(mats)
    _scale(stacked, "the Banaszczyk sign search", what="sum_i ||B_i||_F^2")
    hs = np.linalg.norm(stacked, axis=(1, 2))
    over = hs[~(hs <= 0.2 + 1e-12)]  # also catches non-finite entries
    if over.size:
        raise InvalidParameterError(
            f"Hilbert-Schmidt norm {over[0]:.12g} is not at most 1/5; scale inputs first")
    return stacked, hs


def banaszczyk_sign_search(matrices, M: float, budget: int = 20000, seed: int = 0) -> Outcome:
    """Signs and ||sum_i s_i B_i||, seeking a norm <= M for
    Hilbert-Schmidt-small B_i (checked by _balancing_terms).

    Seeded random restarts, each descending by greedy single flips; a flip
    is taken when it lowers the norm by more than
    margin = WALK_ETA sum_i ||B_i||_F. The search returns the first state
    within M, a restart's start or the sum after a taken flip, and
    otherwise stops after exactly ``budget`` >= 1 evaluations and returns
    the best restart's end state. Existence is guaranteed by Banaszczyk's
    theorem, but the finder only sees the patterns its budget covers, so
    the value can exceed M. The outcome is never exact: a greedy search
    proves no minimum. Its counter ``eigensolves`` counts one per
    evaluation.
    """
    stacked, hs = _balancing_terms(matrices)
    if budget < 1:
        raise InvalidParameterError(f"sign search needs budget >= 1, got {budget}")
    stacked, n = _real_if_real(stacked), len(stacked)
    rng = make_rng(seed)
    margin = WALK_ETA * float(np.sum(hs))
    best_val, best_signs, evals = np.inf, None, 0
    with np.errstate(all="ignore"):  # _opnorm's single-matrix kernel, once
        while evals < budget:  # budget >= 1, so val is set below
            signs = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int64)
            s = np.tensordot(signs, stacked, axes=1)
            val = _opnorm(s)
            evals += 1
            improved = True
            while val > M and improved and evals < budget:
                improved = False
                for i in range(min(n, budget - evals)):
                    cand = s - 2 * signs[i] * stacked[i]
                    cval = _opnorm(cand)
                    evals += 1
                    if cval < val - margin:
                        s, val = cand, cval
                        signs[i] = -signs[i]
                        improved = True
                        if val <= M:
                            break
            if val < best_val:  # a state within M is below every earlier one
                best_val, best_signs = val, signs
            if val <= M:
                break
    return Outcome(best_signs, float(best_val), False, {"eigensolves": evals})


# ---------------------------------------------------------------------------
# certified subset frame bound


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


def certified_subset_bound(vs: VectorSystem, X, gap: float, budget: int = 20000) -> Outcome:
    """An exact Outcome whose value, lower, satisfies lower <= sup over unit
    u of sum_{i in X} |<u, v_i>|^2 <= lower + gap: lower is the value at the
    unit vector witness, and the counter ``net_points`` counts the box
    centres scored. Raises BudgetExceededError when they would exceed
    ``budget``."""
    v = vs.vectors[_subset_indices(X, vs.n)]
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
            return Outcome(witness, best, True, {"net_points": evaluations})
        lo, hi, wh = lo[keep], hi[keep], wh[keep]
        rows = np.arange(lo.shape[0])
        axis = np.argmax(wh, axis=1)
        mid = 0.5 * (lo[rows, axis] + hi[rows, axis])
        lo, hi = np.concatenate([lo, lo]), np.concatenate([hi, hi])
        hi[rows, axis] = mid
        lo[rows + rows.size, axis] = mid
