"""The branch and bound behind exhaustive_partition_search and
``search --kind pave``, checked bitwise against a reference that scores
every restricted-growth string, kept here, and the frame search's term by
term score checked against a matrix-product score; and the incumbent and
floor that a budgeted walk reports."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framedisc import (exhaustive_partition_search, paving_quality, subset_frame_bound,
                       vector_system)
from framedisc import engines
from framedisc.errors import BudgetExceededError
from framedisc.linalg import _opnorm
from framedisc.rng import make_rng

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=60)
SEEDS = st.integers(0, 2**32 - 1)


def restricted_growth(n, r):
    """Yield the assignments a of 0..n-1 to labels < r with a_0 = 0 and
    a_i <= max(a_<i) + 1, in lexicographic order (one list, updated in place)."""
    a = [0] * n
    top = [0] * n  # top[i] = max(a[:i + 1])
    while True:
        yield a
        i = n - 1
        while i > 0 and a[i] == min(top[i - 1] + 1, r - 1):
            i -= 1
        if i <= 0:
            return
        a[i] += 1
        top[i] = max(top[i - 1], a[i])
        a[i + 1:] = [0] * (n - 1 - i)
        top[i + 1:] = [top[i]] * (n - 1 - i)


def reference_search(n, r, part_score):
    """Score every restricted-growth string with a bitmask score cache and
    keep the first strict improvement: (assignment, value)."""
    scores = {0: 0.0}
    best_val, best = np.inf, None
    for assign in restricted_growth(n, r):
        masks = [0] * r
        for i, j in enumerate(assign):
            masks[j] |= 1 << i
        val = 0.0
        for mask in masks:
            if mask not in scores:
                scores[mask] = part_score([i for i in range(n) if mask >> i & 1])
            val = max(val, scores[mask])
        if val < best_val:
            best_val, best = val, list(assign)
    return best, best_val


def index_walk(n, r, part_score, **kwargs):
    """The branch and bound with each part's index list as its state."""
    return engines._min_max_partition(n, r, [], lambda idx, i: idx + [i], part_score,
                                      **kwargs)


def term_sum_score(v):
    """The frame search's score: the norm of a part's frame operator summed
    term by term, (v_a v_a* + v_b v_b*) + ... for a < b < ..."""
    terms = [np.outer(x, x.conj()) for x in v]

    def score(idx):
        s = np.zeros((v.shape[1], v.shape[1]), dtype=np.complex128)
        for i in idx:
            s = s + terms[i]
        return _opnorm(s)

    return score


def matmul_score(v):
    """A part's frame bound from one matrix product, sub.T @ sub.conj()."""
    def score(idx):
        sub = v[idx]
        return _opnorm(sub.T @ sub.conj())

    return score


def value_of(assignment, r, part_score):
    return max((part_score(np.flatnonzero(assignment == j).tolist())
                for j in range(r) if np.any(assignment == j)), default=0.0)


def vectors(seed, n, k, kind):
    """Complex rows of random norm <= 1; "dup" repeats and rescales rows,
    "zero" zeroes some."""
    rng = make_rng(seed)
    v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    v *= (rng.random((n, 1)) / np.linalg.norm(v, axis=1, keepdims=True))
    if kind == "dup":
        v = v[rng.integers(0, max(1, n // 2), size=n)] * rng.choice([1.0, -1.0, 1j], size=(n, 1))
    elif kind == "zero":
        v[rng.random(n) < 0.4] = 0.0
    return v


SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 4))


# duplicated vectors whose optimal partitions tie exactly, where the matrix
# product and the term by term sum pick different ones
DUP_TIE = dict(seed=0, shape=(2, 9, 2), kind="dup")


@SEEDED
@given(seed=SEEDS, shape=SHAPES, kind=st.sampled_from(["generic", "dup", "zero"]))
@example(**DUP_TIE)
def test_frame_search_matches_reference(seed, shape, kind):
    r, n, k = shape
    v = vectors(seed, n, k, kind)
    score = term_sum_score(v)
    best, best_val = reference_search(n, r, score)
    out = exhaustive_partition_search(vector_system(v), r)
    assert out.exact
    assert out.witness.assignment.tolist() == best
    assert value_of(out.witness.assignment, r, score) == out.value == best_val
    assert 1 <= out.counters["parts_scored"] <= out.counters["nodes_visited"]


@SEEDED
@given(seed=SEEDS, shape=SHAPES, kind=st.sampled_from(["generic", "dup", "zero"]))
@example(**DUP_TIE)
def test_term_sum_witness_is_optimal_under_the_matmul_score(seed, shape, kind):
    # The walk under the matrix-product score computes the same optimum
    # another way. Both scores are within n k eps sum_i ||v_i||^2 of a part's
    # exact frame bound, so each witness is optimal under the other score up
    # to that; on generic inputs no two partitions come that close, so the
    # walks agree exactly.
    r, n, k = shape
    v = vectors(seed, n, k, kind)
    by_terms, by_matmul = term_sum_score(v), matmul_score(v)
    terms, matmul = exhaustive_partition_search(vector_system(v), r), index_walk(n, r, by_matmul)
    terms_part, matmul_part = terms.witness, matmul.witness
    tol = n * k * np.finfo(float).eps * float(np.sum(np.abs(v) ** 2))
    matmul_best = value_of(matmul_part.assignment, r, by_matmul)
    terms_best = value_of(terms_part.assignment, r, by_terms)
    assert abs(value_of(terms_part.assignment, r, by_matmul) - matmul_best) <= tol
    assert abs(value_of(matmul_part.assignment, r, by_terms) - terms_best) <= tol
    if kind == "generic":
        assert terms_part.assignment.tolist() == matmul_part.assignment.tolist()
        assert terms.counters == matmul.counters


def zero_diagonal_matrix(seed, n, kind):
    g = vectors(seed, n, n, kind)
    a = (g + g.conj().T) / 2.0
    np.fill_diagonal(a, 0.0)
    return a


@SEEDED
@given(seed=SEEDS, shape=SHAPES, kind=st.sampled_from(["generic", "dup", "zero"]))
def test_paving_search_matches_reference(seed, shape, kind):
    r, n, _ = shape
    a = zero_diagonal_matrix(seed, n, kind)

    def score(idx):
        return _opnorm(a[np.ix_(idx, idx)])

    best, best_val = reference_search(n, r, score)
    out = engines._paving_search(a, r)
    assert out.exact
    assert out.witness.assignment.tolist() == best
    assert value_of(out.witness.assignment, r, score) == out.value == best_val


@SEEDED
@given(seed=SEEDS, shape=SHAPES, top=st.integers(0, 3))
def test_tie_heavy_monotone_scores_match_reference(seed, shape, top):
    # small integer weights: many partitions tie exactly, and a weight of 0
    # leaves a part's score unchanged when its element joins
    r, n, _ = shape
    w = make_rng(seed).integers(0, top + 1, size=n)
    for score in (lambda idx: float(sum(w[idx])), lambda idx: float(max(w[idx], default=0))):
        best, best_val = reference_search(n, r, score)
        part = index_walk(n, r, score).witness
        assert part.assignment.tolist() == best
        assert value_of(part.assignment, r, score) == best_val


def test_pruning_skips_most_of_the_tree():
    v = vectors(3, 12, 4, "generic")
    counters = exhaustive_partition_search(vector_system(v), 2).counters
    # the whole restricted-growth tree of r = 2, n = 12 has 2^12 - 1 nodes
    assert counters["nodes_visited"] < 2**12 - 1
    assert counters["parts_scored"] < 2**12 - 1


def budget_range(search):
    """(first, full): the least budget at which search(budget) reaches a leaf
    rather than raising BudgetExceededError, and the nodes of the whole walk."""
    full = search(None)[-1]
    lo, hi = 0, full  # search(lo) raises, search(hi) does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            search(mid)
            hi = mid
        except BudgetExceededError:
            lo = mid
    return hi, full


@SEEDED
@given(seed=SEEDS, shape=SHAPES, kind=st.sampled_from(["generic", "dup", "zero"]),
       cut=st.floats(0.0, 1.0))
@example(**DUP_TIE, cut=0.5)
def test_budgeted_walk_returns_a_floored_incumbent(seed, shape, kind, cut):
    # Every budget from the first leaf's to the whole walk's returns its
    # incumbent: its reported value is its witness's as the walk scores it,
    # within rounding of the witness's value by an independent route, it
    # lies above the floor, and it is exact exactly when the budget covers
    # the walk, where the witness is the reference's. One node less than
    # the first leaf needs is a refusal.
    r, n, k = shape
    v = vectors(seed, n, k, kind)
    vs = vector_system(v)
    a = zero_diagonal_matrix(seed, n, kind)
    tol = 8 * (n + k) * np.finfo(float).eps * max(float(np.sum(np.abs(v) ** 2)),
                                                  float(np.linalg.norm(a)))

    def frame(budget):
        out = exhaustive_partition_search(vs, r, budget)
        part = out.witness
        assert out.value == value_of(part.assignment, r, term_sum_score(v))
        assert abs(out.value - max(subset_frame_bound(vs, p) for p in part.parts())) <= tol
        return part, out.value, out.exact, out.counters["nodes_visited"]

    def pave(budget):
        out = engines._paving_search(a, r, budget)
        part = out.witness
        assert out.value == value_of(part.assignment, r,
                                     lambda idx: _opnorm(a[np.ix_(idx, idx)]))
        quality = max(_opnorm(np.where(np.outer(q, q), a, 0.0))  # Q_j A Q_j
                      for q in (part.assignment == j for j in range(r)))
        assert paving_quality(a, part) == quality and abs(out.value - quality) <= tol
        return part, out.value, out.exact, out.counters["nodes_visited"]

    for search, floor, score in ((frame, engines.partition_floor(vs, r), term_sum_score(v)),
                                 (pave, engines._paving_floor(a, r),
                                  lambda idx: _opnorm(a[np.ix_(idx, idx)]))):
        first, full = budget_range(search)
        if first > 1:
            with pytest.raises(BudgetExceededError, match="no leaf"):
                search(first - 1)
        for budget in sorted({first, first + round(cut * (full - first)), full - 1, full}):
            if budget < first:
                continue
            part, value, exact, nodes = search(budget)
            assert floor <= value
            assert exact == (budget >= full)
            assert nodes == budget
            if exact:
                assert part.assignment.tolist() == reference_search(n, r, score)[0]
