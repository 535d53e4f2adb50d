import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framedisc import (
    BudgetExceededError,
    InvalidParameterError,
    Partition,
    ViolatingSet,
    banaszczyk_sign_search,
    beck_fiala_signs,
    certified_subset_bound,
    coordinate_profile,
    exhaustive_partition_search,
    exhaustive_sign_search,
    frame_bound,
    gaussian_median_radius,
    matroid_spanning_partition,
    opnorm,
    rank_one,
    subset_frame_bound,
    vector_system,
)
from framedisc import engines, linalg
from framedisc.rng import make_rng

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def random_unit_rows(n, k, rng, max_norm=1.0):
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * (max_norm * rng.random((n, 1)) ** 0.5)


# ---------------------------------------------------------------------------
# Beck-Fiala


def test_coordinate_profile_values():
    vs = vector_system([[0.6, 0.8j], [1.0, 0.0]])
    prof = coordinate_profile(vs)
    assert np.allclose(prof, [[0.36, 0.64], [1.0, 0.0]])
    with pytest.raises(InvalidParameterError):
        coordinate_profile(vector_system([[2.0, 0.0]]))


def test_beck_fiala_trivial_pair():
    vs = vector_system([[1.0, 0.0], [1.0, 0.0]])
    signs = beck_fiala_signs(coordinate_profile(vs))
    disc = np.abs(coordinate_profile(vs).T @ signs)
    assert np.max(disc) <= 1e-12  # the two rows cancel exactly


def test_beck_fiala_bound_random():
    rng = make_rng(40)
    for trial in range(50):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(1, 20))
        vs = vector_system(random_unit_rows(n, k, rng))
        prof = coordinate_profile(vs)
        signs = beck_fiala_signs(prof)
        assert signs.dtype == np.int64 and np.all(np.abs(signs) == 1)
        disc = float(np.max(np.abs(prof.T @ signs)))
        assert disc <= 2.0 + 1e-9


@SEEDED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), k=st.integers(1, 12),
       real=st.booleans(), density=st.floats(0.1, 1.0), unit=st.booleans())
def test_beck_fiala_discrepancy_at_most_two(seed, n, k, real, density, unit):
    rng = make_rng(seed)
    v = rng.standard_normal((n, k))
    v = v if real else v + 1j * rng.standard_normal((n, k))
    v[rng.random((n, k)) > density] = 0.0  # sparse columns: few vectors per coordinate
    v[np.all(v == 0, axis=1), 0] = 1.0
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    if not unit:
        v *= rng.random((n, 1))
    prof = coordinate_profile(vector_system(v))
    signs = beck_fiala_signs(prof)
    assert signs.shape == (n,) and np.all(np.abs(signs) == 1)
    assert np.max(np.abs(prof.T @ signs)) <= 2.0 + 1e-9


def test_beck_fiala_rejects_heavy_rows():
    with pytest.raises(InvalidParameterError):
        beck_fiala_signs(np.array([[0.7, 0.7]]))
    with pytest.raises(InvalidParameterError, match=r"\(n, k\)"):
        beck_fiala_signs(np.array([0.7, 0.2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_beck_fiala_rejects_non_finite_profiles(bad):
    # a NaN entry passes both the sign and the l1 mass check
    with pytest.raises(InvalidParameterError, match="finite"):
        beck_fiala_signs(np.array([[bad, 0.2], [0.3, 0.1]]))


# ---------------------------------------------------------------------------
# exhaustive searches


def test_exhaustive_signs_two_equal_vectors():
    vs = vector_system([[1.0, 0.0], [1.0, 0.0]])
    out = exhaustive_sign_search(vs)
    assert out.value == pytest.approx(0.0, abs=1e-12)
    assert out.witness.tolist() == [1, -1] and out.exact


def test_exhaustive_signs_orthonormal_basis():
    # orthogonal rank-ones never cancel: every signed sum has opnorm 1
    vs = vector_system(np.eye(3))
    assert exhaustive_sign_search(vs).value == pytest.approx(1.0, abs=1e-12)


def test_exhaustive_signs_matches_brute_force():
    import itertools

    rng = make_rng(41)
    vs = vector_system(random_unit_rows(6, 2, rng))
    mats = [rank_one(v) for v in vs.vectors]
    best = min(
        opnorm(sum(s * m for s, m in zip((1,) + signs, mats)))
        for signs in itertools.product((1, -1), repeat=5)
    )
    assert exhaustive_sign_search(vs).value == pytest.approx(best, abs=1e-10)


def test_exhaustive_signs_unitary_invariance():
    rng = make_rng(42)
    vs = vector_system(random_unit_rows(7, 3, rng))
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(g)
    rotated = vector_system(vs.vectors @ q.T)
    v1 = exhaustive_sign_search(vs).value
    assert exhaustive_sign_search(rotated).value == pytest.approx(v1, abs=1e-10)


def test_exhaustive_signs_budget_refusal():
    vs = vector_system(np.ones((30, 1)))
    with pytest.raises(BudgetExceededError):
        exhaustive_sign_search(vs, budget=2**23)
    # 3 vectors walk 2^2 patterns: a budget of 4 suffices, 3 does not
    exhaustive_sign_search(vector_system(np.eye(3)), budget=4)
    with pytest.raises(BudgetExceededError, match="budget 3"):
        exhaustive_sign_search(vector_system(np.eye(3)), budget=3)


def test_exhaustive_partition_two_basis_copies():
    vs = vector_system(np.vstack([np.eye(2), np.eye(2)]))
    out = exhaustive_partition_search(vs, 2)
    assert out.exact and out.value == pytest.approx(1.0, abs=1e-12)
    top = max(subset_frame_bound(vs, p) for p in out.witness.parts())
    assert top == pytest.approx(1.0, abs=1e-12)
    assert 2.0 - top == pytest.approx(1.0, abs=1e-12)  # the slack against N = 2


def _quarter_norm_system(seed, n, k):
    rng = make_rng(seed)
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return vector_system(g / (2 * np.linalg.norm(g, axis=1, keepdims=True)))


def test_exhaustive_partition_picks_lexicographic_optimum():
    # Mirror assignments have the same parts and must tie exactly, so the
    # witness is the first optimal assignment in lexicographic order.
    vs = _quarter_norm_system(1, 5, 2)
    out = exhaustive_partition_search(vs, 2)
    best_val, best = np.inf, None
    for assign in itertools.product(range(2), repeat=vs.n):
        parts = [[i for i in range(vs.n) if assign[i] == j] for j in range(2)]
        val = max(subset_frame_bound(vs, p) for p in parts)
        if val < best_val:
            best_val, best = val, assign
    assert out.witness.assignment.tolist() == list(best) == [0, 1, 1, 0, 1]
    assert out.value == pytest.approx(best_val, abs=1e-12)


def test_exhaustive_partition_witness_starts_in_part_zero():
    for seed in range(10):
        for n, k in ((4, 2), (6, 3)):
            out = exhaustive_partition_search(_quarter_norm_system(seed, n, k), 2)
            assert out.witness.assignment[0] == 0


def _product_reference(n, r, part_score):
    """The first strict improvement over all r^n assignments in
    lexicographic order; an empty part scores 0."""
    best_val, best = np.inf, None
    for assign in itertools.product(range(r), repeat=n):
        parts = [[i for i in range(n) if assign[i] == j] for j in range(r)]
        val = max(part_score(p) if p else 0.0 for p in parts)
        if val < best_val:
            best_val, best = val, list(assign)
    return best, best_val


def _index_walk(n, r, part_score, **kwargs):
    """The branch and bound with each part's index list as its state."""
    return engines._min_max_partition(n, r, [], lambda idx, i: idx + [i], part_score,
                                      **kwargs)


@pytest.mark.parametrize("r, n, seed", [(2, 5, 1), (2, 7, 3), (3, 6, 4), (3, 5, 5),
                                        (4, 6, 6), (4, 5, 7)])
def test_restricted_growth_walk_matches_product_reference(r, n, seed):
    # (2, 5, 1) is the mirror-tie input of the lexicographic tie rule
    vs = _quarter_norm_system(seed, n, 2)

    def frame_score(idx):
        sub = vs.vectors[idx]
        return opnorm(sub.T @ sub.conj())

    def tie_score(idx):  # many exact ties between different partitions
        return float(sum(idx) % 3 + len(idx))

    for score in (frame_score, tie_score):
        best, best_val = _product_reference(n, r, score)
        out = _index_walk(n, r, score)
        part = out.witness
        assert part.assignment.tolist() == best
        val = max((score(np.flatnonzero(part.assignment == j).tolist())
                   for j in range(r) if np.any(part.assignment == j)), default=0.0)
        assert val == out.value == best_val
    if seed == 1:
        out = exhaustive_partition_search(vs, r)
        assert out.witness.assignment.tolist() == [0, 1, 1, 0, 1]


def test_restricted_growth_counts_partitions():
    # A constant score prunes nothing, so the walk visits every prefix: the
    # leaves, nodes(n) - nodes(n - 1), are the partitions into at most r
    # parts: 2^(n-1) for r = 2, Bell numbers when r >= n, 1 for r = 1.
    def nodes(n, r):
        return _index_walk(n, r, lambda idx: 0.0).counters["nodes_visited"]

    assert nodes(8, 2) - nodes(7, 2) == 2**7
    assert [nodes(n, n) - (nodes(n - 1, n) if n > 1 else 0) for n in range(1, 7)] == \
        [1, 2, 5, 15, 52, 203]
    assert nodes(5, 1) == 5
    assert nodes(1100, 1) == 1100  # deeper than Python's recursion limit
    counters = _index_walk(8, 2, lambda idx: 0.0).counters
    assert counters == {"nodes_visited": 2**8 - 1, "parts_scored": 2**8 - 1}
    # n = 5, r = 2 has 31 nodes, and its first leaf comes after 1 + 4 * 2;
    # a budget in between returns that walk's incumbent
    assert _index_walk(5, 2, lambda idx: 0.0, budget=31).exact is True
    assert _index_walk(5, 2, lambda idx: 0.0, budget=30).exact is False
    assert _index_walk(5, 2, lambda idx: 0.0, budget=9).exact is False
    with pytest.raises(BudgetExceededError, match="no leaf within budget = 8"):
        _index_walk(5, 2, lambda idx: 0.0, budget=8)


def test_walk_descends_into_the_lowest_bound_first():
    # Weights 3, 1, 1, 1: the children of [0] are [0, 0] (bound 4) and
    # [0, 1] (bound 3), and so on down, so the walk's first leaf is the
    # optimum [0, 1, 1, 1] (value 3), after one node per child:
    # 1 + 2 + 2 + 2 = 7. Every other child is bounded by 4, so those 7 nodes
    # are the whole walk. The lexicographic walk would reach [0, 0, 0, 0]
    # (value 6) first.
    w = [3.0, 1.0, 1.0, 1.0]

    def walk(budget):
        out = _index_walk(4, 2, lambda idx: sum(w[i] for i in idx), budget=budget)
        return out.witness.assignment.tolist(), out.exact

    assert walk(7) == walk(None) == ([0, 1, 1, 1], True)
    with pytest.raises(BudgetExceededError):
        walk(6)


def test_floors_are_attained_on_tight_inputs():
    # two copies of an orthonormal basis of C^2: ||S|| / 2 = max ||v_i||^2 = 1,
    # and one copy per part attains it
    vs = vector_system(np.vstack([np.eye(2), np.eye(2)]))
    for r in (2, 4):
        assert 1.0 - 1e-13 <= engines.partition_floor(vs, r) <= 1.0
    # J - I on 4 coordinates has eigenvalues 3 and -1: the pinching floor is
    # (3 - 1) / 2 = 1 for r = 2, attained by two pairs; the all-ones J is PSD,
    # with floor ||J|| / 2 = 2, also attained by two pairs
    ones = np.ones((4, 4))
    for a, floor in ((ones - np.eye(4), 1.0), (ones, 2.0), (np.eye(4) - ones, 1.0)):
        out = engines._paving_search(a, 2)
        assert out.exact and out.value == pytest.approx(floor, abs=1e-14)
        assert floor - 1e-13 <= engines._paving_floor(a, 2) <= out.value
    # a zero matrix has floor 0, not the negative slack
    assert engines._paving_floor(np.zeros((3, 3)), 2) == 0.0


def test_sign_partition_bridge_inequality():
    # max_j per-part bound >= (frame bound + min signed opnorm) / 2 for r = 2:
    # the positive part of any sign pattern is one side of a partition.
    rng = make_rng(44)
    for trial in range(5):
        vs = vector_system(random_unit_rows(6, 2, rng))
        min_signed = exhaustive_sign_search(vs).value
        lhs = exhaustive_partition_search(vs, 2).value
        rhs = (frame_bound(vs) + min_signed) / 2.0
        assert lhs >= rhs / 2.0 - 1e-9  # weak triangle-inequality direction
        # and the sharp direction: sum of the two part operators is the frame
        # operator, so the larger part bound is at least half the frame bound
        assert lhs >= frame_bound(vs) / 2.0 - 1e-9


# ---------------------------------------------------------------------------
# matroid


def test_matroid_two_basis_copies():
    vs = vector_system(np.vstack([np.eye(3), np.eye(3)]))
    out = matroid_spanning_partition(vs, 2)
    assert isinstance(out.witness, Partition) and (out.value, out.exact) == (2.0, True)
    for p in out.witness.parts():
        assert subset_frame_bound(vs, p) > 0
        assert np.linalg.matrix_rank(vs.vectors[p]) == 3


def test_matroid_interleaved_needs_exchange():
    # ordering forces augmenting paths: all of basis one, then duplicates
    rows = np.vstack([np.eye(3), np.eye(3)[[0, 0, 1, 1, 2, 2]]])
    result = matroid_spanning_partition(vector_system(rows), 2).witness
    assert isinstance(result, Partition)
    for p in result.parts():
        assert np.linalg.matrix_rank(rows[p]) == 3


def test_matroid_deficient_certificate():
    # only one copy of e_2 in C^2: no two spanning parts
    vs = vector_system(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    out = matroid_spanning_partition(vs, 2)
    result = out.witness
    assert isinstance(result, ViolatingSet) and out.exact
    assert out.value == 2 * (vs.k - result.complement_rank) - len(result.indices) >= 1
    # the counting inequality is checkable from the pieces
    assert 2 * (vs.k - result.complement_rank) > len(result.indices)
    comp = [i for i in range(vs.n) if i not in result.indices]
    comp_rank = np.linalg.matrix_rank(vs.vectors[comp]) if comp else 0
    assert comp_rank == result.complement_rank


def test_matroid_random_rotations():
    rng = make_rng(45)
    for trial in range(10):
        k = int(rng.integers(2, 5))
        r = int(rng.integers(2, 4))
        blocks = []
        for _ in range(r):
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            q, _ = np.linalg.qr(g)
            blocks.append(q)
        vs = vector_system(np.vstack(blocks))
        perm = rng.permutation(vs.n)
        shuffled = vector_system(vs.vectors[perm])
        result = matroid_spanning_partition(shuffled, r).witness
        assert isinstance(result, Partition)
        for p in result.parts():
            assert np.linalg.matrix_rank(shuffled.vectors[p]) == k


def _matroid_input(rng, kind, n, k):
    """n vectors in C^k: general, confined to a lower-dimensional subspace,
    or scaled copies of a few coordinate vectors."""
    if kind == "general":
        return rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    if kind == "low-rank":
        d = int(rng.integers(1, k + 1))
        basis = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        return (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) @ basis
    return np.eye(k)[rng.integers(0, k, size=n)] * rng.choice([1.0, -2.0, 0.5, 1j], size=(n, 1))


def test_matroid_matches_brute_force():
    rng = make_rng(46)
    outcomes = set()
    for trial in range(60):
        kind = ("general", "low-rank", "repeated")[trial % 3]
        k = int(rng.integers(1, 4))
        r = int(rng.integers(2, 4))
        n = int(rng.integers(1, 9))
        v = _matroid_input(rng, kind, n, k)
        rank = {mask: np.linalg.matrix_rank(v[[i for i in range(n) if mask >> i & 1]])
                if mask else 0 for mask in range(2**n)}
        feasible = False
        for assign in itertools.product(range(r), repeat=n):
            masks = [0] * r
            for i, j in enumerate(assign):
                masks[j] |= 1 << i
            if all(rank[m] == k for m in masks):
                feasible = True
                break
        result = matroid_spanning_partition(vector_system(v), r).witness
        assert isinstance(result, Partition) == feasible, (trial, kind, n, k, r)
        outcomes.add((kind, feasible))
        if feasible:
            assert all(np.linalg.matrix_rank(v[p]) == k for p in result.parts())
        else:
            rest = [i for i in range(n) if i not in result.indices]
            d = np.linalg.matrix_rank(v[rest]) if rest else 0
            assert d == result.complement_rank
            assert r * (k - d) > len(result.indices)
    # every kind of input produced both outcomes
    assert len(outcomes) == 6


def test_matroid_validation():
    with pytest.raises(InvalidParameterError):
        matroid_spanning_partition(vector_system(np.eye(2)), 1)


# ---------------------------------------------------------------------------
# Gaussian radius and balancing


def test_gaussian_median_radius_k1_matches_analytic():
    ctx = gaussian_median_radius(1, samples=200_000, seed=9)
    assert ctx.R_hat == pytest.approx(0.6744897501960817, abs=0.01)
    assert ctx.M == pytest.approx(5 * ctx.R_hat)


def test_gaussian_median_radius_grows_with_k():
    r1 = gaussian_median_radius(1, samples=20_000, seed=9).R_hat
    r2 = gaussian_median_radius(2, samples=20_000, seed=9).R_hat
    r3 = gaussian_median_radius(3, samples=20_000, seed=9).R_hat
    assert r1 < r2 < r3
    with pytest.raises(InvalidParameterError):
        gaussian_median_radius(1, samples=10, seed=0)
    for k in (0, -2):
        with pytest.raises(InvalidParameterError, match="need k >= 1"):
            gaussian_median_radius(k, samples=1000, seed=0)


def reference_selfadjoint(k, c, rng):
    """c Gaussian self-adjoint matrices drawn entry by entry: the diagonal,
    then the real and imaginary part of each pair a < b."""
    h = np.zeros((c, k, k), dtype=np.complex128)
    h[:, np.arange(k), np.arange(k)] = rng.standard_normal((c, k))
    for a in range(k):
        for b in range(a + 1, k):
            re = rng.standard_normal(c) / np.sqrt(2)
            im = rng.standard_normal(c) / np.sqrt(2)
            h[:, a, b] = re + 1j * im
            h[:, b, a] = re - 1j * im
    return h


def test_selfadjoint_draws_entry_by_entry():
    for k in (1, 2, 5):
        h = engines._selfadjoint_matrices(*engines._selfadjoint_draws(k, 7, make_rng(k)))
        assert np.array_equal(h, reference_selfadjoint(k, 7, make_rng(k)))


def reference_median_radius(k, samples, seed):
    """The all-samples median: each chunk drawn by reference_selfadjoint,
    every sample eigensolved, and np.median over all of them."""
    rng = make_rng(seed)
    if k == 1:
        return float(np.median(np.abs(rng.standard_normal(samples))))
    norms = np.empty(samples)
    chunk = max(1, 2_000_000 // (k * k))
    for done in range(0, samples, chunk):
        c = min(chunk, samples - done)
        w = np.linalg.eigvalsh(reference_selfadjoint(k, c, rng))
        norms[done:done + c] = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
    return float(np.median(norms))


@SEEDED
@given(k=st.integers(1, 7), samples=st.integers(1000, 3001), seed=st.integers(0, 2**32))
@example(k=2, samples=1000, seed=0)
@example(k=3, samples=1001, seed=3)
@example(k=6, samples=60_001, seed=41)  # two chunks of up to 55,555
@example(k=2, samples=250_000, seed=5)  # several narrowing passes, blocked screens
@example(k=4, samples=60_001, seed=8)
@example(k=8, samples=20_000, seed=13)  # one pass above k^3 candidates
def test_gaussian_median_radius_bits_equal_the_all_samples_median(k, samples, seed):
    ctx = gaussian_median_radius(k, samples=samples, seed=seed)
    ref = reference_median_radius(k, samples, seed)
    assert ctx.R_hat.hex() == ref.hex()
    assert ctx.M.hex() == (5.0 * ref).hex()
    if k > 1:
        assert ctx.eigensolves < samples  # the tests placed some samples


@pytest.mark.parametrize("bracket, missed", [
    ((1.01, 1.2), True),      # just above the median
    ((0.8, 0.99), True),      # just below it
    ((1.5, 2.0), True),       # far above: more than half certified below
    ((0.2, 0.4), True),       # far below: more than half certified above
    ((0.999, 1.001), False),  # tight around it
])
def test_gaussian_median_radius_bracket_miss_reruns_to_the_same_bits(monkeypatch, bracket,
                                                                      missed):
    ref = reference_median_radius(4, 5001, 900)
    monkeypatch.setattr(engines, "_pilot_bracket", lambda norms: tuple(ref * f for f in bracket))
    ctx = gaussian_median_radius(4, samples=5001, seed=900)
    assert (ctx.eigensolves > 5001) == missed  # a miss reruns with every sample
    assert ctx.R_hat.hex() == ref.hex()


@pytest.mark.parametrize("shift", [-1e-3, 1e-3])  # a bracket below, above the median
def test_gaussian_median_radius_narrowing_miss_keeps_its_candidates(monkeypatch, shift):
    ref = reference_median_radius(4, 60_001, 3)
    narrowed = gaussian_median_radius(4, samples=60_001, seed=3)
    passes = []

    def missed(lo, hi, i, j, m):
        passes.append(m)
        return tuple(sorted((ref * (1 + shift), ref * (1 + 2 * shift))))

    monkeypatch.setattr(engines, "_narrowed_bracket", missed)
    ctx = gaussian_median_radius(4, samples=60_001, seed=3)
    assert len(passes) == 1  # a pass that misses ends the narrowing
    assert ctx.R_hat.hex() == narrowed.R_hat.hex() == ref.hex()
    assert narrowed.eigensolves < ctx.eigensolves < 60_001  # no all-samples rerun


def test_gaussian_median_radius_narrowing_eigensolves_few_candidates():
    assert gaussian_median_radius(4, 20_000, seed=1).eigensolves <= 1_600


@pytest.mark.parametrize("k", range(2, 13))
def test_gaussian_median_radius_blocked_screen_matches_a_whole_chunk_screen(monkeypatch, k):
    seen = []

    def record(k, samples, lo, hi, below, pilot, dg, od):
        seen.append((below, dg, od))
        return narrow(k, samples, lo, hi, below, pilot, dg, od)

    narrow = engines._narrow
    monkeypatch.setattr(engines, "_narrow", record)
    whole = gaussian_median_radius(k, samples=3001, seed=k)
    monkeypatch.setattr(engines, "RADIUS_BLOCK", 97)
    blocked = gaussian_median_radius(k, samples=3001, seed=k)
    (below, dg, od), (b_below, b_dg, b_od) = seen
    assert below == b_below
    assert _same_bits(dg, b_dg) and _same_bits(od, b_od)
    assert blocked.R_hat.hex() == whole.R_hat.hex()
    assert blocked.eigensolves == whole.eigensolves


def test_gaussian_median_radius_above_the_crossover_eigensolves_every_sample():
    k = engines.RADIUS_CERTIFY_MAX_K + 1
    ctx = gaussian_median_radius(k, samples=1000, seed=5)
    assert ctx.eigensolves == 1000
    assert ctx.R_hat.hex() == reference_median_radius(k, 1000, 5).hex()


@pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("gap", [1e-6, 1e-9])
def test_cholesky_certificate_agrees_with_eigvalsh_near_the_norm(k, gap):
    diag, off = engines._selfadjoint_draws(k, 400, make_rng(k))
    w = np.linalg.eigvalsh(engines._selfadjoint_matrices(diag, off))
    lo, hi, norm = w[:, 0], w[:, -1], np.max(np.abs(w), axis=1)
    dg = np.ascontiguousarray(diag.T)
    for sign, edge in ((-1, hi), (1, -lo)):  # t I - H > 0 iff t > lambda_max
        assert engines._cholesky_succeeds(edge + gap * norm, sign, dg, off).all()
        assert not engines._cholesky_succeeds(edge - gap * norm, sign, dg, off).any()
    for s in range(25):
        one_d, one_o = dg[:, s:s + 1], off[..., s:s + 1]
        assert engines._norm_below(norm[s] * (1 + gap), one_d, one_o).all()
        assert not engines._norm_below(norm[s] * (1 - gap), one_d, one_o).any()


def test_banaszczyk_search_small_exhaustive():
    rng = make_rng(46)
    vs = vector_system(random_unit_rows(8, 2, rng))
    mats = [rank_one(v) / 5.0 for v in vs.vectors]
    ctx = gaussian_median_radius(2, samples=20_000, seed=0)
    out = banaszczyk_sign_search(mats, M=ctx.M, budget=1000, seed=0)
    assert out.witness.dtype == np.int64 and out.value <= ctx.M and not out.exact
    signed = sum(s * m for s, m in zip(out.witness, mats))
    assert opnorm(signed) <= ctx.M + 1e-12


def test_banaszczyk_search_unattainable_target_reports_best():
    rng = make_rng(47)
    vs = vector_system(random_unit_rows(5, 2, rng, max_norm=0.999))
    mats = [rank_one(v) / 5.0 for v in vs.vectors]
    out = banaszczyk_sign_search(mats, M=0.0, budget=1000, seed=0)
    assert out.witness.dtype == np.int64 and out.value > 0
    signed = sum(s * m for s, m in zip(out.witness, mats))
    assert opnorm(signed) == pytest.approx(out.value, abs=1e-12)


def test_banaszczyk_search_large_heuristic_path():
    rng = make_rng(48)
    vs = vector_system(random_unit_rows(25, 2, rng))
    mats = [rank_one(v) / 5.0 for v in vs.vectors]
    ctx = gaussian_median_radius(2, samples=20_000, seed=0)
    out = banaszczyk_sign_search(mats, M=ctx.M, budget=2000, seed=1)
    assert out.value <= ctx.M
    again = banaszczyk_sign_search(mats, M=ctx.M, budget=2000, seed=1)
    assert np.array_equal(out.witness, again.witness)


def test_banaszczyk_search_rejects_large_matrices():
    with pytest.raises(InvalidParameterError):
        banaszczyk_sign_search([np.eye(2)], M=1.0)
    with pytest.raises(InvalidParameterError):
        banaszczyk_sign_search([], M=1.0)
    with pytest.raises(InvalidParameterError):
        banaszczyk_sign_search([np.full((2, 2), np.nan)] * 3, M=1.0)


# ---------------------------------------------------------------------------
# certified subset bound


def normalize_phase(u: np.ndarray) -> np.ndarray:
    """Phase-quotient representative, one vector at a time: the first entry
    of modulus > 1e-12 made real nonnegative. The reference for
    linalg._phase_normalized_rows."""
    nz = np.flatnonzero(np.abs(u) > 1e-12)
    if nz.size == 0:
        return u
    pivot = u[nz[0]]
    return u * (pivot.conjugate() / abs(pivot))


def test_normalize_phase():
    u = np.array([1j, 1.0])
    w = normalize_phase(u)
    assert w[0].imag == pytest.approx(0.0)
    assert w[0].real >= 0
    assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(u))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_phase_normalized_rows_match_normalize_phase_bitwise():
    rng = make_rng(90)
    g = rng.standard_normal((500, 4)) + 1j * rng.standard_normal((500, 4))
    g[:100, 0] = 0.0  # pivot moves to a later entry
    g[100:150, :2] = 1e-13  # entries at or below the 1e-12 threshold are skipped
    g[150:160] = 0.0  # no pivot: the row is kept
    g[160:170] = g[160:170].real  # real rows
    ref = np.array([normalize_phase(u) for u in g])
    assert _same_bits(linalg._phase_normalized_rows(g), ref)


def test_net_k1_exact():
    vs = vector_system([[0.7 + 0.1j], [0.3]])
    out = certified_subset_bound(vs, [0, 1], 0.1)
    oracle = subset_frame_bound(vs, [0, 1])
    assert out.value == pytest.approx(oracle, abs=1e-12) and out.exact
    assert oracle <= out.value + 0.1
    assert out.counters == {"net_points": 1} and out.witness.tolist() == [1.0]


def test_net_k2_certified_sandwich():
    rng = make_rng(49)
    for trial in range(5):
        vs = vector_system(random_unit_rows(6, 2, rng))
        n_level = 2.0
        mesh = 0.1 / (4 * n_level)
        gap = 2 * n_level * mesh
        net_max = certified_subset_bound(vs, range(6), gap).value
        oracle = subset_frame_bound(vs, range(6))
        assert net_max <= oracle + 1e-9
        assert oracle <= net_max + gap + 1e-9


def _system(kind, k, n, real, rng):
    """n vectors in C^k (R^k if real): random, with zero or repeated rows,
    or the rows of a matrix with orthonormal columns (a tight frame, S = I)."""
    def draw(shape):
        g = rng.standard_normal(shape)
        return g if real else g + 1j * rng.standard_normal(shape)
    if kind == "tight":
        return np.linalg.qr(draw((max(n, k), k)))[0]
    v = draw((n, k)) * rng.random((n, 1))
    if kind == "zero":
        v[rng.random(n) < 0.5] = 0.0
    elif kind == "duplicate":
        v = v[rng.integers(0, n, n)]
    return v


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(k=st.integers(1, 3), n=st.integers(1, 7), real=st.booleans(),
       kind=st.sampled_from(["random", "zero", "duplicate", "tight", "empty"]),
       gap_exp=st.floats(-2.5, 0.0), seed=st.integers(0, 2**32 - 1))
def test_certified_subset_bound_sandwiches_the_top_eigenvalue(k, n, real, kind, gap_exp, seed):
    rng = make_rng(seed)
    vs = vector_system(_system(kind, k, n, real, rng))
    subset = [] if kind == "empty" else range(vs.n)
    gap = 10.0 ** gap_exp * (1.0 + float(np.sum(vs.norms_squared())))
    budget = 100000
    out = certified_subset_bound(vs, subset, gap, budget)
    lower, witness = out.value, out.witness
    lam = subset_frame_bound(vs, subset)
    assert lower <= lam * (1 + 1e-12) <= (lower + gap) * (1 + 1e-12)
    assert out.exact
    assert 1 <= out.counters["net_points"] <= budget
    assert witness[0].imag == 0.0 and witness[0].real >= 0.0
    assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-14)


def _corners(lo, hi):
    """The 2^dim corners of the box [lo, hi]."""
    pick = np.array(list(itertools.product((0, 1), repeat=lo.size)), dtype=bool)
    return np.where(pick, hi, lo)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_box_radius_bounds_the_distance_to_the_centre(k):
    rng = make_rng(60 + k)
    top = np.repeat([np.pi / 2, 2 * np.pi], k - 1)
    for _ in range(300):
        width = top * 10.0 ** rng.uniform(-3.0, 0.0, top.size)
        lo = rng.random(top.size) * (top - width)
        lo[rng.random(top.size) < 0.3] = 0.0  # boxes at the theta = 0 and phi = 0 faces
        hi = lo + width
        r = np.linalg.norm(engines._box_bounds(np.zeros((k, k)), 0.0, lo[None], hi[None])[3])
        x = np.vstack([_corners(lo, hi), lo + rng.random((100, top.size)) * width])
        centre = engines._hopf_points(0.5 * (lo + hi)[None])
        dist = np.linalg.norm(engines._hopf_points(x) - centre, axis=1)
        assert dist.max() <= r * (1 + 1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_box_bound_holds_at_every_point_of_the_box(k):
    rng = make_rng(70 + k)
    top = np.repeat([np.pi / 2, 2 * np.pi], k - 1)
    for _ in range(300):
        lo = rng.random(top.size) * top
        hi = lo + (top - lo) * 10.0 ** rng.uniform(-2.0, 0.0, top.size)
        if rng.random() < 0.5:  # S = t P for the projection P onto u(centre)-perp
            c = engines._hopf_points(0.5 * (lo + hi)[None])[0]
            s = rng.random() * (np.eye(k) - np.outer(c, c.conj()))
        else:
            v = random_unit_rows(int(rng.integers(1, 5)), k, rng)
            s = v.T @ v.conj()
        lam = float(np.linalg.eigvalsh(s)[-1]) * (1 + 1e-12)
        _, _, bound, _ = engines._box_bounds(s, lam, lo[None], hi[None])
        u = engines._hopf_points(np.vstack([_corners(lo, hi),
                                            lo + rng.random((100, top.size)) * (hi - lo)]))
        values = np.einsum("pj,pj->p", u.conj(), u @ s.T).real
        assert values.max() <= bound[0]


def test_net_budget_refusal_and_validation():
    vs = vector_system(random_unit_rows(9, 3, make_rng(51)))
    needed = certified_subset_bound(vs, range(9), 0.05, budget=10**6).counters["net_points"]
    assert certified_subset_bound(vs, range(9), 0.05, budget=needed).counters == {
        "net_points": needed}
    with pytest.raises(BudgetExceededError):
        certified_subset_bound(vs, range(9), 0.05, budget=needed - 1)
    for gap in (0.0, -1.0, math.inf, math.nan, 1e-15):
        with pytest.raises(InvalidParameterError):
            certified_subset_bound(vs, range(9), gap)
    for subset in ([9], [-1, 0]):
        with pytest.raises(InvalidParameterError):
            certified_subset_bound(vs, subset, 0.05)


def test_net_refuses_a_repeated_index():
    with pytest.raises(InvalidParameterError, match="distinct"):
        certified_subset_bound(vector_system(np.eye(2)), [0, 0], 0.1)


def test_net_empty_subset():
    vs = vector_system(np.eye(2))
    out = certified_subset_bound(vs, [], 0.4)
    assert (out.value, out.value + 0.4, out.counters["net_points"]) == (0.0, 0.4, 1)


def per_point_sum(points, vectors):
    """max over points u of sum_i |<u, v_i>|^2, one point at a time."""
    return max(sum(abs(np.vdot(v, u)) ** 2 for v in vectors) for u in points)


@pytest.mark.parametrize("k, mesh", [(1, 0.05), (2, 0.2), (3, 0.9)])
@pytest.mark.parametrize("seed", range(4))
def test_net_bound_matches_per_point_sum(k, mesh, seed):
    rng = make_rng(400 + seed)
    vs = vector_system(random_unit_rows(7, k, rng))
    for size in (0, 1, 3, 7):
        subset = sorted(rng.choice(7, size=size, replace=False).tolist())
        out = certified_subset_bound(vs, subset, 2.0 * 2.0 * mesh)
        assert out.exact
        ref = per_point_sum([out.witness], vs.vectors[subset])
        assert out.value == pytest.approx(ref, rel=1e-13, abs=0.0)
