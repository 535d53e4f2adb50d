import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedisc import (
    BudgetExceededError,
    InvalidParameterError,
    VectorSystem,
    counterexample_vectors,
    frame_bound,
    frame_operator,
    rank_one,
    signed_norm_lower_bound,
    subset_center_distance,
    verify_counterexample,
)
from framedisc import counterexample
from framedisc.counterexample import _orbit_eigenvalue, _orbit_minimum, _orbit_sums
from framedisc.linalg import _opnorm
from framedisc.rng import make_rng

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def test_family_constants_k5():
    inst = counterexample_vectors(5)
    assert inst.alpha == pytest.approx(0.125)
    assert inst.beta == pytest.approx(0.5)
    assert inst.delta == pytest.approx(7 / 16)
    assert inst.N == pytest.approx(16 / 7)
    assert np.allclose(inst.primed.vectors[0],
                       [0.375, -0.125, -0.125, -0.125, 0.5], atol=1e-15)


def test_family_norms_and_frame_bound():
    for k in (5, 7, 11):
        inst = counterexample_vectors(k)
        assert np.max(np.abs(inst.primed.norms_squared() - inst.delta)) <= 1e-14
        assert np.max(np.abs(inst.normalized.norms_squared() - 1.0)) <= 1e-12
        assert frame_bound(inst.normalized) == pytest.approx(inst.N, abs=1e-9)
        assert frame_bound(inst.normalized) == pytest.approx(
            (k - 1) ** 2 / (2 * k - 3), abs=1e-9)


def test_primed_frame_operator_fixes_last_basis_vector():
    for k in (5, 9):
        inst = counterexample_vectors(k)
        e_k = np.zeros(k)
        e_k[-1] = 1.0
        assert np.linalg.norm(frame_operator(inst.primed) @ e_k - e_k) <= 1e-12


def test_subset_center_distance_matches_closed_form():
    inst = counterexample_vectors(5)
    direct, closed = subset_center_distance(inst, [0, 1])
    # c = 2, k = 5: sqrt(2*2/64 + 0) = 1/4
    assert closed == pytest.approx(0.25, abs=1e-15)
    assert direct == pytest.approx(closed, abs=1e-13)
    d_empty, c_empty = subset_center_distance(inst, [])
    assert d_empty == pytest.approx(0.5, abs=1e-15)
    assert c_empty == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(InvalidParameterError):
        subset_center_distance(inst, [9])
    with pytest.raises(InvalidParameterError, match="distinct"):
        subset_center_distance(counterexample_vectors(6), [1, 1])


def test_subset_center_distance_depends_only_on_size():
    inst = counterexample_vectors(7)
    d1, _ = subset_center_distance(inst, [0, 1, 2])
    d2, _ = subset_center_distance(inst, [3, 4, 5])
    assert d1 == pytest.approx(d2, abs=1e-13)


@SEEDED
@given(k=st.integers(5, 40), seed=st.integers(0, 2**32 - 1), share=st.floats(0.0, 1.0))
def test_subset_distance_is_the_closed_form_in_c(k, seed, share):
    inst = counterexample_vectors(k)
    X = np.flatnonzero(make_rng(seed).random(k - 1) < share)
    c = X.size
    direct, closed = subset_center_distance(inst, X)
    assert closed == pytest.approx(
        math.sqrt(c * (k - 1 - c) / (k - 1) ** 3 + (c / (k - 1) - 0.5) ** 2), rel=1e-15)
    assert abs(direct - closed) <= 1e-12  # the verify-weaver claim's tolerance


def test_signed_norm_lower_bound_values():
    assert signed_norm_lower_bound(5) == pytest.approx(8 / 7, abs=1e-15)
    for k in (20, 50, 100, 200):
        ratio = signed_norm_lower_bound(k) / math.sqrt(k)
        assert 0.4 <= ratio <= 0.6


@pytest.mark.parametrize("k", [1, 2, 4, 5.5])
def test_signed_norm_lower_bound_refuses_k_outside_the_family(k):
    with pytest.raises(InvalidParameterError, match="integer k >= 5"):
        signed_norm_lower_bound(k)


def test_verify_counterexample_exhaustive():
    report = verify_counterexample(counterexample_vectors(5))
    assert report.passed
    assert report.extra["min_signed_norm_or_bound"] >= report.extra["lower_bound"] - 1e-9


def test_verify_counterexample_heuristic():
    report = verify_counterexample(counterexample_vectors(5), mode="heuristic",
                                   seed=1, budget=500)
    assert report.passed
    # heuristic reports an upper bound, still above the proven floor
    assert report.extra["min_signed_norm_or_bound"] >= report.extra["lower_bound"] - 1e-9
    # the seed is recorded, and no claim depends on it
    other = verify_counterexample(counterexample_vectors(5), mode="heuristic",
                                  seed=2, budget=500)
    assert other.claims == report.claims and other.seed == 2


def perturbed_family(k):
    """The family at k with v'_2's first entry moved by 1e-6."""
    inst = counterexample_vectors(k)
    v = inst.primed.vectors.copy()
    v[2, 0] += 1e-6
    vars(inst)["primed"] = VectorSystem(v)  # a cached_property's slot
    return inst


def claim_named(report, name):
    return next(c for c in report.claims if c.name == name)


def test_a_perturbed_primed_vector_fails_the_e_k_claim_in_exhaustive_mode():
    # exhaustive mode sums <e_k, v'_i> v'_i from the vectors themselves;
    # heuristic mode sums it from (k, alpha, beta), so it cannot see them
    clean = claim_named(verify_counterexample(counterexample_vectors(9)),
                        "primed_frame_fixes_e_k")
    assert clean.passed and clean.computed < 1e-15
    inst = perturbed_family(9)
    claim = claim_named(verify_counterexample(inst), "primed_frame_fixes_e_k")
    assert not claim.passed
    assert claim.computed == pytest.approx(inst.beta * 1e-6, rel=1e-6)
    assert claim_named(verify_counterexample(inst, mode="heuristic"),
                       "primed_frame_fixes_e_k").passed


def test_a_perturbed_primed_vector_fails_the_subset_claim_in_exhaustive_mode():
    # the prefix sums carry v'_2's error into every count c > 2
    inst = perturbed_family(9)
    claim = claim_named(verify_counterexample(inst), "closed_form_subset_distance_agreement")
    assert not claim.passed and claim.computed > 1e-8
    assert claim_named(verify_counterexample(inst, mode="heuristic"),
                       "closed_form_subset_distance_agreement").passed


def _loop_prefix_deviation(inst):
    """max |direct - closed| over the prefix subsets {0, ..., c-1},
    summing <e_k, v'_i> v'_i one vector at a time."""
    k = inst.k
    e_k = np.zeros(k)
    e_k[-1] = 1.0
    dev = 0.0
    total = np.zeros(k, dtype=np.complex128)
    for c in range(k):
        if c:
            v = inst.primed.vectors[c - 1]
            total += np.vdot(v, e_k) * v
        closed = math.sqrt(c * (k - 1 - c) / (k - 1) ** 3 + (c / (k - 1) - 0.5) ** 2)
        dev = max(dev, abs(float(np.linalg.norm(total - 0.5 * e_k)) - closed))
    return dev


@pytest.mark.parametrize("k", [5, 9, 12, 13, 20])
def test_subset_check_matches_per_subset_loop(k):
    inst = counterexample_vectors(k)
    # both sides are sums of at most k - 1 terms of size <= 1/2, so summing
    # in another order moves them by a few eps
    for mode in ("heuristic", "exhaustive"):
        report = verify_counterexample(inst, mode=mode, seed=3, budget=2 ** (k - 2))
        computed = claim_named(report, "closed_form_subset_distance_agreement").computed
        assert computed == pytest.approx(_loop_prefix_deviation(inst), abs=8 * k * 2**-52)
        assert computed <= 1e-12
    for c in range(k):
        direct, closed = subset_center_distance(inst, range(c))
        assert direct == pytest.approx(closed, abs=8 * k * 2**-52)


def test_verify_counterexample_refusals():
    with pytest.raises(BudgetExceededError):
        verify_counterexample(counterexample_vectors(25), mode="exhaustive")
    with pytest.raises(InvalidParameterError):
        verify_counterexample(counterexample_vectors(5), mode="bogus")
    with pytest.raises(InvalidParameterError):
        counterexample_vectors(4)


def test_normalized_rank_ones_have_trace_one_and_sqrt_k_floor():
    mats = [rank_one(v) for v in counterexample_vectors(30).normalized.vectors]
    assert len(mats) == 29
    for m in mats[:3]:
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
    assert 0.4 <= signed_norm_lower_bound(30) / math.sqrt(30) <= 0.6


def dense_orbit_norms(k, counts):
    """||S_c|| for the explicit k x k sums with the first c of the k - 1
    normalized vectors negative, one per c in ``counts``."""
    v = counterexample_vectors(k).normalized.vectors.real
    signs = np.where(np.arange(k - 1) < np.asarray(counts)[:, None], -1.0, 1.0)
    return _opnorm((v.T * signs[:, None, :]) @ v)


def closed_orbit_norms(k, counts):
    """max(||T_c||, w) from the 3 x 3 sums."""
    t = _orbit_sums(counterexample_vectors(k), np.asarray(counts))
    return np.maximum(_opnorm(t), (k - 1) / (2 * k - 3))


def test_orbit_sums_match_dense_sums_at_every_count():
    # c = k - 1 (no plus sign) is the global flip of c = 0
    for k in range(5, 61):
        counts = np.arange(k - 1)
        assert np.allclose(closed_orbit_norms(k, counts), dense_orbit_norms(k, counts),
                           rtol=1e-12, atol=0.0), k


@pytest.mark.parametrize("k", [97, 160, 233, 301])
def test_orbit_sums_match_dense_sums_at_sampled_counts(k):
    half = (k - 1) // 2
    counts = [0, 1, 2, half // 2, half - 1, half, half + 1, k - 3, k - 2]
    assert np.allclose(closed_orbit_norms(k, counts), dense_orbit_norms(k, counts),
                       rtol=1e-12, atol=0.0)


EPS = 2.0**-52


def closed_tolerance(k):
    """The closed-form claim's tolerance, 32 eps s: s = k(k-1)/(2k-3) is the
    sum of the norms of T_c's two terms."""
    return 32 * EPS * k * (k - 1) / (2 * k - 3)


def extreme_eigenvalues(stack):
    """Each matrix's eigenvalue of largest modulus, with its sign."""
    w = np.linalg.eigvalsh(stack)
    return np.where(-w[:, 0] > w[:, -1], w[:, 0], w[:, -1])


@pytest.mark.parametrize("k", range(5, 13))
def test_closed_form_matches_every_dense_pattern(k):
    # every pattern with s_0 = +1, so counts c past (k-1)/2, where t_c < 0
    # and lambda_c is negative, are reached; at t_c = 0 (the middle count
    # of odd k) the two signs tie and only the modulus is compared
    v = counterexample_vectors(k).normalized.vectors.real
    signs = np.array([(1,) + tail for tail in itertools.product((1, -1), repeat=k - 2)],
                     dtype=float)
    dense = extreme_eigenvalues((v.T * signs[:, None, :]) @ v)
    c = np.count_nonzero(signs < 0, axis=1)
    closed = _orbit_eigenvalue(k, c)
    tie = 2 * c == k - 1
    assert np.all(np.abs(dense - closed)[~tie] <= closed_tolerance(k))
    assert np.all(np.abs(np.abs(dense) - np.abs(closed)) <= closed_tolerance(k))
    assert np.any(closed < 0) and np.all((closed < 0) == (2 * c > k - 1))


def test_closed_form_matches_the_orbit_sums_at_every_count():
    # T_c needs p > 0; c = k - 1 is the global flip of c = 0
    for k in range(5, 301):
        c = np.arange(k - 1)
        ref = extreme_eigenvalues(_orbit_sums(counterexample_vectors(k), c))
        closed = _orbit_eigenvalue(k, c)
        gap = np.where(2 * c == k - 1, np.abs(np.abs(ref) - closed), np.abs(ref - closed))
        assert np.all(gap <= closed_tolerance(k)), k
        assert _orbit_eigenvalue(k, k - 1) == -closed[0]


def test_trace_and_determinant_are_exact_in_the_gram_entries():
    # B_c = diag(1, -1) G diag(p, c) / delta from the Gram entries of the
    # v'_i (alpha^2 = (k-1)^-3, beta^2 = (k-1)^-1): <v'_i, v'_i> = delta,
    # <v'_i, v'_j> = gamma, p G_PP = delta + (p-1) gamma, c G_MM = delta +
    # (c-1) gamma and G_PM = gamma. Its trace is t_c and its determinant
    # -F^2 exactly, and the float lambda_c is a root of x^2 - t_c x - F^2
    # of the sign of t_c, so the larger in modulus, to rounding
    for k in range(5, 201):
        a2, b2 = Fraction(1, (k - 1) ** 3), Fraction(1, k - 1)
        delta = ((k - 2) ** 2 + (k - 2)) * a2 + b2
        gamma = (1 - k) * a2 + b2
        assert delta == Fraction(2 * k - 3, (k - 1) ** 2)
        f2 = Fraction((k - 1) ** 3, (2 * k - 3) ** 2)
        lam = _orbit_eigenvalue(k, np.arange(k))
        for c in range(k):
            p = k - 1 - c
            b11, b12 = (delta + (p - 1) * gamma) / delta, c * gamma / delta
            b21, b22 = -p * gamma / delta, -(delta + (c - 1) * gamma) / delta
            t = b11 + b22
            assert t == Fraction((k - 2) * (k - 1 - 2 * c), 2 * k - 3), (k, c)
            assert b11 * b22 - b12 * b21 == -f2, (k, c)
            x = Fraction(float(lam[c]))
            assert abs(x * x - t * x - f2) <= 8 * EPS * x * x, (k, c)
            assert (x > 0) == (t >= 0), (k, c)


def closed_claim(report):
    return claim_named(report, "orbit_minimum_matches_closed_form")


def test_orbit_minimum_matches_the_closed_form():
    # for odd k, t_c = 0 at c = (k-1)/2 and the closed form is the floor
    for k in [*range(5, 2001), 10**6 + 1]:
        report = verify_counterexample(counterexample_vectors(k), mode="heuristic", budget=k)
        claim = closed_claim(report)
        assert report.passed and claim.passed, k
        assert claim.computed == report.extra["min_signed_norm_or_bound"]
        assert claim.tolerance == closed_tolerance(k)
        if k % 2:
            assert claim.bound == pytest.approx(signed_norm_lower_bound(k), rel=4 * EPS)
        else:
            assert claim.bound > signed_norm_lower_bound(k) * (1 + 1e-9)


def test_the_closed_form_claim_needs_a_tolerance_in_s_at_large_even_k():
    # T_c's two terms, of size about k/4, cancel to about sqrt(k)/2: at
    # k = 933,554 the eigvalsh minimum lies more than 16 ulps of m from the
    # closed form, and within 32 eps s
    k = 933554
    report = verify_counterexample(counterexample_vectors(k), mode="heuristic", budget=k)
    claim = closed_claim(report)
    assert report.passed and claim.passed
    assert abs(claim.computed - claim.bound) > 16 * math.ulp(claim.bound)


@pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6])
@pytest.mark.parametrize("k", [9, 10])
@pytest.mark.parametrize("mode", ["heuristic", "exhaustive"])
def test_a_perturbed_minimum_fails_the_closed_form_claim(monkeypatch, mode, k, factor):
    # a minimum too low lies below the attained pattern's norm (and, for
    # odd k, below the floor); one too high leaves the minimizing patterns
    # below the threshold
    def perturbed(inst, budget):
        m, solves = orbit(inst, budget)
        return m * factor, solves

    orbit = _orbit_minimum
    monkeypatch.setattr(counterexample, "_orbit_minimum", perturbed)
    report = verify_counterexample(counterexample_vectors(k), mode=mode)
    failed = {c.name for c in report.claims if not c.passed}
    expected = {"orbit_minimum_matches_closed_form"}
    if mode == "exhaustive":
        expected.add("orbit_minimum_attained")
        if factor > 1:
            expected.add("no_pattern_below_orbit_minimum")
    if factor < 1 and k % 2:
        expected.add("signed_norm_floor")
    assert failed == expected and not report.passed


def test_heuristic_mode_builds_no_vector_and_stays_small():
    # the k - 1 vectors at k = 10^5 would take 160 GB as complex128; the
    # orbit minimum and the subset claims take O(k) memory
    inst = counterexample_vectors(10**5)
    tracemalloc.start()
    try:
        report = verify_counterexample(inst, mode="heuristic", budget=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.extra["orbit_eigensolves"] == 50000
    assert report.extra["eigensolves"] == 0
    assert peak < 8 * 2**20
    assert "primed" not in vars(inst) and "normalized" not in vars(inst)


def test_orbit_minimum_counts_the_complement(monkeypatch):
    # on the complement of its 3-dimensional span a sum acts as +-w, so a
    # norm is never below w = (k-1)/(2k-3), however small T_c is
    monkeypatch.setattr(counterexample, "_orbit_sums", lambda inst, c: np.zeros((len(c), 3, 3)))
    assert _orbit_minimum(counterexample_vectors(9)) == (8 / 15, 5)
