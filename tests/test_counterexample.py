import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedisc import (
    BudgetExceededError,
    InvalidParameterError,
    counterexample_vectors,
    frame_bound,
    frame_operator,
    rank_one,
    signed_norm_lower_bound,
    subset_center_distance,
    verify_counterexample,
)
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


def _loop_subset_deviation(inst, masks):
    """max |direct - closed| summing <e_k, v'_i> v'_i one subset at a time."""
    k = inst.k
    e_k = np.zeros(k)
    e_k[-1] = 1.0
    dev = 0.0
    for mask in masks:
        x = [i for i in range(k - 1) if int(mask) >> i & 1]
        total = np.zeros(k, dtype=np.complex128)
        for i in x:
            v = inst.primed.vectors[i]
            total += np.vdot(v, e_k) * v
        c = len(x)
        closed = math.sqrt(c * (k - 1 - c) / (k - 1) ** 3 + (c / (k - 1) - 0.5) ** 2)
        dev = max(dev, abs(float(np.linalg.norm(total - 0.5 * e_k)) - closed))
    return dev


@pytest.mark.parametrize("k", [5, 9, 12, 13, 20])
def test_subset_check_matches_per_subset_loop(k):
    inst = counterexample_vectors(k)
    report = verify_counterexample(inst, mode="heuristic", seed=3, budget=50)
    masks = range(2 ** (k - 1)) if k <= 12 else \
        make_rng(3).integers(0, 2 ** (k - 1), size=256)
    computed = next(c.computed for c in report.claims
                    if c.name == "closed_form_subset_distance_agreement")
    # both sides are sums of at most k - 1 terms of size <= 1/2, so summing
    # in another order moves them by a few eps
    assert computed == pytest.approx(_loop_subset_deviation(inst, masks), abs=8 * k * 2**-52)
    assert computed <= 1e-12
    for mask in list(masks)[:20]:
        x = [i for i in range(k - 1) if int(mask) >> i & 1]
        direct, closed = subset_center_distance(inst, x)
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
