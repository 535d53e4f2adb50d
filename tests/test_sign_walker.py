"""The blocked Gray-code sign walker behind exhaustive_sign_search, checked
against brute-force and one-pattern-at-a-time reference walks kept here;
the Cholesky certificate that lets the sign search skip eigensolves,
checked against a reference search that eigensolves every pattern, and its
trace-first screen against one that tries both sides of every sum; the
same certificate as a classifier of sign patterns against a threshold; the
Weaver family's orbit minimum behind verify_counterexample, and the
exhaustive mode's Rayleigh witness check that no pattern lies below it,
checked against eigensolving every pattern of perturbed families; and the
greedy-flip Banaszczyk sign search, checked against a reference loop."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedisc import (
    BudgetExceededError,
    InvalidParameterError,
    banaszczyk_sign_search,
    exhaustive_sign_search,
    opnorm,
    rank_one,
    vector_system,
)
from framedisc import counterexample, engines
from framedisc.counterexample import (_orbit_minimum, _orbit_witness, _uncertified_patterns,
                                      counterexample_vectors, verify_counterexample)
from framedisc.engines import WALK_ETA
from framedisc.linalg import _cholesky_factors, _opnorm
from framedisc.rng import make_rng

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=40)
SEEDS = st.integers(0, 2**32 - 1)


def unit_rows(seed, n, k, real):
    rng = make_rng(seed)
    g = rng.standard_normal((n, k))
    if not real:
        g = g + 1j * rng.standard_normal((n, k))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def brute_force(v):
    """(signs, ||sum_i s_i v_i v_i*||) for every pattern with s_0 = +1, in
    lexicographic order of the signs."""
    out = []
    for tail in itertools.product((-1, 1), repeat=v.shape[0] - 1):
        s = (1,) + tail
        m = sum(si * np.outer(vi, vi.conj()) for si, vi in zip(s, v))
        out.append((s, float(np.max(np.abs(np.linalg.eigvalsh(m))))))
    return out


def sequential_walk(mats, b):
    """{signs: norm} for the walk one pattern per eigensolve: the first n - b
    signs in Gray order (s_0 = +1), each step flipping one sign and updating
    H by -+2 M_i, and under each of them every pattern of the last b signs,
    whose sum L is added up left to right from zero; a pattern's norm is
    that of H + L."""
    n = len(mats)
    signs = np.ones(n - b, dtype=np.int64)
    h = np.sum(mats[:n - b], axis=0)
    out = {}
    for step in range(2 ** (n - b - 1)):
        if step:
            i = (step & -step).bit_length()
            h = h - 2 * signs[i] * mats[i]
            signs[i] = -signs[i]
        for low in itertools.product((1, -1), repeat=b):
            total = np.zeros_like(h)
            for s, m in zip(low, mats[n - b:]):
                total = total + m if s > 0 else total - m
            out[tuple(signs.tolist()) + low] = np.max(np.abs(np.linalg.eigvalsh(h + total)))
    return out


def blocked_walk(mats):
    """{signs: norm} over the blocks of _sign_blocks, each eigensolved whole."""
    low, table, blocks = engines._sign_blocks(mats)
    out = {}
    for high, h in blocks:
        signs = engines._block_signs(high, low, np.arange(len(table)))
        out.update(zip(map(tuple, signs.tolist()), _opnorm(table + h)))
    return out


def all_patterns_search(vs):
    """exhaustive_sign_search as it was before the Cholesky certificate:
    every pattern of every block eigensolved, the same tie rule."""
    vecs = engines._real_if_real(vs.vectors)
    if vs.n < vs.k:
        w, u = np.linalg.eigh(vecs.conj() @ vecs.T)
        vecs = ((u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T).T
    mats = vecs[:, :, None] * vecs.conj()[:, None, :]
    low, table, blocks = engines._sign_blocks(mats)
    best_val, best_signs = np.inf, None
    for high, h in blocks:
        vals = _opnorm(table + h)
        val = vals.min()
        if val <= best_val:
            ties = engines._block_signs(high, low, np.flatnonzero(vals == val))
            key = min(map(tuple, ties.tolist()))
            if val < best_val or key < best_signs:
                best_val, best_signs = val, key
    return list(best_signs), float(best_val)


def hexed(result):
    signs, value = result
    return [int(x) for x in signs], float(value).hex()


@SEEDED
@given(seed=SEEDS, shape=st.sampled_from([(1, 1), (1, 3), (3, 7), (5, 8), (4, 4), (6, 6),
                                          (7, 3), (8, 2)]),
       real=st.booleans())
def test_walk_matches_brute_force(seed, shape, real):
    # n < k takes the Gram path, real input the real path
    v = unit_rows(seed, *shape, real)
    out = exhaustive_sign_search(vector_system(v))
    sv, value = out.witness, out.value
    ref = brute_force(v)
    best = min(val for _, val in ref)
    assert value == pytest.approx(best, rel=1e-12, abs=1e-15)
    assert sv[0] == 1
    assert opnorm(sum(s * rank_one(x) for s, x in zip(sv, v))) == pytest.approx(
        value, rel=1e-12, abs=1e-15)
    near = [s for s, val in ref if val <= best + 1e-9]
    if len(near) == 1:
        assert tuple(sv) == near[0]


@pytest.mark.parametrize("n, k", [(9, 4), (6, 6), (1, 1)])
def test_block_size_does_not_change_complex_walk(monkeypatch, n, k):
    # the table holds the last b signs; every pattern's norm carries the
    # bits of its own H + L, whatever b the byte cap gives
    v = unit_rows(7, n, k, real=False)
    mats = np.stack([rank_one(x) for x in v])
    results = []
    for cap in (engines.WALK_BLOCK_BYTES, 1, 64, 2 ** (n - 1) * mats[0].nbytes):
        monkeypatch.setattr(engines, "WALK_BLOCK_BYTES", cap)
        ref = sequential_walk(mats, engines._low_bits(mats))
        walk = blocked_walk(mats)
        assert len(ref) == 2 ** (n - 1) and walk.keys() == ref.keys()
        assert all(walk[s].hex() == ref[s].hex() for s in ref)  # bitwise
        out = exhaustive_sign_search(vector_system(v))
        sv, value = out.witness, out.value
        assert hexed((sv, value)) == hexed(all_patterns_search(vector_system(v)))
        results.append((sv.tolist(), value))
    # a different b adds the same terms in another order: the same witness,
    # a value a few ulps away
    for signs, value in results:
        assert signs == results[0][0]
        assert value == pytest.approx(results[0][1], rel=1e-14)


@pytest.mark.parametrize("cap", [1, 64, engines.WALK_BLOCK_BYTES])
def test_exact_ties_go_to_the_lexicographically_smallest_signs(monkeypatch, cap):
    # sum_i s_i e_i e_i* = diag(s): every pattern has norm exactly 1
    monkeypatch.setattr(engines, "WALK_BLOCK_BYTES", cap)
    out = exhaustive_sign_search(vector_system(np.eye(5)))
    sv, value = out.witness, out.value
    assert value == 1.0
    assert sv.tolist() == [1, -1, -1, -1, -1]


def test_walk_block_holds_at_most_the_byte_cap():
    mats = np.stack([rank_one(x) for x in unit_rows(3, 12, 5, real=False)])
    cap = engines.WALK_BLOCK_BYTES
    low, table, blocks = engines._sign_blocks(mats)
    highs = [high.tolist() for high, _ in blocks]
    assert len(highs) > 1 and len(highs) * len(table) == 2**11
    assert table.nbytes <= cap < 2 * table.nbytes
    assert low.shape == (len(table), 12 - len(highs[0]))
    assert len({tuple(h) for h in highs}) == len(highs) and all(h[0] == 1 for h in highs)


CAPS = [1, 64, engines.WALK_BLOCK_BYTES, None]  # None: the whole walk in one block


@SEEDED
@given(seed=SEEDS, n=st.integers(1, 10), k=st.integers(1, 6), real=st.booleans(),
       copies=st.sampled_from([1, 2, 3]), cap=st.sampled_from(CAPS))
def test_certified_search_matches_all_patterns_search(seed, n, k, real, copies, cap):
    # copies > 1 repeats each vector, so minima are rounding residues and
    # many patterns tie; n < k takes the Gram path, real input the real path
    v = np.repeat(unit_rows(seed, n, k, real), copies, axis=0)[:max(n, 2 * copies)]
    vs = vector_system(v)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engines, "WALK_BLOCK_BYTES",
                   2 ** vs.n * vs.k * vs.k * 16 if cap is None else cap)
        out = exhaustive_sign_search(vs)
        sv, value, counters = out.witness, out.value, out.counters
        assert hexed((sv, value)) == hexed(all_patterns_search(vs))
    assert 1 <= counters["eigensolves"] <= 2 ** (vs.n - 1) + (vs.n < vs.k)


@pytest.mark.parametrize("k", range(6, 16))
def test_weaver_search_matches_all_patterns_search(k):
    vs = counterexample_vectors(k).normalized
    out = exhaustive_sign_search(vs)
    sv, value, counters = out.witness, out.value, out.counters
    assert hexed((sv, value)) == hexed(all_patterns_search(vs))
    if k >= 12:  # several blocks: the certificate skips eigensolves
        assert counters["eigensolves"] < 2 ** (k - 2)
    if k == 15:  # both factorizations rule patterns out
        assert counters["eigensolves"] < 2 ** (k - 2) // 4


def screened_patterns(vs, t):
    """(signs, norms) of the patterns the sign search's loop keeps with
    its screen held at t, eigensolved."""
    mats, _, _ = engines._walk_terms(vs, 2**23)
    kept = list(engines._screened_blocks(mats, lambda: t))
    signs = np.concatenate([np.zeros((0, vs.n), dtype=np.int64)] + [s for s, _ in kept])
    return signs, np.concatenate([np.zeros(0)] + [v for _, v in kept])


@SEEDED
@given(seed=SEEDS, n=st.integers(1, 10), k=st.integers(1, 6), real=st.booleans(),
       copies=st.sampled_from([1, 2, 3]), q=st.floats(0, 1),
       above=st.sampled_from([0.0, 1e-7, 1e-3]), cap=st.sampled_from(CAPS))
def test_certificate_classifies_patterns_against_the_threshold(seed, n, k, real, copies, q,
                                                               above, cap):
    # t sits at or just above a pattern's own norm (q picks which), where
    # near-ties crowd; copies > 1 repeats vectors, so many norms are
    # rounding residues
    v = np.repeat(unit_rows(seed, n, k, real), copies, axis=0)[:max(n, 2 * copies)]
    vs = vector_system(v)
    ref = dict(brute_force(v))
    t = float(np.quantile(list(ref.values()), q, method="lower")) * (1 + above)
    margin = WALK_ETA * float(np.sum(vs.norms_squared()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engines, "WALK_BLOCK_BYTES",
                   2 ** vs.n * vs.k * vs.k * 16 if cap is None else cap)
        signs, norms = screened_patterns(vs, t)
    kept = {tuple(s) for s in signs.tolist()}
    assert len(kept) == len(signs) == len(norms) and all(s[0] == 1 for s in kept)
    assert {s for s, val in ref.items() if val < t - margin} <= kept
    assert all(ref[s] < t + margin for s in kept)
    for s, val in zip(signs.tolist(), norms):
        assert val == pytest.approx(ref[tuple(s)], rel=1e-12, abs=margin)


@SEEDED
@given(seed=SEEDS, n=st.integers(1, 10), k=st.integers(1, 6), real=st.booleans(),
       copies=st.sampled_from([1, 2, 3]), weaver=st.sampled_from([None, 5, 8, 12]),
       cap=st.sampled_from(CAPS))
def test_search_takes_the_least_pattern_the_certificate_keeps(seed, n, k, real, copies,
                                                              weaver, cap):
    # every pattern within the margin of the minimum survives the screen
    # held at value + 2 margin, so its least norm, and the smallest signs
    # among its ties, are the search's result; n < k takes the Gram path,
    # real input the real path, copies > 1 repeats vectors, and ``weaver``
    # takes the family at that k instead
    if weaver is None:
        vs = vector_system(np.repeat(unit_rows(seed, n, k, real), copies,
                                     axis=0)[:max(n, 2 * copies)])
    else:
        vs = counterexample_vectors(weaver).normalized
    margin = WALK_ETA * float(np.sum(vs.norms_squared()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engines, "WALK_BLOCK_BYTES",
                   2 ** vs.n * vs.k * vs.k * 16 if cap is None else cap)
        out = exhaustive_sign_search(vs)
        sv, value = out.witness, out.value
        signs, norms = screened_patterns(vs, value + 2 * margin)
    least = norms.min()
    assert least.hex() == value.hex()
    assert min(map(tuple, signs[norms == least].tolist())) == tuple(sv.tolist())


def test_certificate_refuses_past_the_budget():
    # the witness check of k = 7 covers 2^5 = 32 patterns
    inst = counterexample_vectors(7)
    assert verify_counterexample(inst, budget=32).extra["patterns_certified"] == 32
    with pytest.raises(BudgetExceededError):
        verify_counterexample(inst, budget=31)


def both_sides_screen(h, table, t):
    """The rows r of the sums S = H + table[r] where both t I - S and
    t I + S factor, both sides tried on every sum, each formed as the walk's
    screen forms it."""
    eye = np.eye(table.shape[-1])
    return np.flatnonzero(_cholesky_factors((t * eye - h) - table)
                          & _cholesky_factors((t * eye + h) + table))


def screen_matches_both_sides(vs, thresholds):
    mats, _, _ = engines._walk_terms(vs, 2**23)
    _, table, blocks = engines._sign_blocks(mats)
    table = table[np.argsort(np.trace(table, axis1=1, axis2=2).real)]
    screen = engines._walk_screen(table)
    for _, h in blocks:
        for t in thresholds:
            rows, sums = screen(h, t)
            assert np.array_equal(rows, both_sides_screen(h, table, t))
            assert np.array_equal(sums, table[rows] + h)
        rows, sums = screen(h)
        assert np.array_equal(rows, np.arange(len(table)))
        assert np.array_equal(sums, table + h)


@SEEDED
@given(seed=SEEDS, n=st.integers(1, 10), k=st.integers(1, 6), real=st.booleans(),
       copies=st.sampled_from([1, 2, 3]), q=st.floats(0, 1),
       above=st.sampled_from([0.0, 1e-7, 1e-3]), cap=st.sampled_from(CAPS))
def test_trace_first_screen_keeps_what_both_sides_keep(seed, n, k, real, copies, q, above,
                                                       cap):
    # the screen tries each sum first on the side its trace points to and
    # the other side only if that factors; n < k takes the Gram path, real
    # input the real path, and copies > 1 repeats vectors, so that many
    # sums tie and many traces are equal
    v = np.repeat(unit_rows(seed, n, k, real), copies, axis=0)[:max(n, 2 * copies)]
    vs = vector_system(v)
    norms = [val for _, val in brute_force(v)]
    t = float(np.quantile(norms, q, method="lower")) * (1 + above)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engines, "WALK_BLOCK_BYTES",
                   2 ** vs.n * vs.k * vs.k * 16 if cap is None else cap)
        screen_matches_both_sides(vs, [t])


@pytest.mark.parametrize("k", [9, 13])
def test_trace_first_screen_keeps_what_both_sides_keep_on_weaver(k):
    # around the orbit minimum, where sums of both trace signs survive one
    # side and fail the other
    inst = counterexample_vectors(k)
    value, _ = _orbit_minimum(inst)
    screen_matches_both_sides(inst.normalized, [value * 0.999, value, value * 1.05, value * 2])


ROTATION = np.linalg.qr(make_rng(11).standard_normal((5, 5)))[0]


@pytest.mark.parametrize("cap", [1, 64, engines.WALK_BLOCK_BYTES])
@pytest.mark.parametrize("v, solves", [(ROTATION, 16), (np.eye(6)[:4], 8 + 1)])
def test_all_ties_are_all_eigensolved_and_go_to_the_smallest_signs(monkeypatch, cap, v,
                                                                   solves):
    # every pattern ties up to rounding, so every sum survives the screen;
    # n < k adds the Gram square root's eigensolve
    monkeypatch.setattr(engines, "WALK_BLOCK_BYTES", cap)
    vs = vector_system(v)
    out = exhaustive_sign_search(vs)
    sv, value, counters = out.witness, out.value, out.counters
    assert hexed((sv, value)) == hexed(all_patterns_search(vs))
    assert counters["eigensolves"] == solves


@pytest.mark.parametrize("cap", [1, 64, engines.WALK_BLOCK_BYTES])
@pytest.mark.parametrize("v", [np.repeat(np.eye(3), 2, axis=0),
                               np.vstack([np.eye(5)[:1], np.eye(5)]),
                               np.vstack([np.eye(4)[:1]] * 3 + [np.eye(4)])])
def test_diagonal_sums_are_never_certified(monkeypatch, cap, v):
    # vectors on single coordinates make every signed sum diagonal; the
    # screen rules diagonal sums out as it does dense ones, so only the
    # witness and value are pinned, against eigensolving every pattern
    monkeypatch.setattr(engines, "WALK_BLOCK_BYTES", cap)
    vs = vector_system(v)
    out = exhaustive_sign_search(vs)
    sv, value, counters = out.witness, out.value, out.counters
    assert hexed((sv, value)) == hexed(all_patterns_search(vs))
    assert 1 <= counters["eigensolves"] <= 2 ** (vs.n - 1)


@pytest.mark.parametrize("cap", [1, 64, engines.WALK_BLOCK_BYTES])
def test_exact_zero_minima_keep_every_tie(monkeypatch, cap):
    # the rank-one matrices of these integer vectors add up exactly, and each
    # pair of equal vectors cancels under opposite signs, so the minimum is
    # 0.0 and several patterns tie at it; a margin relative to the incumbent
    # would rule out every tie after the first one found
    monkeypatch.setattr(engines, "WALK_BLOCK_BYTES", cap)
    vs = vector_system(np.repeat([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], 2, axis=0))
    out = exhaustive_sign_search(vs)
    assert hexed((out.witness, out.value)) == hexed(all_patterns_search(vs))
    assert (out.witness.tolist(), out.value) == ([1, -1, -1, 1, -1, 1], 0.0)


def hermitian_stack(seed, count, k, real):
    rng = make_rng(seed)
    g = rng.standard_normal((count, k, k))
    if not real:
        g = g + 1j * rng.standard_normal((count, k, k))
    return (g + np.conj(np.swapaxes(g, 1, 2))) / 2


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("k", range(1, 21))
def test_cholesky_helper_agrees_with_eigvalsh_near_the_norm(k, real):
    s = hermitian_stack(k, 30, k, real)
    w = np.linalg.eigvalsh(s)
    norm = np.maximum(-w[:, 0], w[:, -1])
    eye = np.eye(k)
    for rel in (1 + 1e-6, 1 - 1e-6):
        t = (norm * rel)[:, None, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a failed matrix must not warn or raise
            below = _cholesky_factors(t * eye - s)
            above = _cholesky_factors(t * eye + s)
        assert below.shape == above.shape == (30,)
        assert np.array_equal(below, w[:, -1] < t[:, 0, 0])
        assert np.array_equal(above, w[:, 0] > -t[:, 0, 0])
        assert np.all(below & above) == (rel > 1)


@pytest.mark.parametrize("k", range(5, 17))
def test_weaver_minimum_matches_orbit_representatives(k):
    # the family is invariant under permuting its k - 1 vectors, so the
    # signed norm depends only on the number c of minus signs; heuristic
    # verify_counterexample evaluates c = 0..(k-1)//2, which holds the
    # middle count (k-1)/2 when k is odd
    inst = counterexample_vectors(k)
    mats = [rank_one(v) for v in inst.normalized.vectors]
    orbit = min(opnorm(sum(s * m for s, m in zip([1] * (k - 1 - c) + [-1] * c, mats)))
                for c in range(k - 1))
    value = exhaustive_sign_search(inst.normalized).value
    assert value == pytest.approx(orbit, rel=1e-12)
    extra = verify_counterexample(inst, mode="heuristic").extra
    assert extra["min_signed_norm_or_bound"] == pytest.approx(value, rel=1e-12)
    assert extra["orbit_eigensolves"] == (k - 1) // 2 + 1 and extra["eigensolves"] == 0


@pytest.mark.parametrize("k", range(5, 17))
def test_exhaustive_mode_certifies_every_pattern_above_the_orbit_minimum(k):
    # with no survivor the two modes report the orbit minimum's own bits;
    # the witness takes one eigh of each 3 x 3 T_c, and every pattern
    # passes its witness, so no k x k sum is eigensolved
    inst = counterexample_vectors(k)
    exhaustive = verify_counterexample(inst, mode="exhaustive", budget=2**14)
    heuristic = verify_counterexample(inst, mode="heuristic", budget=2**14)
    claim = next(c for c in exhaustive.claims if c.name == "no_pattern_below_orbit_minimum")
    assert exhaustive.passed and claim.computed == 0.0
    assert exhaustive.extra["patterns_certified"] == 2 ** (k - 2)
    assert exhaustive.extra["eigensolves"] == 0
    assert exhaustive.extra["orbit_eigensolves"] == 2 * ((k - 1) // 2 + 1)
    assert (exhaustive.extra["min_signed_norm_or_bound"].hex()
            == heuristic.extra["min_signed_norm_or_bound"].hex())


def every_pattern(n):
    """The 2^(n-1) sign rows with s_0 = +1, as floats."""
    return np.array([(1,) + tail for tail in itertools.product((1, -1), repeat=n - 1)],
                    dtype=float)


def perturbed_weaver(k, seed):
    """The normalized family at k with its vector ``seed % (k-1)`` moved by
    a seeded step of norm 0.05 and rescaled to norm 1: permuting the vectors
    no longer maps the family to itself, so a pattern's norm depends on
    more than its count of minus signs."""
    v = counterexample_vectors(k).normalized.vectors.real.copy()
    i = seed % (k - 1)
    step = make_rng(seed).standard_normal(k)
    v[i] += 0.05 * step / np.linalg.norm(step)
    v[i] /= np.linalg.norm(v[i])
    return v


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", range(6, 10))
def test_witness_check_matches_eigensolving_every_pattern(k, seed):
    # on a family the orbit argument no longer covers, the witness is a
    # poor fit for some patterns; each threshold must still give the same
    # survivors (norm below t), with the same norms, as eigensolving every
    # pattern's explicit sum
    v = perturbed_weaver(k, seed)
    witness = _orbit_witness(counterexample_vectors(k))
    signs = every_pattern(k - 1)
    norms = _opnorm((v.T * signs[:, None, :]) @ v)
    levels = np.unique(norms)
    gaps = (levels[1:] + levels[:-1]) / 2  # never on a norm
    thresholds = [levels[0] / 2, *np.quantile(gaps, [0.0, 0.1, 0.5, 0.9, 1.0], method="lower"),
                  levels[-1] * 2]
    for t in thresholds:
        kept, solved = _uncertified_patterns(v, witness, t)
        below = solved < t
        expected = {tuple(s): val for s, val in zip(signs.tolist(), norms) if val < t}
        assert {tuple(s): val for s, val in zip(kept[below].tolist(), solved[below])} == expected
        assert solved.min(initial=np.inf) >= norms.min()
        # every pattern whose witness quotient passes t is above it
        uncertified = {tuple(s) for s in kept.tolist()}
        assert all(val > t for s, val in zip(map(tuple, signs.tolist()), norms)
                   if s not in uncertified)


@pytest.mark.parametrize("k", range(5, 17))
def test_witness_leaves_exactly_the_minimizing_orbits_above_the_minimum(k):
    # with t just above the minimum m, a pattern's witness quotient, its
    # orbit's norm, passes t unless the orbit attains m: the patterns left
    # are those whose count of minus signs, or its flip, is a minimizing one
    inst = counterexample_vectors(k)
    m, _ = _orbit_minimum(inst)
    v = inst.normalized.vectors.real
    reps = [opnorm(sum(s * rank_one(x) for s, x in zip([-1] * c + [1] * (k - 1 - c), v)))
            for c in range((k - 1) // 2 + 1)]
    counts = {c for c, val in enumerate(reps) if val <= m * (1 + 1e-12)}
    counts |= {k - 1 - c for c in counts}
    kept, solved = _uncertified_patterns(v, _orbit_witness(inst), m + 1e-6)
    signs = every_pattern(k - 1)
    expected = {tuple(s) for s in signs.astype(int).tolist() if s.count(-1) in counts}
    assert {tuple(s) for s in kept.tolist()} == expected
    assert np.all(np.abs(solved - m) <= 1e-12 * m)


@pytest.mark.parametrize("k", [21, 40, 101])
def test_orbit_minimum_blocks_and_half_orbit(monkeypatch, k):
    # blocks of any size give the same bits, and the counts past (k-1)//2
    # (global flips of the ones evaluated) hold nothing smaller
    inst = counterexample_vectors(k)
    v = inst.normalized.vectors.real
    direct = min(opnorm((v.T * np.r_[-np.ones(c), np.ones(k - 1 - c)]) @ v)
                 for c in range(k - 1))
    value, solves = _orbit_minimum(inst)
    assert solves == (k - 1) // 2 + 1
    assert value == pytest.approx(direct, rel=1e-12)
    monkeypatch.setattr(counterexample, "WALK_BLOCK_BYTES", 1)
    assert _orbit_minimum(inst) == (value, solves)
    with pytest.raises(BudgetExceededError):
        _orbit_minimum(inst, budget=solves - 1)


@pytest.mark.parametrize("n", [3, 21])
@pytest.mark.parametrize("budget", [0, -5])
def test_banaszczyk_rejects_budget_below_one_on_both_branches(n, budget):
    mats = [rank_one(x) / 5.0 for x in unit_rows(9, n, 2, real=False)]
    with pytest.raises(InvalidParameterError):
        banaszczyk_sign_search(mats, M=1.0, budget=budget)


def reference_greedy_search(matrices, M, budget, seed, log=None, starts=None):
    """banaszczyk_sign_search one evaluation at a time: seeded random
    restarts descending by single flips, a flip taken when it lowers the
    norm by more than margin = WALK_ETA sum_i ||B_i||_F, every flip
    eigensolved. The first state within M (a restart's start, or the sum
    after a taken flip) is returned with its norm; otherwise the search
    stops after exactly ``budget`` evaluations and returns the best
    restart's end state and norm. ``log``, if given, receives
    (i, val, cval, taken) for every flip, and ``starts`` the norm of every
    restart's start."""
    stacked = engines._real_if_real(np.stack([np.asarray(b, dtype=np.complex128)
                                              for b in matrices]))
    n = len(stacked)
    margin = engines.WALK_ETA * float(np.sum(np.linalg.norm(stacked, axis=(1, 2))))
    rng = make_rng(seed)
    best_val, best_signs, evals = np.inf, None, 0
    with np.errstate(all="ignore"):
        while evals < budget:
            signs = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int64)
            s = np.tensordot(signs, stacked, axes=1)
            val = _opnorm(s)
            evals += 1
            if starts is not None:
                starts.append(val)
            improved = True
            while improved and val > M:
                improved = False
                for i in range(n):
                    if evals == budget or val <= M:
                        break
                    cand = s - 2 * signs[i] * stacked[i]
                    cval = _opnorm(cand)
                    evals += 1
                    taken = cval < val - margin
                    if log is not None:
                        log.append((i, val, cval, taken))
                    if taken:
                        s, val = cand, cval
                        signs[i] = -signs[i]
                        improved = True
            if val <= M:
                return signs, float(val)
            if val < best_val:
                best_val, best_signs = val, signs.copy()
    return best_signs, float(best_val)


def outcome(result):
    """(signs, value hex) of a reference search's (signs, value) or of an
    engine's Outcome."""
    if isinstance(result, engines.Outcome):
        result = result.witness, result.value
    signs, value = result
    return signs.tolist(), value.hex()


def greedy_inputs(seed, kind, n, k):
    """n matrices of Hilbert-Schmidt norm at most 1/5: rank-one v v* / 5 or
    -v v* / 5, near-rank-one ones (0.9 v v* / 5 plus a Hermitian term of
    Frobenius norm between margin / 32 and margin / 2), general Hermitian
    ones of full rank, square ones that are not Hermitian, or the Weaver
    family at k = n + 1 (for n >= 4; the family starts at k = 5)."""
    if kind == "weaver":
        return [rank_one(v) / 5.0 for v in counterexample_vectors(n + 1).normalized.vectors]
    if kind in ("rank-one real", "rank-one complex", "negative rank-one", "near-rank-one"):
        real = kind == "rank-one real" or (kind != "rank-one complex" and seed % 2 == 0)
        mats = np.stack([rank_one(v) / 5.0 for v in unit_rows(seed, n, k, real)])
        if kind == "negative rank-one":
            return list(-mats)
        if kind == "near-rank-one":
            mats *= 0.9
            margin = engines.WALK_ETA * float(np.sum(np.linalg.norm(mats, axis=(1, 2))))
            h = hermitian_stack(seed + 3, n, k, real)
            size = margin / 8 * 4.0 ** make_rng(seed + 4).uniform(-1, 1, n)
            mats = mats + h * (size / np.linalg.norm(h, axis=(1, 2)))[:, None, None]
        return list(mats)
    h = hermitian_stack(seed, n, k, real=seed % 2 == 0)
    if kind == "square":  # not Hermitian: the eigensolvers read the lower triangle
        h = h + np.triu(make_rng(seed + 2).standard_normal((n, k, k)), 1)
    scale = 0.2 * make_rng(seed + 1).uniform(0.1, 1.0, n) / np.linalg.norm(h, axis=(1, 2))
    return list(h * scale[:, None, None])


GREEDY_KINDS = ["rank-one real", "rank-one complex", "negative rank-one", "near-rank-one",
                "hermitian", "square", "weaver"]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=SEEDS, n=st.integers(1, 45), k=st.integers(1, 6), budget=st.integers(1, 700),
       reach=st.sampled_from([None, 0.0, 0.5, 1.0]))
def test_screened_greedy_search_matches_unscreened_search(seed, n, k, budget, reach):
    # every example runs every kind; budgets run out mid-pass. M = 0 is
    # reached only by an exactly cancelling sum (k = 1 gives equal scalars);
    # a reachable M lies at the share ``reach`` from the best value the
    # search finds at M = 0 up to the norm of its first start, so 1.0 stops
    # at the first evaluation and 0.5 usually partway down a descent
    for kind in GREEDY_KINDS:
        if kind == "weaver" and n < 4:
            continue
        mats = greedy_inputs(seed, kind, n, k)
        starts = []
        ref = reference_greedy_search(mats, 0.0, budget, seed, starts=starts)
        M = 0.0
        if reach is not None and ref[1] > M:
            M = ref[1] + reach * (starts[0] - ref[1])
            ref = reference_greedy_search(mats, M, budget, seed)
        result = banaszczyk_sign_search(mats, M=M, budget=budget, seed=seed)
        assert outcome(result) == outcome(ref), kind
        assert result.exact is False
        if ref[1] > M:
            assert result.counters["eigensolves"] == budget
        else:
            assert 1 <= result.counters["eigensolves"] <= budget


def test_screen_margin_absorbs_eigensolver_error():
    # flipping the matrix at index 20 lowers the norm by 1.5 margin, the one
    # at index 21 by margin / 4: the first flip is taken, the second refused
    big, small = np.diag([0.19, 0.0]), np.diag([0.0, 0.17])
    margin = engines.WALK_ETA * (10 * 0.19 + 10 * 0.17)
    mats = [big] * 10 + [small] * 10 + [np.diag([0.75 * margin, 0.0]),
                                        np.diag([margin / 8, 0.0])]
    margin = engines.WALK_ETA * sum(np.linalg.norm(m) for m in mats)
    seen = {(20, 1.5): set(), (21, 0.25): set()}
    for seed in range(20):
        log = []
        ref = reference_greedy_search(mats, 0.0, 300, seed, log)
        assert outcome(banaszczyk_sign_search(mats, M=0.0, budget=300, seed=seed)) == (
            outcome(ref))
        for i, val, cval, taken in log:
            for j, gain in seen:
                if i == j and abs(val - cval - gain * margin) < margin / 100:
                    seen[j, gain].add(taken)
    assert seen == {(20, 1.5): {True}, (21, 0.25): {False}}


def test_a_state_within_the_margin_of_zero_takes_no_flip():
    # twenty copies of diag(0.1, 0) cancel in pairs, leaving the two small
    # matrices: norms 0.1 margin or 1.7 margin, and from 1.7 margin either
    # flip gains 1.6 margin; below margin no flip can gain more than margin
    margin = engines.WALK_ETA * 20 * 0.1
    mats = [np.diag([0.1, 0.0])] * 20 + [np.diag([0.9 * margin, 0.0]),
                                         np.diag([0.8 * margin, 0.0])]
    margin = engines.WALK_ETA * sum(np.linalg.norm(m) for m in mats)
    gains = []
    for seed in range(10):
        log = []
        ref = reference_greedy_search(mats, 0.0, 200, seed, log)
        assert outcome(banaszczyk_sign_search(mats, M=0.0, budget=200, seed=seed)) == outcome(
            ref)
        gains += [(val - cval) / margin for _, val, cval, taken in log if taken and val < 2 * margin]
    assert gains and all(1.5 < gain < 1.7 for gain in gains)
