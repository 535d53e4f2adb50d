"""Acceptance suite: one test per headline criterion, each printing a
single PASS/FAIL line with its measured quantities and runtime."""

import math
import re
import time

import numpy as np
import pytest

from framedisc import (
    Partition,
    ViolatingSet,
    banaszczyk_sign_search,
    beck_fiala_signs,
    certified_subset_bound,
    complete_to_tight,
    coordinate_profile,
    counterexample_vectors,
    diagonal_delta,
    exhaustive_sign_search,
    frame_bound,
    frame_operator,
    gaussian_median_radius,
    is_projection,
    matroid_spanning_partition,
    opnorm,
    projection_to_vectors,
    random_projection,
    rank_one,
    signed_norm_lower_bound,
    subset_center_distance,
    subset_frame_bound,
    tight_pad_unit,
    vector_system,
    vectors_to_projection,
)
from framedisc.cli import EXIT_PASS, main
from framedisc.reports import canonical_json
from framedisc.rng import make_rng
from framedisc.serialize import system_to_dict


def report_line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok


def test_criterion_1_subset_distance_closed_form():
    started = time.perf_counter()
    worst = 0.0
    for k in range(5, 13):
        inst = counterexample_vectors(k)
        for mask in range(2 ** (k - 1)):
            x = [i for i in range(k - 1) if (mask >> i) & 1]
            direct, closed = subset_center_distance(inst, x)
            worst = max(worst, abs(direct - closed))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 30.0
    report_line(1, ok, f"subset-distance closed form, k=5..12 all subsets: "
                       f"max |direct-closed| = {worst:.3e} (tol 1e-12), {elapsed:.1f}s")


def test_criterion_2_frame_bound_closed_form():
    worst = 0.0
    for k in range(5, 41):
        inst = counterexample_vectors(k)
        target = (k - 1) ** 2 / (2 * k - 3)
        worst = max(worst, abs(frame_bound(inst.normalized) - target))
    at5 = abs(frame_bound(counterexample_vectors(5).normalized) - 16 / 7)
    ok = worst <= 1e-9 and at5 <= 1e-9
    report_line(2, ok, f"normalized frame bound = (k-1)^2/(2k-3), k=5..40: "
                       f"max deviation = {worst:.3e} (tol 1e-9); k=5 gives 16/7")


def test_criterion_3_signed_lower_bound():
    started = time.perf_counter()
    margins = []
    for k in range(5, 16):
        inst = counterexample_vectors(k)
        min_norm = exhaustive_sign_search(inst.normalized).value
        margins.append(min_norm - signed_norm_lower_bound(k))
    elapsed = time.perf_counter() - started
    worst = min(margins)
    ok = worst >= -1e-9 and elapsed < 60.0
    report_line(3, ok, f"exhaustive signed minimum >= 1/(delta*sqrt(k-1)), k=5..15: "
                       f"min margin = {worst:.3e} (tol -1e-9), {elapsed:.1f}s")


def test_criterion_4_sqrt_k_trend():
    ratios = [signed_norm_lower_bound(k) / math.sqrt(k) for k in range(20, 201)]
    lo, hi = min(ratios), max(ratios)
    ok = lo >= 0.4 and hi <= 0.6
    report_line(4, ok, f"lower_bound(k)/sqrt(k) in [0.4, 0.6] for k=20..200: "
                       f"observed range [{lo:.4f}, {hi:.4f}]")


def test_criterion_5_beck_fiala_property_suite():
    started = time.perf_counter()
    rng = make_rng(500)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 51))
        k = int(rng.integers(1, 51))
        g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        g *= rng.random((n, 1)) ** 0.5
        prof = coordinate_profile(vector_system(g))
        signs = beck_fiala_signs(prof)
        worst = max(worst, float(np.max(np.abs(prof.T @ signs))))
    elapsed = time.perf_counter() - started
    ok = worst <= 2.0 and elapsed < 30.0
    report_line(5, ok, f"Beck-Fiala on 1000 seeded profiles (n,k <= 50): "
                       f"max l-inf discrepancy = {worst:.6f} (bound 2), {elapsed:.1f}s")


def test_criterion_6_matroid_partition():
    started = time.perf_counter()
    rng = make_rng(600)
    feasible_ok = 0
    for trial in range(100):
        k = int(rng.integers(2, 7))
        r = int(rng.integers(2, 4))
        blocks = []
        for _ in range(r):
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            q, _ = np.linalg.qr(g)
            blocks.append(q)
        vs = vector_system(np.vstack(blocks)[rng.permutation(r * k)])
        result = matroid_spanning_partition(vs, r).witness
        assert isinstance(result, Partition)
        if all(np.linalg.matrix_rank(vs.vectors[p]) == k for p in result.parts()):
            feasible_ok += 1
    deficient_ok = 0
    for trial in range(20):
        k = int(rng.integers(2, 7))
        r = int(rng.integers(2, 4))
        # r*k vectors but one basis direction appears only once overall
        head = np.zeros((r * k - 1, k), dtype=complex)
        head[:, : k - 1] = (rng.standard_normal((r * k - 1, k - 1))
                            + 1j * rng.standard_normal((r * k - 1, k - 1)))
        tail = np.zeros((1, k), dtype=complex)
        tail[0, k - 1] = 1.0
        vs = vector_system(np.vstack([head, tail]))
        result = matroid_spanning_partition(vs, r).witness
        assert isinstance(result, ViolatingSet)
        if result.r * (result.k - result.complement_rank) > len(result.indices):
            deficient_ok += 1
    elapsed = time.perf_counter() - started
    ok = feasible_ok == 100 and deficient_ok == 20 and elapsed < 30.0
    report_line(6, ok, f"matroid partition: {feasible_ok}/100 spanning splits verified, "
                       f"{deficient_ok}/20 violation certificates checked, {elapsed:.1f}s")


def test_criterion_7_reduction_round_trip():
    rng = make_rng(700)
    n_level = 2.0
    worst_norm, worst_fb, worst_delta, worst_a = 0.0, 0.0, 0.0, 0.0
    all_proj = True
    for trial in range(50):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(max(3 * k, k + 1), 17))
        p = random_projection(k, n, 0.5, rng)
        vs = projection_to_vectors(p, n_level)
        worst_norm = max(worst_norm, float(np.max(np.sqrt(vs.norms_squared()))) - 1.0)
        worst_fb = max(worst_fb, abs(frame_bound(vs) - n_level))
        trace = vectors_to_projection(vs, n_level)
        all_proj = all_proj and is_projection(trace.P, 1e-8)
        worst_delta = max(worst_delta, diagonal_delta(trace.P) - 1.0 / n_level)
        worst_a = max(worst_a, opnorm(trace.A) - (1.0 + 1.0 / n_level))
    ok = (worst_norm <= 1e-9 and worst_fb <= 1e-8 and all_proj
          and worst_delta <= 1e-10 and worst_a <= 1e-8)
    report_line(7, ok, f"reduction round-trip on 50 seeded projections: "
                       f"max ||v||-1 = {worst_norm:.2e}, |frame bound - N| = {worst_fb:.2e}, "
                       f"delta excess = {worst_delta:.2e}, ||A|| excess = {worst_a:.2e}")


def test_criterion_8_epsilon_net_sandwich():
    rng = make_rng(800)
    n_level = 2.0
    eps = 0.1
    mesh = eps / (4.0 * n_level)
    holds = 0
    for trial in range(100):
        n = int(rng.integers(1, 9))
        g = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        vs = vector_system(g * rng.random((n, 1)) ** 0.5)
        net_max, cert, _, _ = certified_subset_bound(vs, range(n), 2.0 * n_level * mesh)
        oracle = subset_frame_bound(vs, range(n))
        if net_max <= oracle + 1e-12 and oracle <= cert + 1e-12:
            holds += 1
    ok = holds == 100
    report_line(8, ok, f"epsilon-net sandwich (k=2, eps=0.1, mesh=eps/4N): "
                       f"{holds}/100 trials satisfy net_max <= lambda_max <= net_max + 2N*mesh")


def test_criterion_9_banaszczyk_radius_and_signs():
    ctx1 = gaussian_median_radius(1, samples=1_000_000, seed=900)
    radius_dev = abs(ctx1.R_hat - 0.6744897501960817)
    rng = make_rng(901)
    sign_ok, trials = 0, 0
    for k in (1, 2, 3):
        ctx = ctx1 if k == 1 else gaussian_median_radius(k, samples=50_000, seed=900 + k)
        for n in (5, 9, 15):
            g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            mats = [rank_one(v) / 5.0 for v in g]
            signs = banaszczyk_sign_search(mats, M=5.0 * ctx.R_hat, seed=900).witness
            trials += 1
            signed = sum(s * m for s, m in zip(signs, mats))
            if opnorm(signed) <= 5.0 * ctx.R_hat + 1e-12:
                sign_ok += 1
    ok = radius_dev <= 0.01 and sign_ok == trials
    report_line(9, ok, f"Gaussian median radius |R_hat - 0.67449| = {radius_dev:.2e} "
                       f"(tol 0.01, 1e6 samples); exhaustive signs within 5*R_hat in "
                       f"{sign_ok}/{trials} instances (k <= 3, n <= 15)")


def test_criterion_10_tight_completions():
    rng = make_rng(1000)
    worst_tight, worst_dft = 0.0, 0.0
    for trial in range(50):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 8))
        g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        g /= max(1.0, 1.1 * np.sqrt(opnorm(g.T @ g.conj())))
        vs = vector_system(g)
        target = frame_bound(vs) + float(rng.random()) + 0.1
        cap = float(rng.choice([0.1, 0.5, 1.0]))
        out, _ = complete_to_tight(vs, target, cap)
        worst_tight = max(worst_tight, float(np.linalg.norm(
            frame_operator(out) - target * np.eye(k))))
    for trial in range(50):
        m = int(rng.integers(2, 7))
        level = int(rng.integers(2, 5))
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        q, _ = np.linalg.qr(g)
        vs = vector_system(q.T)
        out, trace = tight_pad_unit(vs, level)
        worst_tight = max(worst_tight, float(np.linalg.norm(
            frame_operator(out) - level * np.eye(m))))
        period = trace.added[:m]
        worst_dft = max(worst_dft, float(np.linalg.norm(
            period.T @ period.conj() - trace.B / (level - 1))))
    ok = worst_tight <= 1e-8 and worst_dft <= 1e-9
    report_line(10, ok, f"tight completions on 100 seeded instances: "
                        f"max ||S - N*I||_F = {worst_tight:.2e} (tol 1e-8), "
                        f"max DFT identity residual = {worst_dft:.2e} (tol 1e-9)")


def test_criterion_11_report_determinism(tmp_path):
    rng = make_rng(1100)
    g = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    src = tmp_path / "sys.json"
    src.write_text(canonical_json(system_to_dict(vector_system(g))) + "\n")
    commands = [
        ["verify-weaver", "--k", "6", "--seed", "3"],
        ["verify-weaver", "--k", "30", "--mode", "heuristic", "--seed", "3",
         "--budget", "200"],
        ["search", "--kind", "signs", "--input", str(src), "--seed", "3"],
        ["search", "--kind", "partition", "--input", str(src), "--r", "2",
         "--n-bound", "6", "--seed", "3", "--budget", "20", "--limit", "5"],
        ["search", "--kind", "banaszczyk", "--input", str(src), "--seed", "3",
         "--budget", "2000"],
        ["net-check", "--input", str(src), "--epsilon", "0.2", "--n-bound", "6",
         "--seed", "3"],
    ]
    stable = 0
    for idx, cmd in enumerate(commands):
        texts = []
        for rep in range(2):
            out = tmp_path / f"r{idx}_{rep}.json"
            assert main(cmd + ["--out", str(out)]) == EXIT_PASS
            texts.append(re.sub(r'"wall_time_s": [^,\n]+', "", out.read_text()))
        if texts[0] == texts[1]:
            stable += 1
    ok = stable == len(commands)
    report_line(11, ok, f"byte-identical reports modulo wall time on re-run: "
                        f"{stable}/{len(commands)} commands")
