"""Batch command-line front end.

Subcommands: gen-weaver, verify-weaver, reduce, search, net-check,
banaszczyk-radius. Every command but gen-weaver (which writes instance
files) builds a self-checking verification report and returns it; ``main``
times the call, writes the report (JSON by default, or the claims table as
CSV) and exits 0 on pass, 1 on claim failure,
2 on usage or input errors, 3 on budget refusals and 4 on an internal error
(an unexpected exception, reported as "internal error: ..." on stderr, so
that 1 always means a failed claim). All randomness flows from
the explicit --seed; identical (input, seed, budget) reproduce the report
byte for byte apart from the wall-time field.

``main`` builds the argparse parser once per process and reuses it on
every later call, so in-process callers (tests, the benchmark) pay for it
once. The parser holds no command functions: ``main`` looks the
subcommand's ``cmd_*`` function up in this module at call time, so a
rebinding of, say, ``cli.cmd_search`` takes effect on the next call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import counterexample as cx
from . import engines, frames, reductions
from .errors import BudgetExceededError, FrameDiscError
from .linalg import diagonal_delta, opnorm, rank_one
from .reports import (
    Claim,
    VerificationReport,
    canonical_json,
    finish_report,
    format_float,
    report_to_json,
)
from .serialize import (
    load_json,
    matrix_from_dict,
    matrix_to_dict,
    partition_to_dict,
    signs_to_dict,
    system_from_dict,
    system_to_dict,
)

EXIT_PASS = 0
EXIT_CLAIM_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _report_text(report: VerificationReport, fmt: str) -> str:
    """The report as canonical JSON, or its claims as one CSV table."""
    if fmt == "json":
        return report_to_json(report)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "computed", "bound", "tolerance", "relation", "passed"])
    for c in report.claims:
        writer.writerow([c.name, format_float(float(c.computed)),
                         format_float(float(c.bound)), format_float(float(c.tolerance)),
                         c.relation, c.passed])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands


# Bytes that gen-weaver takes per entry of the (k - 1) x k family (both
# vector systems, their dicts and the emitted text): on x86-64 with numpy
# 2.4.6, peak RSS over a 34 MB baseline was 288 MB at k = 1,000 and 485 MB
# at k = 1,400.
WEAVER_ENTRY_BYTES = 250


def cmd_gen_weaver(args) -> None:
    inst = cx.counterexample_vectors(args.k)
    need = WEAVER_ENTRY_BYTES * (inst.k - 1) * inst.k
    if need > reductions.MEMORY_CAP_BYTES:
        raise BudgetExceededError(
            f"gen-weaver at k = {inst.k} would take about {need:,} bytes "
            f"({WEAVER_ENTRY_BYTES} per entry of the (k - 1) x k family), over the cap of "
            f"{reductions.MEMORY_CAP_BYTES:,} bytes")
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    instance = {
        "k": inst.k,
        "alpha": inst.alpha,
        "beta": inst.beta,
        "delta": inst.delta,
        "N": inst.N,
        "primed": system_to_dict(inst.primed),
    }
    (outdir / f"weaver_instance_k{inst.k}.json").write_text(canonical_json(instance) + "\n")
    (outdir / f"weaver_vectors_k{inst.k}.json").write_text(
        canonical_json(system_to_dict(inst.normalized)) + "\n"
    )


def cmd_verify_weaver(args) -> VerificationReport:
    inst = cx.counterexample_vectors(args.k)
    return cx.verify_counterexample(inst, mode=args.mode, seed=args.seed, budget=args.budget)


def _check_level(n_bound: float) -> None:
    """Reject a level N (--n-bound) that is not positive and finite."""
    if not (n_bound > 0 and math.isfinite(n_bound)):  # also rejects NaN
        raise FrameDiscError(
            f"the level N must be positive and finite (--n-bound), got {n_bound}")


def cmd_reduce(args) -> VerificationReport:
    n_bound = args.n_bound
    _check_level(n_bound)
    data, raw = load_json(args.input)
    if args.direction == "proj2vec":
        p = matrix_from_dict(data)
        # the projection test squares P
        engines._scale(p, "reduce --direction proj2vec", hi=math.sqrt(engines.SCALE_MAX),
                       what="||P||_F^2")
        vs = reductions.projection_to_vectors(p, n_bound)
        payload = canonical_json(system_to_dict(vs)) + "\n"
        claims = [
            Claim("max_vector_norm_squared", computed=float(np.max(vs.norms_squared())),
                  bound=1.0, tolerance=1e-9, relation="le"),
            Claim("frame_bound_equals_N", computed=frames.frame_bound(vs),
                  bound=n_bound, tolerance=1e-8, relation="abs"),
        ]
    else:
        vs = system_from_dict(data)
        engines._scale(vs, "reduce --direction vec2proj")
        trace = reductions.vectors_to_projection(vs, n_bound, args.budget)
        payload = canonical_json(matrix_to_dict(trace.P)) + "\n"
        proj_residual = float(np.linalg.norm(trace.P @ trace.P - trace.P))
        tight_residual = float(np.linalg.norm(
            frames.frame_operator(trace.w) - np.eye(vs.k)))
        claims = [
            Claim("projection_residual", computed=proj_residual, bound=0.0,
                  tolerance=1e-8, relation="abs"),
            Claim("diagonal_delta_le_1_over_N", computed=diagonal_delta(trace.P),
                  bound=1.0 / n_bound, tolerance=1e-10, relation="le"),
            Claim("completed_frame_tightness", computed=tight_residual, bound=0.0,
                  tolerance=1e-9, relation="abs"),
            Claim("zero_diagonal_opnorm", computed=opnorm(trace.A),
                  bound=1.0 + 1.0 / n_bound, tolerance=1e-8, relation="le"),
        ]
    if args.out:  # a prefix: the report goes to <out>.report.<format> (see main)
        Path(args.out + ".object.json").write_text(payload)
    budget = args.budget if args.direction == "vec2proj" else None  # caps the completion
    return finish_report(f"reduce-{args.direction}", raw, claims, budget=budget)


def cmd_search(args) -> VerificationReport:
    _check_level(args.n_bound)
    data, raw = load_json(args.input)
    seed, budget = args.seed, args.budget
    vs = None if args.kind == "pave" else system_from_dict(data)
    if args.kind in ("partition", "banaszczyk"):  # the sign walk refuses by its own range
        engines._scale(vs, f"search --kind {args.kind}")
    if args.kind == "signs":
        flag, cap = ("--limit", args.limit) if args.limit < budget else ("--budget", budget)
        try:
            outcome = engines.exhaustive_sign_search(vs, cap)
        except BudgetExceededError:
            raise BudgetExceededError(
                f"the sign search walks 2^{vs.n - 1} patterns, over {flag} {cap}") from None
        # The walk's value against the witness's explicit k x k signed sum.
        # The walk's sum H + L takes at most 2^(n-1-b) + n additions (H's
        # first sum and Gray steps, the b terms of L, the join), plus the
        # Gram square root when n < k, each of which may round by
        # eps * sum_i ||v_i||^2; 2^(n-1) + n + k bounds their count.
        scale = float(np.sum(vs.norms_squared()))
        steps = 2 ** (vs.n - 1) + vs.n + vs.k
        signed = (vs.vectors.T * outcome.witness) @ vs.vectors.conj()  # sum s_i v_i v_i*
        explicit = opnorm((signed + signed.conj().T) / 2)  # rounding may pass as_hermitian
        claims = [Claim("min_signed_opnorm", computed=outcome.value, bound=explicit,
                        tolerance=steps * float(np.finfo(float).eps) * scale, relation="abs")]
        extra = {"witness": signs_to_dict(outcome.witness)}
    elif args.kind == "partition":
        outcome = engines.exhaustive_partition_search(vs, args.r, budget)
        # the claim re-derives each part's frame bound from its vectors
        top = max(frames.subset_frame_bound(vs, p) for p in outcome.witness.parts())
        claims = [Claim("max_part_frame_bound", computed=top,
                        bound=args.n_bound, tolerance=0.0, relation="le")]
        extra = {"witness": partition_to_dict(outcome.witness), "slack": args.n_bound - top,
                 "lower_bound": engines.partition_floor(vs, args.r)}
    elif args.kind == "pave":
        a = matrix_from_dict(data)
        engines._scale(a, "search --kind pave", what="||A||_F^2")
        outcome = engines._paving_search(a, args.r, budget)
        claims = [Claim("paving_quality", computed=reductions.paving_quality(a, outcome.witness),
                        bound=opnorm(a), tolerance=1e-12, relation="le")]
        extra = {"witness": partition_to_dict(outcome.witness),
                 "lower_bound": engines._paving_floor(a, args.r)}
    elif args.kind == "matroid":
        outcome = engines.matroid_spanning_partition(vs, args.r, budget)
        if isinstance(outcome.witness, frames.Partition):
            claims = [Claim("spanning_parts", computed=outcome.value, bound=float(args.r),
                            tolerance=0.0, relation="abs")]
            extra = {"witness": partition_to_dict(outcome.witness), "feasible": True}
        else:
            claims = [Claim("violation_deficiency", computed=outcome.value,
                            bound=1.0, tolerance=0.0, relation="ge")]
            extra = {"violating_set": [i + 1 for i in outcome.witness.indices],
                     "complement_rank": outcome.witness.complement_rank, "feasible": False}
    elif args.kind == "banaszczyk":
        mats = np.stack([rank_one(v) / 5.0 for v in vs.vectors])
        engines._balancing_terms(mats)  # refuse the input before drawing the radius
        # a fixed sample count, so that --budget caps only the search
        ctx = engines.gaussian_median_radius(vs.k, samples=20000, seed=seed)
        outcome = engines.banaszczyk_sign_search(mats, M=ctx.M, budget=budget, seed=seed)
        signed = np.tensordot(outcome.witness, mats, axes=1)
        claims = [Claim("signed_opnorm_le_M", computed=opnorm(signed),
                        bound=ctx.M, tolerance=1e-9, relation="le")]
        extra = {"witness": signs_to_dict(outcome.witness), "R_hat": ctx.R_hat, "M": ctx.M}
        if outcome.value > ctx.M:
            extra["exhausted_budget"] = True
    else:  # pragma: no cover - argparse restricts choices
        raise FrameDiscError(f"unknown search kind {args.kind!r}")
    extra.update(exact=outcome.exact, **outcome.counters)
    if args.kind == "banaszczyk":
        extra["eigensolves"] += ctx.eigensolves  # the radius's and the search's
    return finish_report(f"search-{args.kind}", raw, claims, seed=seed,
                         budget=budget, extra=extra)


def cmd_net_check(args) -> VerificationReport:
    if not (args.epsilon > 0 and math.isfinite(args.epsilon)):  # also rejects NaN
        raise FrameDiscError(f"--epsilon must be positive and finite, got {args.epsilon}")
    _check_level(args.n_bound)
    data, raw = load_json(args.input)
    vs = system_from_dict(data)
    engines._scale(vs, "net-check")
    subset = [int(i) for i in args.subset.split(",")] if args.subset else range(1, vs.n + 1)
    outside = [i for i in subset if not 1 <= i <= vs.n]
    if outside:
        raise FrameDiscError(f"--subset index {outside[0]} is out of range 1..{vs.n}")
    repeated = [i for i, count in Counter(subset).items() if count > 1]
    if repeated:
        raise FrameDiscError(f"--subset repeats index {repeated[0]}")
    subset = [i - 1 for i in subset]
    mesh = args.epsilon / (4.0 * args.n_bound)
    gap = 2.0 * args.n_bound * mesh
    outcome = engines.certified_subset_bound(vs, subset, gap, args.budget)
    net_max, certified = outcome.value, outcome.value + gap
    oracle = frames.subset_frame_bound(vs, subset)
    claims = [
        Claim("net_max_below_oracle", computed=net_max, bound=oracle,
              tolerance=1e-9, relation="le"),
        Claim("oracle_below_certified", computed=oracle, bound=certified,
              tolerance=1e-9, relation="le"),
    ]
    extra = {"net_max": net_max, "certified_sup_bound": certified,
             "eigenvalue_oracle": oracle, "mesh": mesh, "certified_net": True,
             **outcome.counters}
    return finish_report("net-check", raw, claims, seed=args.seed,
                         budget=args.budget, extra=extra)


def cmd_banaszczyk_radius(args) -> VerificationReport:
    ctx = engines.gaussian_median_radius(args.k, samples=args.samples, seed=args.seed)
    claims = [Claim("median_radius_positive", computed=ctx.R_hat, bound=0.0,
                    tolerance=0.0, relation="ge")]
    extra = {"k": args.k, "R_hat": ctx.R_hat, "M": ctx.M, "samples": args.samples,
             "eigensolves": ctx.eigensolves}
    return finish_report("banaszczyk-radius", {"k": args.k, "samples": args.samples},
                         claims, seed=args.seed, extra=extra)


# ---------------------------------------------------------------------------
# parser / entry point


def _at_least_one(text: str, flag: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # argparse's own message would name the type function, not the flag
        raise argparse.ArgumentTypeError(f"needs an integer {flag}, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"needs {flag} >= 1, got {text}")
    return value


def _budget(text: str) -> int:
    return _at_least_one(text, "--budget")


def _limit(text: str) -> int:
    return _at_least_one(text, "--limit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framedisc",
        description="Frame-discrepancy toolkit: generation, verification and search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="64-bit seed for all randomness")
        p.add_argument("--budget", type=_budget, default=20000, help="evaluation cap")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("gen-weaver", help="generate a counterexample-family instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None, help="output directory (default: .)")

    p = sub.add_parser("verify-weaver", help="verify the family's closed forms and floor")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "heuristic"], default="exhaustive",
                   help="both report the orbit minimum; exhaustive also proves that none of "
                        "the 2^(k-2) sign patterns lies below it (refused past --budget)")
    common(p)

    p = sub.add_parser("reduce", help="projection <-> vector-system bridge")
    p.add_argument("--direction", choices=["proj2vec", "vec2proj"], required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--n-bound", type=float, required=True, dest="n_bound",
                   help="the level N of the construction")
    common(p)

    p = sub.add_parser("search", help="sign/partition/paving/matroid/balancing searches")
    p.add_argument("--kind", choices=["signs", "partition", "pave", "matroid", "banaszczyk"],
                   required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--n-bound", type=float, default=2.0, dest="n_bound")
    p.add_argument("--limit", type=_limit, default=2**24, help="sign-search pattern cap")
    common(p)

    p = sub.add_parser("net-check", help="certified bound on a subset's frame bound")
    p.add_argument("--input", required=True)
    p.add_argument("--subset", default=None, help="comma-separated distinct 1-based indices")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n-bound", type=float, required=True, dest="n_bound")
    common(p)

    p = sub.add_parser("banaszczyk-radius", help="Gaussian median operator-norm radius")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=100000)
    common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    # looked up at call time, so that a rebound cli.cmd_* is the one called
    command = globals()["cmd_" + args.command.replace("-", "_")]
    started = time.perf_counter()
    try:
        report = command(args)
        if report is None:  # gen-weaver: instance files, no report
            return EXIT_PASS
        report.wall_time_s = time.perf_counter() - started
        out = args.out
        if out and args.command == "reduce":
            out = f"{out}.report.{args.format}"
        text = _report_text(report, args.format)
        if out:
            Path(out).write_text(text)
        else:
            sys.stdout.write(text)
        return EXIT_PASS if report.passed else EXIT_CLAIM_FAILURE
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FrameDiscError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
