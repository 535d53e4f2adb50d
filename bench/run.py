"""framedisc benchmark: seeded CLI workloads driven through ``framedisc.cli.main``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sign-enum --seed 1 --seconds 30 --trace 0

One caller runs a closed loop in this process (no threads of its own, so
BLAS keeps its default thread count): set-up writes the seeded inputs to a
scratch directory under ``.bench_out/``, one warm-up cycle runs every case
once, then whole cycles run back to back until ``--seconds`` have passed.
Set-up time is the median over fresh interpreters that each import, write
the inputs and run the warm-up cycle (see ``setup_probe_seconds``).
Every report is checked after the timed calls (see ``checks.py``).
Each cycle starts on the least contended CPU (see ``quietcpu``).
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, built from
each case's fast-end latency (see ``fast_latency``); ``--trace 1``
alternates untraced and traced cycles and prints the per-layer metrics,
writing the spans to
``.bench_out/spans-<workload>-seed<seed>.npz``. The last line of stdout is
the result object; the full record, environment included, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import environment
import quietcpu
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
MIN_CYCLES = 4
# Share of each case's fastest calls (at least FAST_MIN) whose mean is the
# case's latency.
FAST_SHARE = 0.1
FAST_MIN = 2
WALL_TIME = re.compile(rb'("wall_time_s": )[^,\n}]+')


@dataclass
class Call:
    case: str
    traced: bool
    code: int | None
    error: str | None
    seconds: float
    cpu_seconds: float
    report_path: Path
    object_path: Path | None

    def bytes_out(self) -> int:
        """Bytes written, with the wall-time value counted as one digit so
        that the count repeats exactly between runs."""
        paths = [self.report_path] + ([self.object_path] if self.object_path else [])
        return sum(len(WALL_TIME.sub(rb"\g<1>0", p.read_bytes())) for p in paths if p.exists())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cpu_time() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_call(cli, case, workdir: Path, tag: str, traced: bool) -> Call:
    stem = workdir / f"{case.name}.{tag}"
    if case.argv[0] == "reduce":
        out = str(stem)
        report, obj = Path(out + ".report.json"), Path(out + ".object.json")
    else:
        out = str(stem) + ".json"
        report, obj = Path(out), None
    # Start every call from the same heap state: garbage left by the last
    # call is collected here, outside the timed interval.
    gc.collect()
    cpu0 = cpu_time()
    t0 = time.perf_counter()
    code, error = None, None
    try:
        code = cli.main(case.argv + ["--out", out])
    except Exception as exc:  # a crash is a failed report, not the end of the run
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return Call(case.name, traced, code, error, seconds, cpu_time() - cpu0, report, obj)


def setup_probe_seconds(args) -> float:
    """Wall time of a fresh interpreter that imports numpy and framedisc,
    writes the workload's inputs and runs the warm-up cycle."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def fast_latency(latencies: list) -> float:
    """Mean of the fastest FAST_SHARE of a case's calls, at least FAST_MIN.

    The speed of a shared host drifts: even on the least contended CPU
    (see ``quietcpu``) whole seconds run 10-50% slow, so the median and
    upper quantiles of a run tell how busy the host was rather than how
    fast the program is. A slower program moves the fast end as much as
    the median; a busier host moves it much less."""
    lat = sorted(latencies)
    return statistics.fmean(lat[:max(FAST_MIN, round(FAST_SHARE * len(lat)))])


def tail(latencies: list) -> tuple:
    """(value, percentile, samples): the latency at the highest percentile
    with at least ten samples above it."""
    lat = sorted(latencies)
    rank = max(len(lat) - 11, 0)
    return lat[rank], 100.0 * (rank + 1) / len(lat), len(lat)


def latency_summary(calls, failures) -> dict:
    """Median and tail of the untraced calls; a failed call ranks as the
    slowest sample. Recorded, not gated: on a shared host they measure
    the host's load as much as the program."""
    measured = [(c, f) for c, f in zip(calls, failures) if not c.traced]
    slowest = max(c.seconds for c, _ in measured)
    lat = [c.seconds if f is None else slowest for c, f in measured]
    value, pct, n = tail(lat)
    return {"report_p50_s": statistics.median(lat), "report_tail_s": value,
            "tail_percentile": pct, "tail_samples": n}


def end_to_end(calls, failures, setup_s: float, peak_rss_mb: float) -> tuple:
    measured = [c for c in calls if not c.traced]
    ok = sum(f is None for c, f in zip(calls, failures) if not c.traced)
    by_case: dict = {}
    for c in measured:
        by_case.setdefault(c.case, []).append(c.seconds)
    fast = {case: fast_latency(v) for case, v in by_case.items()}
    metrics = {
        # one verified cycle: every case once, failed reports not counted
        "reports_per_s": ok / len(measured) * len(fast) / sum(fast.values()),
        "report_geomean_s": statistics.geometric_mean(fast.values()),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, {"failed_share": (len(measured) - ok) / len(measured),
                     "calls_per_case": min(len(v) for v in by_case.values()),
                     **latency_summary(calls, failures)}, fast


def per_layer(calls, failures, cases, tracer, layer_names, blas_threads: int) -> tuple:
    traced = [c for c in calls if c.traced]
    plain = [c for c in calls if not c.traced]
    traced_cycles = len(traced) / len(cases)
    plain_cycles = len(plain) / len(cases)
    by_name = {case.name: case for case in cases}
    m, per_search = spans.layer_metrics(tracer, traced_cycles, [c.case for c in traced],
                                        {case.name: case.info for case in cases})
    m["reports.bytes_out"] = sum(c.bytes_out() for c in traced) / traced_cycles
    m["serialize.bytes_in"] = sum(
        Path(p).stat().st_size for c in traced for p in by_name[c.case].inputs) / traced_cycles
    for name in layer_names:
        if name.startswith("cli.case."):
            case = name[len("cli.case."):-len(".p50_s")]
            lat = [c.seconds for c in plain if c.case == case]
            m[name] = statistics.median(lat) if lat else 0.0
    summary = latency_summary(calls, failures)
    m["cli.report_p50_s"] = summary["report_p50_s"]
    m["cli.report_tail_s"] = summary["report_tail_s"]
    m["process.cpu_per_wall"] = (sum(c.cpu_seconds for c in plain)
                                 / sum(c.seconds for c in plain))
    m["process.blas_threads"] = blas_threads
    m["trace.overhead_share"] = ((sum(c.seconds for c in traced) / traced_cycles)
                                 / (sum(c.seconds for c in plain) / plain_cycles) - 1.0)
    return m, per_search


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM raises SystemExit, so the scratch directory is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    src = ROOT / "src"
    if not (src / "framedisc" / "__init__.py").is_file():
        print(f"error: no framedisc sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import framedisc
    from framedisc import cli

    if not Path(framedisc.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: framedisc imported from {framedisc.__file__}, not {src}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.setup_probe:
            for case in workloads.build(args.workload, args.seed, workdir):
                run_call(cli, case, workdir, "warm", False)
            return 0
        return measure(args, spec, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, cli, workdir: Path) -> int:
    phases = {}
    clock = time.perf_counter()

    def phase(name):
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    cases = workloads.build(args.workload, args.seed, workdir)
    phase("inputs")
    cpus = []  # the CPU each set-up probe and cycle ran on
    probes = []
    for _ in range(SETUP_PROBES):
        cpus.append(quietcpu.pin())
        probes.append(setup_probe_seconds(args))
    cpus.append(quietcpu.pin())
    phase("setup_probes")
    warm = [run_call(cli, case, workdir, "warm", False) for case in cases]
    phase("warm_up")
    setup_s = statistics.median(probes)

    # Whole cycles until the time is up; a traced run ends on a traced cycle,
    # so it has as many traced cycles as untraced ones.
    tracer = spans.Tracer() if args.trace else None
    calls = []
    cycle = 0
    t_end = time.perf_counter() + args.seconds
    while cycle < MIN_CYCLES or time.perf_counter() < t_end or (tracer and cycle % 2):
        traced = tracer is not None and cycle % 2 == 1
        cpus.append(quietcpu.pin())
        if traced:
            tracer.install()
        try:
            for case in cases:
                if traced:
                    tracer.report_id = sum(c.traced for c in calls)
                calls.append(run_call(cli, case, workdir, str(cycle), traced))
        finally:
            if traced:
                tracer.uninstall()
        cycle += 1
    cycles = cycle
    quietcpu.release()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phase("timed_cycles")

    checker = checks.Checker()
    by_name = {case.name: case for case in cases}
    warm_failures = [checker.check(by_name[c.case], c) for c in warm]
    failures = [checker.check(by_name[c.case], c) for c in calls]
    for i, (c, f) in enumerate(zip(warm + calls, warm_failures + failures)):
        if f is not None:
            print(f"FAILED {c.case} ({'warm-up' if i < len(warm) else 'timed'}): {f}",
                  file=sys.stderr)
    failed = sum(f is not None for f in failures)
    phase("checks")

    env = environment.describe(ROOT, args.seed)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        values, searches = per_layer(calls, failures, cases, tracer, list(units),
                                     env["blas_threads"])
        extra = {"exhaustive_sign_searches": searches}
        extra_record = {}
        np.savez_compressed(OUT / f"spans-{args.workload}-seed{args.seed}.npz",
                            cases=np.array([c.case for c in calls if c.traced]),
                            **tracer.arrays())
    else:
        values, extra, fast = end_to_end(calls, failures, setup_s, peak_rss_mb)
        extra_record = {"fast_latency_s": fast}
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"benchmark computed no value for {sorted(missing)}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0 and not any(warm_failures), "attempted": len(calls),
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  cycles=cycles, cpus=cpus, setup_probes_s=probes, phases_s=phases,
                  environment=env,
                  **extra, **extra_record,
                  cases=[{"case": c.case, "traced": c.traced, "seconds": c.seconds,
                          "failure": f} for c, f in zip(calls, failures)])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    print("phases_s " + json.dumps({k: round(v, 3) for k, v in phases.items()}))
    if args.trace:
        searches = extra["exhaustive_sign_searches"]
        exact = sum(s["eig_calls"] == s["patterns"] for s in searches)
        print(f"exhaustive_sign_search: eig calls == 2^(n-1) in {exact} of {len(searches)}")
    else:
        print(" ".join(f"{key} {val:.6g}" for key, val in extra.items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
