"""Spans around calls into framedisc, recorded from outside the program.

``Tracer.install`` wraps every public function of every framedisc module
at each place it is bound: the defining module and every framedisc module
that imported it with ``from ... import``. It also wraps
``numpy.linalg.eigvalsh`` and ``numpy.linalg.eigh``, the eigensolver
boundary that ``engines`` calls directly. A span is named after the
defining module (``engines.exhaustive_sign_search``); a recursive function
is timed at its outermost call only, and calls back into ``reports`` from
inside ``canonical_json`` are part of its span. Spans live in flat arrays
until the run ends; ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

EIG_NAMES = ("numpy.linalg.eigvalsh", "numpy.linalg.eigh")
# Spans inside which calls to the same module are not recorded.
INLINE_UNDER = {"reports.canonical_json"}


def framedisc_modules() -> list:
    import framedisc

    mods = [framedisc]
    for info in pkgutil.iter_modules(framedisc.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"framedisc.{info.name}"))
    return mods


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def eig_flops(a) -> tuple:
    """(matrices, computed flops) of one eigensolver call: 4n^3/3 real
    flops per eigenvalue-only solve, four times that for complex input.
    A model from the matrix sizes, not a measurement."""
    a = a if isinstance(a, np.ndarray) else np.asarray(a)
    n = a.shape[-1]
    count = math.prod(a.shape[:-2])
    factor = 4.0 if a.dtype.kind == "c" else 1.0
    return count, count * factor * 4.0 * n**3 / 3.0


class Tracer:
    """Records spans (name, start, end, parent, report id) and a few
    counts read at the same boundaries."""

    def __init__(self):
        self.names: list = []
        self.name_id: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.nid = array("i")
        self.parent = array("i")
        self.report = array("i")
        self.stack: list = []
        self.open_by_id: defaultdict = defaultdict(int)
        self.inline_module = None
        self.report_id = -1
        self.counts: defaultdict = defaultdict(float)
        self.span_info: dict = {}
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        module = name.rsplit(".", 1)[0]
        hook = HOOKS.get(name)
        inline = name in INLINE_UNDER
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.open_by_id[nid] or tracer.inline_module == module:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.nid.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.report.append(tracer.report_id)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.open_by_id[nid] += 1
            if inline:
                tracer.inline_module = module
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
                tracer.open_by_id[nid] -= 1
                if inline:
                    tracer.inline_module = None
            if hook is not None:
                hook(tracer, idx, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding, recording each original for ``uninstall``."""
        mods = framedisc_modules()
        wrappers = {}
        for mod in mods:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(obj, f"{_short(mod.__name__)}.{attr}")
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for name in EIG_NAMES:
            fn = getattr(np.linalg, name.rsplit(".", 1)[1])
            self._patches.append((np.linalg, fn.__name__, fn))
            setattr(np.linalg, fn.__name__, self.wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name_id": np.frombuffer(self.nid, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "report": np.frombuffer(self.report, dtype=np.int32),
        }


# ---------------------------------------------------------------------------
# counts read from arguments and results at the boundary


def _eig_hook(tracer, idx, args, kwargs, result):
    count, flops = eig_flops(args[0])
    tracer.counts["eig.matrices"] += count
    tracer.counts["eig.flops"] += flops


def _exhaustive_signs_hook(tracer, idx, args, kwargs, result):
    n = args[0].n
    tracer.span_info[idx] = 2 ** (n - 1)


def _banaszczyk_signs_hook(tracer, idx, args, kwargs, result):
    evaluations = getattr(result, "evaluations", None)
    if evaluations is not None:
        tracer.span_info[idx] = evaluations


def _gaussian_hook(tracer, idx, args, kwargs, result):
    tracer.counts["gaussian.samples"] += kwargs.get("samples", args[1] if len(args) > 1 else 0)


def _net_hook(tracer, idx, args, kwargs, result):
    tracer.counts["net.points"] += result.points.shape[0]


def _matroid_hook(tracer, idx, args, kwargs, result):
    tracer.counts["matroid.elements"] += args[0].n


HOOKS = {
    "numpy.linalg.eigvalsh": _eig_hook,
    "numpy.linalg.eigh": _eig_hook,
    "engines.exhaustive_sign_search": _exhaustive_signs_hook,
    "engines.banaszczyk_sign_search": _banaszczyk_signs_hook,
    "engines.gaussian_median_radius": _gaussian_hook,
    "engines.build_epsilon_net": _net_hook,
    "engines.matroid_spanning_partition": _matroid_hook,
}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


ENGINE_FNS = (
    "exhaustive_sign_search", "banaszczyk_sign_search", "exhaustive_partition_search",
    "anneal_partition_search", "matroid_spanning_partition", "gaussian_median_radius",
    "sample_selfadjoint_gaussian", "build_epsilon_net", "net_certified_bound",
)


class SpanTable:
    """Durations, self times and enclosing spans over a Tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(a["names"])
        self.nid = a["name_id"]
        self.parent = a["parent"]
        self.report = a["report"]
        self.dur = a["end"] - a["start"]
        child = np.zeros(self.dur.size)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def ids(self, names) -> list:
        return [self.names.index(n) for n in names if n in self.names]

    def mask(self, names) -> np.ndarray:
        return np.isin(self.nid, self.ids(names))

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self.mask([name])))

    def busy(self, name: str) -> float:
        return float(self.dur[self.mask([name])].sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self.mask([name])].sum())

    def enclosing(self, names) -> np.ndarray:
        """For each span, the index of the nearest enclosing span (itself
        included) named in ``names``, or -1. Parents precede children."""
        target = self.mask(names)
        enc = np.full(self.dur.size, -1, dtype=np.int64)
        parent = self.parent
        for i in range(self.dur.size):
            if target[i]:
                enc[i] = i
            elif parent[i] >= 0:
                enc[i] = enc[parent[i]]
        return enc


def layer_metrics(tracer: Tracer, cycles: int, case_of_report: list, case_info: dict) -> tuple:
    """Per-layer metrics per traced cycle, and the per-search record of
    eigensolves inside ``exhaustive_sign_search``."""
    t = SpanTable(tracer)
    per = 1.0 / cycles
    eig = t.mask(EIG_NAMES)
    eig_busy = float(t.dur[eig].sum())
    root = t.mask(["cli.main"])
    total = float(t.dur[root].sum())
    m = {
        "linalg.eig.calls": int(eig.sum()) * per,
        "linalg.eig.matrices": tracer.counts["eig.matrices"] * per,
        "linalg.eig.busy_s": eig_busy * per,
        "linalg.eig.share": eig_busy / total if total else 0.0,
        "linalg.eig.gflops_computed": tracer.counts["eig.flops"] * 1e-9 * per,
        "linalg.eig.us_per_matrix": (eig_busy / tracer.counts["eig.matrices"] * 1e6
                                     if tracer.counts["eig.matrices"] else 0.0),
        "linalg.as_hermitian.calls": t.calls("linalg.as_hermitian") * per,
        "linalg.as_hermitian.busy_s": t.busy("linalg.as_hermitian") * per,
        "linalg.opnorm.calls": t.calls("linalg.opnorm") * per,
    }
    for name in ("frames.partition", "frames.subset_frame_bound",
                 "reductions.paving_quality", "reductions.compress"):
        m[f"{name}.calls"] = t.calls(name) * per
    for name in ("frames.subset_frame_bound", "frames.partition_certificate",
                 "frames.complete_to_tight", "frames.frame_bound",
                 "reductions.paving_quality", "reductions.compress",
                 "reductions.vectors_to_projection", "reductions.projection_to_vectors",
                 "reports.report_to_json", "reports.canonical_json", "reports.digest"):
        m[f"{name}.busy_s"] = t.busy(name) * per
    m["reductions.paving_quality.self_s"] = t.self_s("reductions.paving_quality") * per

    # Sizes known from the case definitions: enumeration leaves, and the
    # paving candidates whose validations are counted.
    span_case = np.array(list(case_of_report) + [""])[t.report]  # report -1 maps to ""
    leaves = sum(case_info[c].get("leaves", 0) for c in case_of_report) * per
    pave_cases = [c for c in set(case_of_report) if case_info[c].get("candidates")]
    candidates = sum(case_info[c].get("candidates", 0) for c in case_of_report)
    validations = np.count_nonzero(t.mask(["linalg.as_hermitian"])
                                   & np.isin(span_case, pave_cases))
    m["reductions.validations_per_candidate"] = validations / candidates if candidates else 0.0
    leaf_cases = [c for c in set(case_of_report) if case_info[c].get("leaves")]
    eig_in_leaf_cases = np.count_nonzero(eig & np.isin(span_case, leaf_cases))
    m["engines.partition_leaves"] = leaves
    m["engines.eig_per_leaf"] = eig_in_leaf_cases * per / leaves if leaves else 0.0

    for fn in ENGINE_FNS:
        m[f"engines.{fn}.busy_s"] = t.busy(f"engines.{fn}") * per
        m[f"engines.{fn}.self_s"] = t.self_s(f"engines.{fn}") * per

    # Sign patterns: 2^(n-1) per exhaustive search, the evaluation count
    # of each budgeted search.
    searches = ["engines.exhaustive_sign_search", "engines.banaszczyk_sign_search"]
    enc = t.enclosing(searches)
    patterns = sum(tracer.span_info.values())
    eig_in_search = np.bincount(enc[eig & (enc >= 0)], minlength=t.dur.size)
    search_busy = sum(t.busy(s) for s in searches)
    counted = list(tracer.span_info)
    m["engines.sign_patterns"] = patterns * per
    m["engines.patterns_per_s"] = patterns / search_busy if search_busy else 0.0
    m["engines.eig_per_pattern"] = (float(eig_in_search[counted].sum()) / patterns
                                    if patterns else 0.0)
    matroid_busy = t.busy("engines.matroid_spanning_partition")
    elements = tracer.counts["matroid.elements"]
    m["engines.matroid.us_per_element"] = matroid_busy / elements * 1e6 if elements else 0.0
    gauss_busy = t.busy("engines.gaussian_median_radius")
    m["engines.gaussian.samples_per_s"] = (tracer.counts["gaussian.samples"] / gauss_busy
                                           if gauss_busy else 0.0)
    m["engines.net_points"] = tracer.counts["net.points"] * per

    m["counterexample.verify_counterexample.self_s"] = (
        t.self_s("counterexample.verify_counterexample") * per)
    m["counterexample.subset_center_distance.calls"] = (
        t.calls("counterexample.subset_center_distance") * per)
    load = [n for n in t.names if n == "serialize.load_json" or
            (n.startswith("serialize.") and n.endswith("_from_dict"))]
    m["serialize.load.busy_s"] = float(t.dur[t.mask(load)].sum()) * per
    cli_spans = np.isin(t.nid, [i for i, n in enumerate(t.names) if n.startswith("cli.")])
    m["cli.self_s"] = float(t.self_time[cli_spans].sum()) * per

    exhaustive = t.ids(["engines.exhaustive_sign_search"])
    per_search = [
        {"case": case_of_report[t.report[i]], "patterns": tracer.span_info[i],
         "eig_calls": int(eig_in_search[i])}
        for i in counted if exhaustive and t.nid[i] == exhaustive[0]
    ]
    return m, per_search
