"""Self-checking verification reports.

A report records the command, a digest of its inputs, the seed/budget that
drove it, and a list of claims. Each claim stores the computed value, the
bound it is compared against, a tolerance, and the comparison relation, so
the pass flag can always be recomputed from the stored numbers
(`revalidate`). JSON output formats every float with 17 significant digits,
which round-trips binary64 exactly; re-running a command with the same
seed and budget therefore reproduces the report byte for byte apart from
the wall-time field.

The inputs digest of a command that reads an input file is the SHA-256 of
the bytes it read, so ``sha256sum <input>`` reproduces it; a command that
reads only parameters digests their canonical JSON (see `digest`).

Bulk payloads (a matrix's entries, a system's vectors) reach the emitter
as float64 or complex128 arrays, complex as a trailing [re, im] axis. The
text around an array's items, as the recursive path would lay out
``arr.tolist()``, comes from its shape. Each distinct magnitude is
formatted once, as ``format_float`` would, its negation is that text after
a minus sign, and each item takes the string of its magnitude and sign
bit: the recursive path's bytes. Lists and other arrays take that path.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

RELATIONS = ("le", "ge", "abs")


def _claim_passes(computed: float, bound: float, tolerance: float, relation: str) -> bool:
    if relation == "le":
        return computed <= bound + tolerance
    if relation == "ge":
        return computed >= bound - tolerance
    if relation == "abs":
        return abs(computed - bound) <= tolerance
    raise InvalidParameterError(f"unknown relation {relation!r}")


@dataclass
class Claim:
    """One checked assertion: computed value vs bound under a relation."""

    name: str
    computed: float
    bound: float
    tolerance: float
    relation: str
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise InvalidParameterError(f"relation must be one of {RELATIONS}")
        self.passed = _claim_passes(self.computed, self.bound, self.tolerance, self.relation)


@dataclass
class VerificationReport:
    command: str
    inputs_digest: str
    claims: list
    seed: int | None = None
    budget: int | None = None
    extra: dict | None = None
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)


def revalidate(report: VerificationReport) -> bool:
    """Recompute every pass flag from the stored numbers; True iff all
    stored flags are reproduced."""
    return all(
        c.passed == _claim_passes(c.computed, c.bound, c.tolerance, c.relation)
        for c in report.claims
    )


def finish_report(command, inputs, claims, seed=None, budget=None,
                  extra=None) -> VerificationReport:
    return VerificationReport(
        command=command,
        inputs_digest=digest(inputs),
        claims=list(claims),
        seed=seed,
        budget=budget,
        extra=extra,
    )


# ---------------------------------------------------------------------------
# canonical JSON (deterministic float formatting)


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvalidParameterError(f"cannot serialize non-finite float {x}")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


# format_float's layouts of a finite magnitude, one per line: "%.1f" (as "%.01f",
# of the other's width) if integer-valued and below 1e16, else "%.17g"
_SLOTS = (b"%.01f\n", b"%.17g\n")


def _separators(shape: tuple, pad: str) -> list:
    """The text before, between and after the items of a nonempty array of
    this shape, as the recursive path lays out its nested lists."""
    if not shape:
        return ["", ""]
    inner = _separators(shape[1:], pad + "  ")
    mid, last = inner[1:-1], inner[-1]
    head, between = [f"[\n{pad}  {inner[0]}", *mid], [f"{last},\n{pad}  {inner[0]}", *mid]
    return head + between * (shape[0] - 1) + [f"{last}\n{pad}]"]


def _array_json(x: np.ndarray, pad: str) -> str:
    """A nonempty float64 array laid out as canonical_json(x.tolist())."""
    u, inv = np.unique(np.abs(x), return_inverse=True)
    if not math.isfinite(u[-1]):  # np.unique sorts nan and inf last
        raise InvalidParameterError(f"cannot serialize non-finite float {u[-1]}")
    integral = (u == np.trunc(u)) & (u < 1e16)
    text = np.where(integral, *_SLOTS).tobytes().decode() % tuple(u.tolist())
    # the magnitudes' strings, then their negations (and a last "-", unused)
    strings = np.array((text + "-" + text.replace("\n", "\n-")).split("\n"), dtype=object)
    out = np.empty(2 * x.size + 1, dtype=object)
    out[0::2] = _separators(x.shape, pad)
    out[1::2] = strings[inv.ravel() + u.size * np.signbit(x).ravel()]
    return "".join(out.tolist())


def canonical_json(obj, indent: int = 0) -> str:
    """JSON with sorted keys and 17-significant-digit floats."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {canonical_json(obj[k], indent + 2)}'
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {canonical_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return format_float(float(obj))
    if isinstance(obj, np.complexfloating):
        return canonical_json([float(obj.real), float(obj.imag)], indent)
    if isinstance(obj, np.ndarray):
        obj = np.stack([obj.real, obj.imag], -1) if obj.dtype == np.complex128 else obj
        if obj.dtype == np.float64 and obj.size:
            return _array_json(obj, pad)
        return canonical_json(obj.tolist(), indent)
    if isinstance(obj, complex):
        return canonical_json([obj.real, obj.imag], indent)
    raise InvalidParameterError(f"cannot serialize object of type {type(obj)!r}")


def digest(inputs) -> str:
    """SHA-256 of the inputs: bytes (an input file as read) are hashed as
    they are, anything else (a command's parameters) by its canonical
    JSON."""
    if isinstance(inputs, bytes):
        return hashlib.sha256(inputs).hexdigest()
    return hashlib.sha256(canonical_json(inputs).encode()).hexdigest()


def claim_to_dict(c: Claim) -> dict:
    return {
        "name": c.name,
        "computed": float(c.computed),
        "bound": float(c.bound),
        "tolerance": float(c.tolerance),
        "relation": c.relation,
        "passed": c.passed,
    }


def report_to_dict(r: VerificationReport) -> dict:
    return {
        "command": r.command,
        "inputs_digest": r.inputs_digest,
        "claims": [claim_to_dict(c) for c in r.claims],
        "seed": r.seed,
        "budget": r.budget,
        "extra": r.extra,
        "passed": r.passed,
        "wall_time_s": float(r.wall_time_s),
    }


def report_from_dict(d: dict) -> VerificationReport:
    claims = []
    for cd in d["claims"]:
        c = Claim(name=cd["name"], computed=cd["computed"], bound=cd["bound"],
                  tolerance=cd["tolerance"], relation=cd["relation"])
        c.passed = cd["passed"]  # preserve the stored flag; revalidate() re-derives it
        claims.append(c)
    return VerificationReport(
        command=d["command"],
        inputs_digest=d["inputs_digest"],
        claims=claims,
        seed=d.get("seed"),
        budget=d.get("budget"),
        extra=d.get("extra"),
        wall_time_s=d.get("wall_time_s", 0.0),
    )


def report_to_json(r: VerificationReport) -> str:
    return canonical_json(report_to_dict(r)) + "\n"
