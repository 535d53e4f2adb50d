"""Correctness checks of the reports, run after the timed calls.

Each report must come with exit code 0, revalidate under
``framedisc.reports.revalidate`` and agree within relative 1e-9 with a
numpy recomputation made here from the case's inputs. Only the keys a
check needs are read, so new report fields never fail a check. Repeats of
a case must be identical apart from timing fields: a repeat whose
fingerprint equals an already checked report inherits that verdict.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math

import numpy as np

REL = 1e-9
TIMING_KEYS = ("wall_time_s", "timings")


class CheckError(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def agree(reported, recomputed, what: str, scale: float = 0.0) -> None:
    a, b = float(reported), float(recomputed)
    require(abs(a - b) <= REL * max(abs(a), abs(b), scale),
            f"{what}: reported {a!r}, recomputed {b!r}")


def opnorm(h: np.ndarray) -> float:
    w = np.linalg.eigvalsh(h)
    return float(max(abs(w[0]), abs(w[-1])))


def top_frame_eig(v: np.ndarray) -> float:
    if v.shape[0] == 0:
        return 0.0
    return float(max(np.linalg.eigvalsh(v.T @ v.conj())[-1], 0.0))


def signed_sum(signs, v: np.ndarray) -> np.ndarray:
    return np.einsum("i,ij,ik->jk", np.asarray(signs, dtype=float), v, v.conj())


def claim(report: dict, name: str) -> float:
    for c in report["claims"]:
        if c["name"] == name:
            return float(c["computed"])
    raise CheckError(f"report has no claim {name!r}")


def parts_of(assignment, r: int) -> list:
    a = np.asarray(assignment, dtype=np.int64) - 1
    require(a.min() >= 0 and a.max() < r, "assignment out of range")
    return [np.flatnonzero(a == j) for j in range(r)]


def load_system(d: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in d["vectors"]])


def load_matrix(d: dict) -> np.ndarray:
    n = int(d["dim"])
    return np.array([complex(re, im) for re, im in d["entries"]]).reshape(n, n)


@functools.lru_cache(maxsize=None)
def weaver_min(k: int) -> tuple:
    """(exact min over sign patterns, proven floor) for the Weaver family.

    The family is invariant under permuting its k-1 vectors, so the signed
    norm depends only on the number c of minus signs: k-1 eigensolves give
    the exact minimum over all 2^(k-2) patterns."""
    alpha, beta = (k - 1) ** -1.5, (k - 1) ** -0.5
    delta = (2 * k - 3) / (k - 1) ** 2
    v = np.full((k - 1, k), -alpha)
    np.fill_diagonal(v, (k - 2) * alpha)
    v[:, k - 1] = beta
    v /= math.sqrt(delta)
    best = min(opnorm(signed_sum(np.r_[np.ones(k - 1 - c), -np.ones(c)], v))
               for c in range(k - 1))
    return best, 1.0 / (delta * math.sqrt(k - 1))


@functools.lru_cache(maxsize=None)
def gaussian_radius(k: int, samples: int = 50000) -> float:
    """Independent estimate of the median operator norm of the standard
    Gaussian on k x k self-adjoint matrices."""
    rng = np.random.default_rng(12345)
    g = (rng.standard_normal((samples, k, k)) + 1j * rng.standard_normal((samples, k, k)))
    h = (g + np.conj(np.swapaxes(g, 1, 2))) / 2.0
    w = np.linalg.eigvalsh(h)
    return float(np.median(np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))))


def check_weaver(case, report, obj):
    exact, floor = weaver_min(case.data["k"])
    extra = report["extra"]
    value = float(extra["min_signed_norm_or_bound"])
    agree(extra["lower_bound"], floor, "lower bound")
    agree(claim(report, "signed_norm_floor"), value, "floor claim")
    if case.data["exact"]:
        agree(value, exact, "exact min signed norm")
    else:
        require(value >= exact * (1 - REL), f"heuristic bound {value!r} below exact {exact!r}")


def check_signs(case, report, obj):
    v = case.data["v"]
    signs = report["extra"]["witness"]["signs"]
    require(len(signs) == v.shape[0] and signs[0] == 1, "malformed witness")
    agree(claim(report, "min_signed_opnorm"), opnorm(signed_sum(signs, v)),
          "witness signed norm", scale=1.0)


def check_partition(case, report, obj):
    v, n_bound = case.data["v"], case.data["n_bound"]
    witness = report["extra"]["witness"]
    parts = parts_of(witness["assignment"], int(witness["r"]))
    require(sum(p.size for p in parts) == v.shape[0], "witness does not cover the system")
    worst = max(top_frame_eig(v[p]) for p in parts)
    agree(claim(report, "max_part_frame_bound"), worst, "max part bound", scale=n_bound)
    agree(report["extra"]["slack"], n_bound - worst, "slack", scale=n_bound)


def check_pave(case, report, obj):
    a = case.data["a"]
    norm = opnorm(a)
    witness = report["extra"]["witness"]
    parts = parts_of(witness["assignment"], int(witness["r"]))
    quality = max(opnorm(a[np.ix_(p, p)]) for p in parts if p.size)
    agree(claim(report, "paving_quality"), quality, "paving quality", scale=norm)
    bound = next(c["bound"] for c in report["claims"] if c["name"] == "paving_quality")
    agree(bound, norm, "opnorm of A")


def check_matroid(case, report, obj):
    v, r = case.data["v"], case.data["r"]
    k = v.shape[1]
    extra = report["extra"]
    if extra["feasible"]:
        parts = parts_of(extra["witness"]["assignment"], r)
        ranks = [int(np.linalg.matrix_rank(v[p])) if p.size else 0 for p in parts]
        require(all(rk == k for rk in ranks), f"part ranks {ranks} do not all equal {k}")
        agree(claim(report, "spanning_parts"), r, "spanning parts")
    else:
        x = {int(i) - 1 for i in extra["violating_set"]}
        rest = [i for i in range(v.shape[0]) if i not in x]
        d = int(np.linalg.matrix_rank(v[rest])) if rest else 0
        require(d == int(extra["complement_rank"]),
                f"complement rank {d} != reported {extra['complement_rank']}")
        deficiency = r * (k - d) - len(x)
        require(deficiency >= 1, f"violating set has deficiency {deficiency}")
        agree(claim(report, "violation_deficiency"), deficiency, "deficiency")


def check_banaszczyk(case, report, obj):
    v = case.data["v"]
    extra = report["extra"]
    agree(extra["M"], 5.0 * float(extra["R_hat"]), "M = 5 R_hat")
    value = opnorm(signed_sum(extra["witness"]["signs"], v) / 5.0)
    agree(claim(report, "signed_opnorm_le_M"), value, "witness signed norm", scale=1.0)
    require(value <= float(extra["M"]) * (1 + REL), "witness exceeds M")


def check_radius(case, report, obj):
    extra = report["extra"]
    agree(extra["M"], 5.0 * float(extra["R_hat"]), "M = 5 R_hat")
    ref = gaussian_radius(int(extra["k"]))
    require(abs(float(extra["R_hat"]) - ref) <= 0.05 * ref,
            f"R_hat {extra['R_hat']!r} is not within 5% of an independent {ref!r}")


def check_net(case, report, obj):
    v, n_bound = case.data["v"], case.data["n_bound"]
    extra = report["extra"]
    oracle = top_frame_eig(v)
    mesh = case.data["epsilon"] / (4.0 * n_bound)
    agree(extra["eigenvalue_oracle"], oracle, "eigenvalue oracle")
    agree(extra["mesh"], mesh, "mesh")
    agree(extra["certified_sup_bound"], float(extra["net_max"]) + 2.0 * n_bound * mesh,
          "certified bound")
    require(float(extra["net_max"]) <= oracle * (1 + REL), "net max exceeds the oracle")
    require(bool(extra["certified_net"]), "k = 2 net is not certified")


def check_vec2proj(case, report, obj):
    p = load_matrix(obj)
    scale = float(np.linalg.norm(p))
    agree(claim(report, "projection_residual"), np.linalg.norm(p @ p - p),
          "projection residual", scale=scale)
    agree(claim(report, "diagonal_delta_le_1_over_N"), np.max(np.real(np.diag(p))),
          "diagonal delta")
    agree(claim(report, "zero_diagonal_opnorm"), opnorm(p - np.diag(np.diag(p))),
          "zero-diagonal opnorm")
    require(abs(np.trace(p).real - 12.0) <= 1e-8, "projection rank is not 12")


def check_proj2vec(case, report, obj):
    v = load_system(obj)
    n_bound = case.data["n_bound"]
    agree(claim(report, "max_vector_norm_squared"),
          np.max(np.sum(np.abs(v) ** 2, axis=1)), "max squared norm")
    agree(claim(report, "frame_bound_equals_N"), top_frame_eig(v), "frame bound",
          scale=n_bound)


CHECKS = {
    "weaver": check_weaver, "signs": check_signs, "partition": check_partition,
    "pave": check_pave, "matroid": check_matroid, "banaszczyk": check_banaszczyk,
    "radius": check_radius, "net": check_net, "vec2proj": check_vec2proj,
    "proj2vec": check_proj2vec,
}


def fingerprint(report_text: str, object_bytes: bytes | None) -> str:
    """Digest of a report without its timing fields, plus its object file."""
    body = {k: v for k, v in json.loads(report_text).items() if k not in TIMING_KEYS}
    h = hashlib.sha256(json.dumps(body, sort_keys=True).encode())
    if object_bytes is not None:
        h.update(object_bytes)
    return h.hexdigest()


class Checker:
    """Checks the reports of one run, remembering verdicts by fingerprint
    and the first fingerprint of each case."""

    def __init__(self):
        self.verdicts: dict = {}
        self.reference: dict = {}

    def check(self, case, call) -> str | None:
        """Return None if the call's report is correct, else the reason."""
        if call.error is not None:
            return f"raised {call.error}"
        if call.code != 0:
            return f"exit code {call.code}"
        try:
            text = call.report_path.read_text()
            obj_bytes = call.object_path.read_bytes() if call.object_path else None
            fp = fingerprint(text, obj_bytes)
        except (OSError, ValueError, AttributeError) as exc:
            return f"unreadable report: {exc}"
        ref = self.reference.setdefault(case.name, fp)
        if fp != ref:
            return "report differs from the case's first report beyond timing fields"
        if fp not in self.verdicts:
            self.verdicts[fp] = self._verify(case, text, obj_bytes)
        return self.verdicts[fp]

    @staticmethod
    def _verify(case, text: str, obj_bytes: bytes | None) -> str | None:
        from framedisc.reports import report_from_dict, revalidate

        try:
            report = json.loads(text)
            require(report["passed"] is True, "report did not pass")
            require(revalidate(report_from_dict(report)), "claims do not revalidate")
            obj = json.loads(obj_bytes) if obj_bytes is not None else None
            CHECKS[case.check](case, report, obj)
        except CheckError as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError, StopIteration) as exc:
            return f"malformed report: {type(exc).__name__}: {exc}"
        return None
