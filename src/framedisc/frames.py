"""Vector systems, frame operators and bounds, and tight-frame completions.

A VectorSystem is a finite list of complex vectors in C^k. Its frame
operator is the PSD sum of the rank-one operators of the vectors, and the
optimal frame bound (the least N with sum_i |<u,v_i>|^2 <= N over unit u)
is exactly the top eigenvalue of that operator, so all bounds here come
from the eigenvalue oracle, never from sampling.

Two tight completions are provided:

* ``complete_to_tight`` pads an arbitrary system so its frame operator
  becomes N*I, splitting each residual eigendirection into equal rank-one
  pieces that respect a per-vector squared-norm cap.
* ``tight_pad_unit`` pads a system of m *unit* vectors in C^m to m*N unit
  vectors with frame operator N*I, via discrete-Fourier phases across the
  eigenbasis of the residual. ``unit_norm_lift`` turns a general system
  into unit vectors at the cost of extra dimensions, feeding that pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InfeasibleError, InvalidParameterError
from .linalg import as_hermitian, eigensystem, eigenvalues


@dataclass(frozen=True)
class VectorSystem:
    """n complex vectors in C^k, stored as rows of an (n, k) array."""

    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return self.vectors.shape[1]

    def norms_squared(self) -> np.ndarray:
        return np.sum(np.abs(self.vectors) ** 2, axis=1)


def _unit_ball_norms(vs: VectorSystem) -> np.ndarray:
    """The squared norms of vs; raises unless each is <= 1 (to 1e-12)."""
    ns = vs.norms_squared()
    if np.any(ns > 1 + 1e-12):
        raise InvalidParameterError(
            f"all vectors must have norm <= 1; max squared norm is {np.max(ns):.12g}"
        )
    return ns


def vector_system(vectors) -> VectorSystem:
    """Build a validated VectorSystem from an (n, k) array-like of vectors."""
    arr = np.asarray(vectors, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidParameterError(f"expected an (n, k) array of vectors, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError("vector system has non-finite entries")
    return VectorSystem(arr)


@dataclass(frozen=True)
class Partition:
    """Assignment of indices 0..n-1 to parts 0..r-1."""

    r: int
    assignment: np.ndarray

    @property
    def n(self) -> int:
        return self.assignment.size

    def parts(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.assignment == j) for j in range(self.r)]


def partition(r: int, assignment) -> Partition:
    assignment = np.asarray(assignment, dtype=np.int64)
    if r < 1:
        raise InvalidParameterError(f"part count must be >= 1, got {r}")
    if assignment.ndim != 1 or assignment.size < 1:
        raise InvalidParameterError("assignment must be a non-empty 1-d sequence")
    if np.any(assignment < 0) or np.any(assignment >= r):
        raise InvalidParameterError("assignment entries must lie in 0..r-1")
    return Partition(r=r, assignment=assignment)


def frame_operator(vs: VectorSystem) -> np.ndarray:
    """Sum of rank-one operators of the system's vectors (PSD Hermitian)."""
    s = vs.vectors.T @ vs.vectors.conj()
    # symmetrized: the product's rounding grows with the vectors' scale,
    # past any absolute Hermitian tolerance
    return (s + s.conj().T) / 2.0


def frame_bound(vs: VectorSystem) -> float:
    """Least N with sum_i |<u,v_i>|^2 <= N over unit u: the top eigenvalue."""
    w = eigenvalues(frame_operator(vs))
    return float(max(w[-1], 0.0))


def _subset_indices(X, n: int) -> np.ndarray:
    """The subset X of 0..n-1 as sorted int64 indices; raises unless they
    are distinct and in range."""
    idx = np.asarray(sorted(X), dtype=np.int64)
    if idx.size and (idx[0] < 0 or idx[-1] >= n) or np.any(idx[1:] == idx[:-1]):
        raise InvalidParameterError(f"subset indices must be distinct and in 0..{n - 1}")
    return idx


def subset_frame_bound(vs: VectorSystem, X) -> float:
    """Top eigenvalue of sum_{i in X} A_{v_i}; 0 for empty X."""
    return frame_bound(VectorSystem(vs.vectors[_subset_indices(X, vs.n)]))


def complete_to_tight(vs: VectorSystem, N: float, cap: float,
                      budget: int | None = None) -> VectorSystem:
    """Append vectors so the frame operator becomes N*I_k, each added vector
    with squared norm <= cap.

    The residual N*I - S is eigendecomposed; each eigenvalue b (above 1e-12)
    is split into ceil(b/cap) equal rank-one pieces along its eigenvector.
    The input vectors come first in the output, order preserved. The piece
    counts are summed in floats before any piece is built, and an output of
    m > ``budget`` vectors (an infinite count included) raises
    BudgetExceededError.
    """
    if not cap > 0:
        raise InvalidParameterError(f"cap must be positive, got {cap}")
    fb = frame_bound(vs)
    if fb > N + 1e-10:
        raise InfeasibleError(f"frame bound {fb:.12g} exceeds target N = {N:.12g}")
    residual = as_hermitian(N * np.eye(vs.k) - frame_operator(vs), atol=1e-9)
    values, f = eigensystem(residual)
    padded = np.flatnonzero(values > 1e-12)
    with np.errstate(over="ignore"):  # an overflowing count is infinite and refused
        # back off one ulp-scale so b == j*cap splits into exactly j pieces
        pieces = np.maximum(1.0, np.ceil(values[padded] / cap - 1e-9))
        m = vs.n + float(np.sum(pieces))
    if budget is not None and m > budget:
        raise BudgetExceededError(
            f"the tight completion has m = {m:.12g} vectors, over the budget {budget}")
    added = []
    for t, count in zip(padded, pieces.astype(np.int64)):
        w = math.sqrt(values[t] / count) * f[:, t]
        added.extend([w] * count)
    added_arr = np.array(added, dtype=np.complex128).reshape(len(added), vs.k)
    return VectorSystem(np.vstack([vs.vectors, added_arr]))


def unit_norm_lift(vs: VectorSystem) -> VectorSystem:
    """Lift n vectors with ||v_i|| <= 1 in C^k to n + k unit vectors in C^{n+k}.

    Vector i gains a component sqrt(1 - ||v_i||^2) on coordinate k + i; the
    k basis vectors e_{k+1}, ..., e_{2k} of the tail block are appended.
    If frame_bound(vs) <= N - sqrt(N) for some N >= 4, the lifted system has
    frame bound <= N (Cauchy-Schwarz cross-term estimate).
    """
    ns = _unit_ball_norms(vs)
    if vs.n < vs.k:
        raise InvalidParameterError(
            f"lift needs at least as many vectors as dimensions (n={vs.n} < k={vs.k}); "
            "restrict the ambient space to the span first"
        )
    n, k, m = vs.n, vs.k, vs.n + vs.k
    lifted = np.zeros((n, m), dtype=np.complex128)
    lifted[:, :k] = vs.vectors
    tail = np.sqrt(np.clip(1.0 - ns, 0.0, None))
    lifted[np.arange(n), k + np.arange(n)] = tail
    appended = np.zeros((k, m), dtype=np.complex128)
    appended[np.arange(k), k + np.arange(k)] = 1.0
    return VectorSystem(np.vstack([lifted, appended]))


def tight_pad_unit(vs: VectorSystem, N: int) -> VectorSystem:
    """Pad m unit vectors in C^m to m*N unit vectors with frame operator N*I_m.

    The residual B = N*I - S has trace (N-1)m because every tr A_{w_i} = 1;
    unit vectors u_s are built with <u_s, f_t> = sqrt(b_t / ((N-1)m)) times
    the DFT phase exp(2*pi*i*s*t/m) over the eigenbasis {f_t} of B, which
    gives sum_s A_{u_s} = B/(N-1). The output appends N-1 copies of each u_s.
    """
    if int(N) != N or N < 2:
        raise InvalidParameterError(f"N must be an integer >= 2, got {N}")
    N = int(N)
    m = vs.k
    if vs.n != m:
        raise InvalidParameterError(
            f"need exactly as many vectors as dimensions, got n={vs.n}, k={m}"
        )
    ns = vs.norms_squared()
    if np.any(np.abs(ns - 1.0) > 1e-10):
        raise InvalidParameterError("all vectors must be unit vectors (within 1e-10)")
    fb = frame_bound(vs)
    if fb > N + 1e-10:
        raise InfeasibleError(f"frame bound {fb:.12g} exceeds N = {N}")
    residual = as_hermitian(N * np.eye(m) - frame_operator(vs), atol=1e-9)
    tr = float(np.real(np.trace(residual)))
    if abs(tr - (N - 1) * m) > 1e-8:
        raise InfeasibleError(
            f"residual trace {tr:.12g} deviates from (N-1)m = {(N - 1) * m}"
        )
    w, f = eigensystem(residual)
    b = np.clip(w, 0.0, None)
    coef = np.sqrt(b / ((N - 1) * m))
    s_idx = np.arange(m)[:, None]
    t_idx = np.arange(m)[None, :]
    phases = np.exp(2j * np.pi * s_idx * t_idx / m)
    # u_s = sum_t coef[t] * phase[s, t] * f_t; rows of `padding` are the u_s
    padding = (phases * coef[None, :]) @ f.T
    return VectorSystem(np.vstack([vs.vectors, np.tile(padding, (N - 1, 1))]))
