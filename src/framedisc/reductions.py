"""Two-way bridge between orthogonal projections and vector systems.

Forward: a projection P with small diagonal yields vectors v_i = sqrt(N) P e_i
expressed in an orthonormal basis of range(P); their frame bound is exactly N.
Converse: a bounded vector system is shrunk by 1/sqrt(N), completed to a
Parseval-type family, and its Gram matrix is an orthogonal projection whose
diagonal is at most 1/N; subtracting the diagonal leaves a zero-diagonal
matrix A = P - D with ||A|| <= 1 + 1/N, the paving-problem test matrix.

The paving quality max_j ||Q_j A Q_j|| lives here too: the Q_j are the
diagonal projections onto the parts of a Partition, so Q_j A Q_j is A with
the rows and columns outside part j zeroed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .frames import Partition, VectorSystem, _unit_ball_norms, complete_to_tight, frame_bound
from .linalg import as_hermitian, diagonal_delta, eigensystem, is_projection, opnorm


@dataclass(frozen=True)
class ReductionTrace:
    """Artifacts of the vectors -> projection construction."""

    m: int
    w: VectorSystem
    P: np.ndarray
    D: np.ndarray
    A: np.ndarray


def projection_to_vectors(P, N: float) -> VectorSystem:
    """Vectors v_i = sqrt(N) P e_i in coordinates of an orthonormal basis of range(P).

    Requires P to pass the projection predicate at 1e-8 and delta(P) <= 1/N.
    The output satisfies ||v_i||^2 = N p_ii <= 1 and has frame bound exactly N.
    """
    if N < 1:
        raise InvalidParameterError(f"N must be >= 1, got {N}")
    P = np.asarray(P, dtype=np.complex128)
    if not is_projection(P, 1e-8):
        raise InvalidParameterError("input fails the projection test at tolerance 1e-8")
    P = as_hermitian(P, atol=1e-8)
    delta = diagonal_delta(P)
    if delta > 1.0 / N + 1e-10:
        raise InvalidParameterError(
            f"delta(P) = {delta:.12g} exceeds 1/N = {1.0 / N:.12g}"
        )
    w, f = eigensystem(P)
    keep = np.flatnonzero(w >= 0.5)
    if keep.size == 0:
        raise InvalidParameterError("projection has rank 0; no range basis exists")
    # Deterministic basis order: descending eigenvalue, lexicographic on the
    # phase-normalized vector for ties.
    cols = sorted(
        keep,
        key=lambda t: (-w[t], tuple(zip(f[:, t].real, f[:, t].imag))),
    )
    F = f[:, cols]  # n x k, orthonormal columns spanning range(P)
    # <P e_i, f_t> = conj(F[i, t]) since f_t is in range(P)
    vectors = np.sqrt(N) * F.conj()
    return VectorSystem(k=F.shape[1], vectors=vectors)


def vectors_to_projection(vs: VectorSystem, N: float) -> ReductionTrace:
    """Gram-projection construction: shrink by 1/sqrt(N), complete to a
    Parseval-type family with per-operator norm cap 1/N, and return the Gram
    projection P, its diagonal D, and the zero-diagonal part A = P - D."""
    if N < 1:
        raise InvalidParameterError(f"N must be >= 1, got {N}")
    _unit_ball_norms(vs)
    fb = frame_bound(vs)
    if fb > N + 1e-10:
        raise InvalidParameterError(f"frame bound {fb:.12g} exceeds N = {N:.12g}")
    shrunk = VectorSystem(k=vs.k, vectors=vs.vectors / np.sqrt(N))
    completed, _ = complete_to_tight(shrunk, 1.0, 1.0 / N)
    W = completed.vectors  # m x k rows w_i with sum_i w_i w_i^* = I_k
    P = W.conj() @ W.T  # P[i][j] = <w_j, w_i>
    P = (P + P.conj().T) / 2.0
    D = np.diag(np.diag(P))
    A = P - D
    np.fill_diagonal(A, 0.0)
    return ReductionTrace(m=W.shape[0], w=completed, P=P, D=D, A=A)


def paving_quality(A, part: Partition) -> float:
    """max_j ||Q_j A Q_j|| over the diagonal projections Q_j onto the parts,
    each Q_j A Q_j the n x n matrix A with the rows and columns outside
    part j zeroed; empty parts are skipped."""
    A = as_hermitian(A)
    if A.shape[0] != part.n:
        raise InvalidParameterError(
            f"dimension mismatch: matrix {A.shape[0]}, partition over {part.n}"
        )
    best = 0.0
    for idx in part.parts():
        if idx.size:
            qaq = np.zeros_like(A)
            qaq[np.ix_(idx, idx)] = A[np.ix_(idx, idx)]
            best = max(best, opnorm(qaq))
    return best


def random_projection(k: int, n: int, delta_max: float, rng) -> np.ndarray:
    """Random rank-k orthogonal projection in C^n with delta(P) <= delta_max.

    Orthonormalizes the rows of a k x n complex Gaussian matrix and forms
    P = V* V; rejects and resamples while the diagonal bound fails.
    """
    if not 1 <= k <= n:
        raise InvalidParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    for _ in range(10000):
        g = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        # rows of v are an orthonormal basis of the row space of g
        q, _ = np.linalg.qr(g.conj().T)
        v = q[:, :k].conj().T
        p = v.conj().T @ v
        p = (p + p.conj().T) / 2.0
        if diagonal_delta(p) <= delta_max:
            return p
    raise InvalidParameterError(
        f"could not sample a projection with delta(P) <= {delta_max} (k={k}, n={n})"
    )
