"""Dense complex Hermitian linear algebra kernel.

Rank-one operators, Hermitian eigensystems, the operator norm, and
projection predicates. Everything here is a pure function of its
arguments; matrices are plain complex128 ndarrays validated (and lightly
symmetrized) on entry.

Two private kernels call the gufuncs of numpy.linalg._umath_linalg
directly, skipping the numpy.linalg wrappers: _cholesky_factors calls
cholesky_lo on stacks, and _opnorm calls eigvalsh_lo on a single matrix.
That module is private to numpy, so tests pin both against the public
functions.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import EigensolverError, InvalidParameterError

# Absolute tolerance for accepting a matrix as Hermitian; rounding noise
# from sums of rank-one operators sits well below this.
HERMITIAN_ATOL = 1e-12


def as_vector(v) -> np.ndarray:
    """Validate and return a finite complex vector."""
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise InvalidParameterError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError("vector has non-finite entries")
    return v


def as_hermitian(m, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate a square matrix as Hermitian and return (M + M*)/2.

    Deviation from self-adjointness beyond ``atol`` (absolute, entrywise)
    is rejected rather than silently absorbed.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidParameterError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidParameterError("matrix has non-finite entries")
    dev = np.max(np.abs(m - m.conj().T))
    if dev > atol:
        raise InvalidParameterError(
            f"matrix is not Hermitian: max deviation {dev:.3e} exceeds {atol:.1e}"
        )
    return (m + m.conj().T) / 2.0


def rank_one(v) -> np.ndarray:
    """The rank-one operator u -> <u,v> v as a matrix: M[i][j] = v[i] conj(v[j])."""
    v = as_vector(v)
    return np.outer(v, v.conj())


def _phase_normalized_rows(m: np.ndarray) -> np.ndarray:
    """Each row of m times the phase that makes its first entry of modulus
    > 1e-12 real nonnegative (rows with no such entry are kept). np.hypot
    rounds like the scalar abs(pivot), so a row comes out with the same bits
    as when it is normalized on its own."""
    big = np.abs(m) > 1e-12
    pivot = m[np.arange(m.shape[0]), np.argmax(big, axis=1)]
    found = big.any(axis=1)
    modulus = np.where(found, np.hypot(pivot.real, pivot.imag), 1.0)
    return m * np.where(found, pivot.conj() / modulus, 1.0)[:, None]


def _nonconvergence(h: np.ndarray, detail) -> EigensolverError:
    """The error for an eigensolve of h that failed to converge, carrying
    the off-diagonal residual."""
    off = ~np.eye(h.shape[-1], dtype=bool)
    return EigensolverError(f"eigensolver failed to converge: {detail}",
                            residual=float(np.linalg.norm(h[..., off])))


def _solve(solver, h: np.ndarray):
    """Run a numpy Hermitian eigensolver on h, a matrix or a stack (..., k, k);
    a convergence failure becomes an EigensolverError carrying the
    off-diagonal residual."""
    try:
        return solver(h)
    except np.linalg.LinAlgError as exc:
        raise _nonconvergence(h, exc) from exc


def _cholesky_factors(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Where LAPACK's Cholesky factorization of each matrix of a stack
    (..., k, k), read from its lower triangle, runs to the end: a bool array
    (...). It calls numpy.linalg._umath_linalg.cholesky_lo, the batched
    kernel behind np.linalg.cholesky, which writes NaN over a matrix whose
    factorization fails; with invalid operations ignored it does so without
    raising for the whole stack. The factors go to ``out`` if given (an
    array of a's shape and dtype, not overlapping a). That module is private
    to numpy, so a test pins this behaviour."""
    with np.errstate(invalid="ignore"):
        return ~np.isnan(_umath_linalg.cholesky_lo(a, out=out)[..., -1, -1])


def eigensystem(h) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) of a Hermitian matrix: the real eigenvalues w, ascending, and
    v[:, t] the unit eigenvector of w[t], with a deterministic phase (its
    first entry of modulus > 1e-12 is real nonnegative)."""
    w, v = _solve(np.linalg.eigh, as_hermitian(h))
    return w, _phase_normalized_rows(v.T).T


def eigenvalues(h) -> np.ndarray:
    """Eigenvalues only (ascending)."""
    return _solve(np.linalg.eigvalsh, as_hermitian(h))


def _opnorm(h: np.ndarray):
    """max(|lambda_min|, |lambda_max|) of a float64 or complex128 matrix the
    caller already knows to be Hermitian (a float), or of each matrix of a
    stack (..., k, k) (an array). No validation: this is the kernel of every
    enumeration loop.

    A single matrix goes straight to eigvalsh_lo, the gufunc behind
    np.linalg.eigvalsh, with the same eigenvalues bit for bit.
    When LAPACK fails to converge the gufunc writes NaN, which becomes an
    EigensolverError here, and raises numpy's invalid flag; a loop scoring
    many single matrices runs under np.errstate(all="ignore"), set once, so
    that the flag prints no RuntimeWarning first.
    """
    if h.ndim == 2:
        w = _umath_linalg.eigvalsh_lo(h)
        norm = max(abs(float(w[0])), abs(float(w[-1])))  # +0.0 for the zero matrix
        if norm != norm:
            raise _nonconvergence(h, "LAPACK returned NaN")
        return norm
    w = _solve(np.linalg.eigvalsh, h)
    return np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))


def opnorm(h) -> float:
    """Operator norm of a Hermitian matrix: max(|lambda_min|, |lambda_max|)."""
    h = as_hermitian(h)
    with np.errstate(all="ignore"):
        return _opnorm(h)


def is_projection(p, tol: float) -> bool:
    """True iff ||P^2 - P||_F <= tol and ||P - P*||_F <= tol.

    Accepts arbitrary square input; the Hermitian check is part of the
    predicate, not a precondition.
    """
    if tol <= 0:
        raise InvalidParameterError(f"tolerance must be positive, got {tol}")
    p = np.asarray(p, dtype=np.complex128)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise InvalidParameterError(f"expected a square matrix, got shape {p.shape}")
    herm_dev = np.linalg.norm(p - p.conj().T)
    idem_dev = np.linalg.norm(p @ p - p)
    return bool(herm_dev <= tol and idem_dev <= tol)


def diagonal_delta(p) -> float:
    """Largest diagonal entry (real part) of a Hermitian matrix."""
    p = as_hermitian(p, atol=np.inf)  # shape/finiteness checks only
    return float(np.max(np.real(np.diag(p))))
