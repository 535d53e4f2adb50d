"""JSON wire formats.

Complex scalars travel as [re, im] pairs. Matrices are row-major flat entry
lists with an explicit dimension. Partitions are 1-based on the wire
(parts 1..r) and 0-based in memory. Commands read matrices and vector
systems, and write those, partitions and sign vectors. The writers put
complex128 arrays in their dicts, which the emitter lays out as those
lists; the readers accept only parsed JSON lists.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidParameterError
from .frames import Partition, VectorSystem, vector_system
from .linalg import as_hermitian


def _require_keys(d, kind: str, keys: tuple) -> None:
    if not isinstance(d, dict) or not set(keys) <= d.keys():
        got = sorted(d) if isinstance(d, dict) else type(d).__name__
        raise InvalidParameterError(
            f"{kind} input needs keys {', '.join(map(repr, keys))}; got {got}"
        )


def _integer(d: dict, key: str, kind: str) -> int:
    """d[key] as an array dimension, from 0 to 2^63 - 1: a non-bool int, or
    a finite float with an integer value, as a writer that emits every
    number as a float gives."""
    value = d[key]
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParameterError(f"{kind} {key!r} must be an integer; got {value!r}")
    if value < 0:
        raise InvalidParameterError(f"{kind} {key!r} must be >= 0; got {value}")
    if value > np.iinfo(np.intp).max:
        raise InvalidParameterError(f"{kind} {key!r} must be at most {np.iinfo(np.intp).max}, "
                                    f"the largest array dimension; got {value}")
    return value


def _complex(z) -> complex:
    """Decode one [re, im] pair."""
    try:
        re, im = z
        return complex(re, im)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"complex entries travel as [re, im] pairs of numbers; got {z!r}"
        ) from None
    except OverflowError:  # an integer literal past the float range
        raise InvalidParameterError(
            "a complex entry holds an integer too large for a float") from None


def _complex_list(entries) -> list:
    if not isinstance(entries, list):
        raise InvalidParameterError(
            f"expected a list of [re, im] pairs; got {type(entries).__name__}"
        )
    return [_complex(z) for z in entries]


def matrix_to_dict(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"dim": int(m.shape[0]), "entries": m.ravel()}


def matrix_from_dict(d: dict) -> np.ndarray:
    """The Hermitian matrix of a wire dict (as_hermitian's check)."""
    _require_keys(d, "matrix", ("dim", "entries"))
    n = _integer(d, "dim", "matrix")
    flat = np.array(_complex_list(d["entries"]))
    if flat.size != n * n:
        raise InvalidParameterError(f"matrix dim {n} needs {n * n} entries, got {flat.size}")
    return as_hermitian(flat.reshape(n, n))


def system_to_dict(vs: VectorSystem) -> dict:
    return {"k": vs.k, "vectors": vs.vectors}


def system_from_dict(d: dict) -> VectorSystem:
    _require_keys(d, "vector-system", ("k", "vectors"))
    k = _integer(d, "k", "vector-system")
    if not isinstance(d["vectors"], list):
        raise InvalidParameterError("vector-system 'vectors' must be a list of vectors")
    rows = [_complex_list(row) for row in d["vectors"]]
    try:
        vectors = np.array(rows, dtype=np.complex128).reshape(len(rows), k)
    except ValueError:  # ragged rows, or rows of another length than k
        i = next((i for i, row in enumerate(rows) if len(row) != k), None)
        if i is None:
            raise
        raise InvalidParameterError(
            f"declared k = {k} but vector {i} has length {len(rows[i])}") from None
    return vector_system(vectors)


def partition_to_dict(p: Partition) -> dict:
    return {"r": p.r, "assignment": [int(a) + 1 for a in p.assignment]}


def signs_to_dict(signs: np.ndarray) -> dict:
    return {"signs": [int(x) for x in signs]}


def _reject_constant(literal: str):
    raise InvalidParameterError(f"input holds {literal}, which is not a JSON number")


def load_json(path) -> tuple:
    """Read the file once, in binary, and return (its parsed JSON, the
    bytes read); reports digest those bytes. The literals NaN, Infinity and
    -Infinity, which Python's json accepts but JSON does not, are refused
    wherever they appear, and so is nesting too deep for the parser's
    recursion."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw, parse_constant=_reject_constant), raw
    except RecursionError:
        raise InvalidParameterError(
            "input nests its arrays or objects too deeply to parse") from None
