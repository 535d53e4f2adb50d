"""The canonical JSON emitter against a plain recursive reference.

`reference_json` is the one-call-per-value emitter that `canonical_json`
must reproduce byte for byte; the array path for float64 and complex128
arrays is checked against it on generated and hand-picked inputs, and the
wire dicts' arrays against their element-wise [re, im] form.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from framedisc import InvalidParameterError, reports, vector_system
from framedisc.reports import canonical_json, format_float
from framedisc.rng import make_rng
from framedisc.serialize import matrix_to_dict, system_to_dict

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def reference_json(obj, indent: int = 0) -> str:
    """One recursive call per value: the layout canonical_json keeps."""
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
        items = [f'{pad}  "{k}": {reference_json(obj[k], indent + 2)}' for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {reference_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return format_float(float(obj))
    if isinstance(obj, np.complexfloating):
        return reference_json([float(obj.real), float(obj.imag)], indent)
    if isinstance(obj, np.ndarray):
        return reference_json(obj.tolist(), indent)
    if isinstance(obj, complex):
        return reference_json([obj.real, obj.imag], indent)
    raise InvalidParameterError(f"cannot serialize object of type {type(obj)!r}")


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 1e16 - 2.0, 9999999999999998.0,
                     0.1, 5e-324, 1.7976931348623157e308]),
)
SCALARS = st.one_of(FLOATS, st.integers(-10**20, 10**20), st.booleans(), st.none(),
                    st.text(max_size=6))
ROWS = st.integers(1, 4).flatmap(
    lambda w: st.lists(st.lists(FLOATS, min_size=w, max_size=w), min_size=1, max_size=6))
TREES = st.recursive(
    st.one_of(SCALARS, ROWS),
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(st.text("abcxyz_", min_size=1, max_size=4), kids, max_size=4),
    ),
    max_leaves=40,
)


@SEEDED
@given(obj=TREES, indent=st.sampled_from([0, 2, 6]))
def test_matches_recursive_reference(obj, indent):
    assert canonical_json(obj, indent) == reference_json(obj, indent)


@SEEDED
@given(rows=ROWS, at=st.integers(0, 30), bad=st.sampled_from([1, True, None, "x", [1.0]]))
def test_rows_with_a_foreign_item_match_reference(rows, at, bad):
    # one non-float item anywhere sends the list down the recursive path
    flat = [x for r in rows for x in r]
    i = at % len(flat)
    w = len(rows[0])
    rows[i // w][i % w] = bad
    assert canonical_json(rows) == reference_json(rows)
    assert canonical_json({"entries": rows}, 4) == reference_json({"entries": rows}, 4)


CASES = {
    "equal-width rows": [[0.5, -1.25], [3.0, 1e-300], [2.0 / 3.0, -7.0]],
    "negative zero": [[-0.0, 0.0], [0.0, -0.0]],
    "integral floats around 1e16": [[1e16 - 2.0, 1e16], [-1e16, 1e16 + 2.0],
                                    [123456789012345.0, 1e300]],
    "ragged rows": [[1.0, 2.0], [3.0]],
    "row with an int": [[1.0, 2.0], [3.0, 4]],
    "row with a bool": [[1.0, True], [3.0, 4.0]],
    "row with a numpy float": [[1.0, np.float64(2.5)], [3.0, 4.0]],
    "empty rows": [[], []],
    "an empty row among float rows": [[1.0, 2.0], []],
    "tuple rows": [(1.0, 2.0), (3.0, 4.0)],
    "tuple of lists": ([1.0, 2.0], [3.0, 4.0]),
    "width one": [[1.5], [2.5], [-3.0]],
    "nested in a dict": {"b": [[1.0, 2.0]], "a": {"entries": [[0.1, 0.2], [0.3, 0.4]]}},
    "rows of rows": [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]],
    "real numpy matrix": np.arange(12.0).reshape(4, 3) / 7.0,
    "complex numpy vector": np.array([1 + 2j, -0.0 - 1j]),
    "transposed complex matrix": (np.arange(6.0).reshape(2, 3) - 2.5 + 1j).T,
    "numpy int matrix": np.arange(6).reshape(2, 3),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("indent", [0, 4])
def test_named_shapes_match_reference(name, indent):
    assert canonical_json(CASES[name], indent) == reference_json(CASES[name], indent)


SPECIAL_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1e16 - 2.0, -(1e16 - 2.0), 1e16 + 2.0,
                     5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1e300, 2.0**53, 0.1, -7.0]),
    st.integers(-10**15, 10**15).map(float),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)


def float_rows(items):
    return st.integers(1, 4).flatmap(
        lambda w: st.lists(st.lists(items, min_size=w, max_size=w), min_size=1, max_size=8))


@SEEDED
@given(rows=float_rows(SPECIAL_FLOATS), indent=st.sampled_from([0, 4]))
def test_float_rows_match_per_item_path(rows, indent):
    # -0.0, integer-valued floats on both sides of 1e16, subnormals and huge
    # values, laid out as format_float lays out each item
    assert canonical_json(rows, indent) == reference_json(rows, indent)


@st.composite
def wire_arrays(draw):
    """float64 or complex128 arrays of ndim 1 to 3, some with an axis of
    length 0, whose items take a few magnitudes, each with either sign."""
    shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5))
    is_complex = draw(st.booleans())
    pool = draw(st.lists(SPECIAL_FLOATS.map(abs), min_size=1, max_size=6))
    size = math.prod(shape) * (2 if is_complex else 1)
    items = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()),
                          min_size=size, max_size=size))
    flat = np.array([-m if negative else m for m, negative in items], dtype=np.float64)
    # a complex item is its two floats' bits: the view keeps each -0.0
    return (flat.view(np.complex128) if is_complex else flat).reshape(shape)


@SEEDED
@given(arr=wire_arrays(), indent=st.sampled_from([0, 4]))
def test_arrays_match_reference_of_their_lists(arr, indent):
    assert canonical_json(arr, indent) == reference_json(arr.tolist(), indent)
    assert canonical_json({"v": arr}, indent) == reference_json({"v": arr.tolist()}, indent)


@SEEDED
@given(arr=wire_arrays())
def test_arrays_make_no_call_per_item(arr):
    calls = []

    def counted(x):
        calls.append(x)
        return format_float(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reports, "format_float", counted)
        assert canonical_json(arr) == reference_json(arr.tolist())
    assert calls == []


@settings(SEEDED, max_examples=100)
@given(arr=wire_arrays().filter(lambda a: a.size),
       bad=st.sampled_from([math.inf, -math.inf, math.nan, 1.8e308]), at=st.integers(0, 200))
def test_non_finite_in_an_array_raises(arr, bad, at):
    arr.flat[at % arr.size] = bad
    with pytest.raises(InvalidParameterError):
        canonical_json(arr)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", [0, 3, 5])
def test_non_finite_in_a_row_raises(bad, where):
    rows = [[0.5, 1.0], [2.0, 3.0], [4.0, 5.0]]
    rows[where // 2][where % 2] = bad
    with pytest.raises(InvalidParameterError):
        canonical_json(rows)
    with pytest.raises(InvalidParameterError):
        canonical_json({"entries": rows})


def elementwise_pairs(arr):
    return [[float(z.real), float(z.imag)] for z in arr]


@pytest.mark.parametrize("seed", range(5))
def test_pairs_match_elementwise_form(seed):
    # == cannot tell -0.0 from 0.0, so the emitted text is compared as well
    rng = make_rng(seed)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m[0, ::2] = complex(-0.0, 0.0)
    m[1, 1::2] = complex(0.0, -0.0)
    real = rng.standard_normal(5)
    real[0] = -0.0
    vs = vector_system(m[:4, :3])
    for arr, ref in [(m[0], elementwise_pairs(m[0])),
                     (real.astype(np.complex128), elementwise_pairs(real)),
                     (matrix_to_dict(m)["entries"], elementwise_pairs(m.ravel())),
                     (system_to_dict(vs)["vectors"], [elementwise_pairs(r) for r in vs.vectors])]:
        got = json.loads(canonical_json(arr))  # the wire text
        assert got == ref
        assert canonical_json(got) == reference_json(ref)
        assert canonical_json(arr) == reference_json(ref)
    assert "-0.0" in canonical_json(system_to_dict(vs))
