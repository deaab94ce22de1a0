"""JSON encoding and decoding of the core objects and of the CLI's
reports: the one module that knows the JSON form, in both directions.

Out: `to_json` renders every value, and `dumps` prints what it renders.
Exact rationals render as "p" or "p/q" strings; floats render as JSON
numbers (repr round-trips exactly); table keys render as "i,j,…".

In: every loader reads each field through one typed reader per JSON
kind (`_table` for an object keyed by index tuples, `_list`, `_int`,
`_shape_field`), so a field of the wrong JSON type is a ValueError like
any other malformed input. Loading accepts either number form per
entry, so exact files stay exact and float files stay float; the exact
objects (spaces, measurements, witnesses, assemblages) refuse a
non-integral float with a ValueError. Every loader runs through the
same constructors as the in-memory API, so a malformed file fails with
the usual validation errors.
"""
from __future__ import annotations

import json

import numpy as np

from . import linalg as la
from .bell import Box
from .channels import ChoiMatrix
from .exact import format_rat, is_rational, rat
from .measurements import MeasurementCollection, make_collection
from .polysimplex import PolySimplex, polysimplex_space
from .spaces import StateSpace, check_facets_generate
from .steering import Assemblage
from .witnesses import WitnessMap, make_witness_map


def to_json(v):
    """The JSON form of a value: rationals as "p/q" strings; ints, floats,
    bools, strings and None as themselves; tuples and lists as lists;
    dicts in key order, a tuple key as "0,1" and a pair of tuples as
    "0,1;1,0"; the core objects through their writers, and a numpy
    matrix as row-major complex [re, im] pairs."""
    if v is None or isinstance(v, (bool, str, int, float)):
        return v
    if is_rational(v):
        return format_rat(v)
    if isinstance(v, (list, tuple)):
        return [to_json(x) for x in v]
    if isinstance(v, dict):
        return {_key_to_json(k): to_json(x) for k, x in sorted(v.items())}
    writer = _WRITERS.get(type(v))
    if writer is None:
        raise TypeError(f"cannot render {type(v).__name__}")
    return writer(v)


def _key_to_json(key):
    if isinstance(key, str):
        return key
    if isinstance(key[0], tuple):
        return ";".join(map(_key_to_json, key))
    return ",".join(map(str, key))


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          float: "a number", bool: "a boolean", type(None): "null"}


def _typed(v, kind, what):
    """v, refused with a ValueError unless it is a JSON value of `kind`
    (a JSON boolean is never an integer)."""
    if isinstance(v, bool) or not isinstance(v, kind):
        got = _KINDS.get(type(v), type(v).__name__)
        raise ValueError(f"{what} should be {_KINDS[kind]}, got {got}")
    return v


def _require(obj, *keys):
    _typed(obj, dict, "the input")
    for k in keys:
        if k not in obj:
            raise ValueError(f"missing required key {k!r}")


def _int(v, what):
    return _typed(v, int, what)


def _list(v, read, what):
    """A JSON list, each entry through `read`, as a tuple."""
    return tuple(read(x) for x in _typed(v, list, what))


def _table(v, arity, read, what):
    """A JSON object keyed by index tuples "i,j,…" of `arity` entries,
    each value through `read`."""
    return {_key_from_json(k, arity): read(x) for k, x in _typed(v, dict, what).items()}


def _key_from_json(s, arity):
    try:
        key = tuple(int(t) for t in s.split(","))
    except ValueError:
        raise ValueError(f"malformed index key {s!r}") from None
    if len(key) != arity:
        raise ValueError(f"index key {s!r} should have {arity} entries")
    return key


def _shape_field(obj, key="shape") -> PolySimplex:
    _require(obj, key)
    return PolySimplex(_list(obj[key], lambda l: _int(l, f"an entry of {key!r}"), repr(key)))


def scalar_from_json(v):
    if isinstance(v, str):
        return rat(v)
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got {v!r}")
    if isinstance(v, int):
        return rat(v)
    if isinstance(v, float):
        return v
    raise ValueError(f"expected a number or 'p/q' string, got {v!r}")


def _exact_from_json(v):
    """An exact rational; a non-integral float is bad input."""
    x = scalar_from_json(v)
    if isinstance(x, float):
        if not x.is_integer():
            raise ValueError(f"exact value expected (a 'p/q' string), got {v!r}")
        return rat(x)
    return x


def _vec_from_json(v, what="a vector"):
    return _list(v, _exact_from_json, what)


def _space_field(obj, space):
    """`space` when given, else the object's "space" reference."""
    if space is not None:
        return space
    _require(obj, "space")
    return resolve_space(obj["space"])


# -- state spaces -------------------------------------------------------

def space_to_json(space: StateSpace) -> dict:
    return to_json({"label": space.label, "dim": space.dim, "vertices": space.vertices,
                    "unit": space.unit, "facets": space.facets})


def space_from_json(obj) -> StateSpace:
    _require(obj, "label", "vertices", "unit", "facets")
    space = StateSpace(_typed(obj["label"], str, "'label'"),
                       _list(obj["vertices"], _vec_from_json, "'vertices'"),
                       _vec_from_json(obj["unit"], "'unit'"),
                       _list(obj["facets"], _vec_from_json, "'facets'"))
    if "dim" in obj and _int(obj["dim"], "'dim'") != space.dim:
        raise ValueError(f"declared dim {obj['dim']} != actual {space.dim}")
    check_facets_generate(space)
    return space


def builtin_space(label: str) -> StateSpace:
    """Resolve a polysimplex label: square, cube:m, delta:m, poly:l0,l1,…"""
    if label == "square":
        return polysimplex_space((1, 1))
    kind, _, arg = label.partition(":")
    try:
        if kind == "cube":
            return polysimplex_space((1,) * int(arg))
        if kind == "delta":
            return polysimplex_space((int(arg),))
        if kind == "poly":
            return polysimplex_space(tuple(int(t) for t in arg.split(",")))
    except ValueError:
        pass
    raise ValueError(f"unknown space label {label!r}")


def space_ref_to_json(space: StateSpace):
    """A label string when the label regenerates the space, else inline."""
    try:
        built = builtin_space(space.label)
    except ValueError:
        return space_to_json(space)
    if (built.vertices == space.vertices and built.unit == space.unit
            and built.facets == space.facets):
        return space.label
    return space_to_json(space)


def resolve_space(ref) -> StateSpace:
    if isinstance(ref, StateSpace):
        return ref
    if isinstance(ref, str):
        return builtin_space(ref)
    return space_from_json(ref)


# -- measurement collections --------------------------------------------

def measurement_to_json(F: MeasurementCollection) -> dict:
    return {"space": space_ref_to_json(F.space), "shape": list(F.shape.shape),
            "effects": to_json(F.effects)}


def measurement_from_json(obj, space: StateSpace | None = None) -> MeasurementCollection:
    _require(obj, "shape", "effects")
    space = _space_field(obj, space)
    return make_collection(space, _shape_field(obj),
                           _table(obj["effects"], 2, _vec_from_json, "'effects'"))


# -- witness maps --------------------------------------------------------

def witness_to_json(W: WitnessMap) -> dict:
    return {"shape": list(W.shape.shape), "space": space_ref_to_json(W.space),
            "vertices": to_json(W.vertex_images)}


def witness_from_json(obj, space: StateSpace | None = None) -> WitnessMap:
    _require(obj, "shape", "vertices")
    space = _space_field(obj, space)
    shape = _shape_field(obj)
    images = _table(obj["vertices"], shape.k + 1, _vec_from_json, "'vertices'")
    return make_witness_map(shape, space, images)


# -- assemblages ---------------------------------------------------------

def assemblage_to_json(beta: Assemblage) -> dict:
    return {"shape": list(beta.shape.shape), "space": space_ref_to_json(beta.space),
            "x": to_json(beta.x), "p": to_json(beta.p),
            "sub_states": to_json(beta.sub_states)}


def assemblage_from_json(obj, space: StateSpace | None = None) -> Assemblage:
    """The file gives β by x, p(j|i) and x_{j|i}. Checked here, as only
    that form needs it: both tables match the shape's keys, every
    sub-state is a state of K (also where p(j|i) = 0), and x is the
    average of the rows σ_{j|i} = p(j|i)·x_{j|i}, which `Assemblage`
    checks for the rest."""
    _require(obj, "shape", "x", "p", "sub_states")
    space = _space_field(obj, space)
    shape = _shape_field(obj)
    x = _vec_from_json(obj["x"], "'x'")
    p = _table(obj["p"], 2, _exact_from_json, "'p'")
    subs = _table(obj["sub_states"], 2, _vec_from_json, "'sub_states'")
    if set(p) != set(shape.keys) or set(subs) != set(shape.keys):
        raise ValueError("p and sub-state tables do not match the outcome shape")
    for i, j in shape.keys:
        if not space.is_state(subs[(i, j)]):
            raise ValueError(f"sub-state ({i},{j}) is not a state")
    beta = Assemblage(shape, space, [la.vec_scale(p[key], subs[key]) for key in shape.keys])
    if x != beta.x:
        raise ValueError("x is not the average of the assemblage")
    return beta


# -- boxes ----------------------------------------------------------------

def box_to_json(box: Box) -> dict:
    return {"shape_a": list(box.shape_a.shape), "shape_b": list(box.shape_b.shape),
            "p": to_json(box.probs)}


def box_from_json(obj) -> Box:
    _require(obj, "shape_a", "shape_b", "p")
    return Box(_shape_field(obj, "shape_a"), _shape_field(obj, "shape_b"),
               _table(obj["p"], 4, scalar_from_json, "'p'"))


# -- channels --------------------------------------------------------------

def complex_matrix_to_json(m: np.ndarray) -> list:
    """A complex matrix as its row-major entries, each a [re, im] pair."""
    return [[z.real, z.imag] for z in map(complex, m.flat)]


def channel_to_json(phi: ChoiMatrix) -> dict:
    return {"d_a": phi.d_a, "d_a_prime": phi.d_ap,
            "choi": complex_matrix_to_json(phi.as_dense())}


def _complex_from_json(v):
    pair = _list(v, scalar_from_json, "a Choi entry")
    if len(pair) != 2:
        raise ValueError(f"a Choi entry should be a [re, im] pair, got {len(pair)} numbers")
    return complex(float(pair[0]), float(pair[1]))


def channel_from_json(obj) -> ChoiMatrix:
    _require(obj, "d_a", "d_a_prime", "choi")
    d_a = _int(obj["d_a"], "'d_a'")
    d_ap = _int(obj["d_a_prime"], "'d_a_prime'")
    n = d_a * d_ap
    entries = _list(obj["choi"], _complex_from_json, "'choi'")
    if len(entries) != n * n:
        raise ValueError(f"choi needs {n * n} row-major entries, got {len(entries)}")
    return ChoiMatrix(d_a, d_ap, dense=np.array(entries, dtype=complex).reshape(n, n))


_WRITERS = {MeasurementCollection: measurement_to_json, WitnessMap: witness_to_json,
            Assemblage: assemblage_to_json, Box: box_to_json, ChoiMatrix: channel_to_json,
            np.ndarray: complex_matrix_to_json}


def dumps(obj) -> str:
    """The JSON text of `to_json(obj)`: sorted keys, two-space indent."""
    return json.dumps(to_json(obj), indent=2, sort_keys=True) + "\n"
