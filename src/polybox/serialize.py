"""JSON encoding and decoding of the core objects.

Exact rationals render as "p" or "p/q" strings; floats render as JSON
numbers (repr round-trips exactly). Loading accepts either form per
entry, so exact files stay exact and float files stay float; the exact
objects (spaces, measurements, witnesses, assemblages) refuse a
non-integral float with a ValueError. Every loader runs through the
same constructors as the in-memory API, so a malformed file fails with
the usual validation errors.
"""
from __future__ import annotations

import json

from .bell import Box
from .channels import ChoiMatrix
from .exact import format_rat, is_rational, rat
from .measurements import MeasurementCollection, make_collection
from .polysimplex import PolySimplex, polysimplex_space
from .spaces import StateSpace, check_facets_generate
from .steering import Assemblage
from .witnesses import WitnessMap, make_witness_map


def scalar_to_json(v):
    if is_rational(v):
        return format_rat(v)
    return float(v)


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


def _vec_to_json(v):
    return [scalar_to_json(c) for c in v]


def _vec_from_json(v):
    if not isinstance(v, list):
        raise ValueError(f"expected a list of numbers, got {v!r}")
    return tuple(_exact_from_json(c) for c in v)


def _key_to_json(key):
    return ",".join(str(int(t)) for t in key)


def _key_from_json(s, arity=None):
    try:
        key = tuple(int(t) for t in s.split(","))
    except ValueError:
        raise ValueError(f"malformed index key {s!r}") from None
    if arity is not None and len(key) != arity:
        raise ValueError(f"index key {s!r} should have {arity} entries")
    return key


def _require(obj, *keys):
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object, got {type(obj).__name__}")
    for k in keys:
        if k not in obj:
            raise ValueError(f"missing required key {k!r}")


# -- state spaces -------------------------------------------------------

def space_to_json(space: StateSpace) -> dict:
    return {
        "label": space.label,
        "dim": space.dim,
        "vertices": [_vec_to_json(v) for v in space.vertices],
        "unit": _vec_to_json(space.unit),
        "facets": [_vec_to_json(f) for f in space.facets],
    }


def space_from_json(obj) -> StateSpace:
    _require(obj, "label", "vertices", "unit", "facets")
    space = StateSpace(obj["label"],
                       [_vec_from_json(v) for v in obj["vertices"]],
                       _vec_from_json(obj["unit"]),
                       [_vec_from_json(f) for f in obj["facets"]])
    if "dim" in obj and int(obj["dim"]) != space.dim:
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


# -- polysimplex shapes -------------------------------------------------

def _shape_field(obj, key="shape") -> PolySimplex:
    _require(obj, key)
    return PolySimplex(obj[key])


# -- measurement collections --------------------------------------------

def measurement_to_json(F: MeasurementCollection) -> dict:
    return {
        "space": space_ref_to_json(F.space),
        "shape": list(F.shape.shape),
        "effects": {_key_to_json(k): _vec_to_json(v)
                    for k, v in sorted(F.effects.items())},
    }


def measurement_from_json(obj, space: StateSpace | None = None) -> MeasurementCollection:
    _require(obj, "shape", "effects")
    if space is None:
        _require(obj, "space")
        space = resolve_space(obj["space"])
    shape = _shape_field(obj)
    effects = {_key_from_json(k, 2): _vec_from_json(v)
               for k, v in obj["effects"].items()}
    return make_collection(space, shape, effects)


# -- witness maps --------------------------------------------------------

def witness_to_json(W: WitnessMap) -> dict:
    return {
        "shape": list(W.shape.shape),
        "space": space_ref_to_json(W.space),
        "vertices": {_key_to_json(n): _vec_to_json(img)
                     for n, img in sorted(W.vertex_images.items())},
    }


def witness_from_json(obj, space: StateSpace | None = None) -> WitnessMap:
    _require(obj, "shape", "vertices")
    if space is None:
        _require(obj, "space")
        space = resolve_space(obj["space"])
    shape = _shape_field(obj)
    images = {_key_from_json(k, shape.k + 1): _vec_from_json(v)
              for k, v in obj["vertices"].items()}
    return make_witness_map(shape, space, images)


# -- assemblages ---------------------------------------------------------

def assemblage_to_json(beta: Assemblage) -> dict:
    return {
        "shape": list(beta.shape.shape),
        "space": space_ref_to_json(beta.space),
        "x": _vec_to_json(beta.x),
        "p": {_key_to_json(k): scalar_to_json(v)
              for k, v in sorted(beta.p.items())},
        "sub_states": {_key_to_json(k): _vec_to_json(v)
                       for k, v in sorted(beta.sub_states.items())},
    }


def assemblage_from_json(obj, space: StateSpace | None = None) -> Assemblage:
    _require(obj, "shape", "x", "p", "sub_states")
    if space is None:
        _require(obj, "space")
        space = resolve_space(obj["space"])
    shape = _shape_field(obj)
    p = {_key_from_json(k, 2): _exact_from_json(v) for k, v in obj["p"].items()}
    subs = {_key_from_json(k, 2): _vec_from_json(v)
            for k, v in obj["sub_states"].items()}
    return Assemblage(shape, space, _vec_from_json(obj["x"]), p, subs)


# -- boxes ----------------------------------------------------------------

def box_to_json(box: Box) -> dict:
    return {
        "shape_a": list(box.shape_a.shape),
        "shape_b": list(box.shape_b.shape),
        "p": {_key_to_json(k): scalar_to_json(v)
              for k, v in sorted(box.probs.items())},
    }


def box_from_json(obj) -> Box:
    _require(obj, "shape_a", "shape_b", "p")
    shape_a = _shape_field(obj, "shape_a")
    shape_b = _shape_field(obj, "shape_b")
    probs = {_key_from_json(k, 4): scalar_from_json(v) for k, v in obj["p"].items()}
    return Box(shape_a, shape_b, probs)


# -- channels --------------------------------------------------------------

def channel_to_json(phi: ChoiMatrix) -> dict:
    x = phi.as_dense()
    n = x.shape[0]
    choi = [[float(x[r, c].real), float(x[r, c].imag)]
            for r in range(n) for c in range(n)]
    return {"d_a": phi.d_a, "d_a_prime": phi.d_ap, "choi": choi}


def channel_from_json(obj) -> ChoiMatrix:
    _require(obj, "d_a", "d_a_prime", "choi")
    d_a = int(obj["d_a"])
    d_ap = int(obj["d_a_prime"])
    n = d_a * d_ap
    entries = obj["choi"]
    if len(entries) != n * n:
        raise ValueError(f"choi needs {n * n} row-major entries, got {len(entries)}")
    import numpy as np
    x = np.empty((n, n), dtype=complex)
    for idx, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"choi entry {idx} is not a [re, im] pair")
        x[idx // n, idx % n] = complex(float(pair[0]), float(pair[1]))
    return ChoiMatrix(d_a, d_ap, dense=x)


def dumps(obj) -> str:
    """Deterministic rendering: sorted keys, two-space indent."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
