"""JSON round trips for every object kind, label references, dispatch."""

import json
import random

import numpy as np
import pytest

from polybox import serialize as sz
from polybox.bell import pr_box, random_ns_box
from polybox.channels import StochasticMatrix, cc_channel
from polybox.exact import R0, R1, rat
from polybox.measurements import identity_collection, random_collection
from polybox.polysimplex import PolySimplex, polysimplex_space, square_space
from polybox.spaces import simplex_space
from polybox.steering import assemblage_from, self_dual_state, square_self_dual_iso
from polybox.witnesses import q_value, random_witness_map

from conftest import unitary_choi

SQ = PolySimplex((1, 1))


class TestScalars:
    def test_rational_renders_as_string(self):
        assert sz.to_json(rat(1, 2)) == "1/2"
        assert sz.to_json(rat(3)) == "3"
        assert sz.to_json(0.25) == 0.25

    def test_loading(self):
        assert sz.scalar_from_json("2/7") == rat(2, 7)
        assert sz.scalar_from_json(3) == rat(3)
        assert sz.scalar_from_json(0.5) == 0.5
        with pytest.raises(ValueError):
            sz.scalar_from_json(True)
        with pytest.raises(ValueError):
            sz.scalar_from_json(None)
        with pytest.raises(ValueError, match="zero denominator"):
            sz.scalar_from_json("1/0")

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            v = rat(rng.randrange(-30, 31), rng.randrange(1, 17))
            assert sz.scalar_from_json(sz.to_json(v)) == v


class TestSpaces:
    def test_round_trip(self):
        for sp in [square_space(), simplex_space(2), polysimplex_space((2, 1))]:
            back = sz.space_from_json(sz.space_to_json(sp))
            assert back.label == sp.label
            assert back.vertices == sp.vertices
            assert back.unit == sp.unit
            assert back.facets == sp.facets

    def test_dim_cross_check(self):
        obj = sz.space_to_json(square_space())
        obj["dim"] += 1
        with pytest.raises(ValueError):
            sz.space_from_json(obj)

    def test_facets_must_generate_the_positive_effects(self):
        # the square with m^0_0 dropped: the other three facets cut out an
        # unbounded strip, so its loaded cone would be too small
        obj = sz.space_to_json(square_space())
        assert obj["facets"][0] == ["1", "0", "0", "0"]
        dropped = {**obj, "facets": obj["facets"][1:]}
        with pytest.raises(ValueError, match="do not generate"):
            sz.space_from_json(dropped)
        # m^0_0 + m^1_0 in place of m^0_0 is nonnegative on the square but
        # cuts out a larger quadrilateral, with the basic point (-1, 2, 1, 0)
        wider = {**obj, "facets": [["1", "0", "1", "0"]] + obj["facets"][1:]}
        with pytest.raises(ValueError, match="not a vertex"):
            sz.space_from_json(wider)
        # m^0_0 and m^0_1 alone bound only the first coordinate: a line
        line = {**obj, "facets": obj["facets"][:2]}
        with pytest.raises(ValueError, match="leave a line"):
            sz.space_from_json(line)
        # a point space: with no facet the unit is not generated
        point = {"label": "pt", "vertices": [["1"]], "unit": ["1"], "facets": []}
        with pytest.raises(ValueError, match="do not generate"):
            sz.space_from_json(point)
        assert sz.space_from_json({**point, "facets": [["1"]]}).rank == 1
        for shape in [(1, 1, 1), (2, 2), (1, 1, 1, 1)]:
            sz.space_from_json({**sz.space_to_json(polysimplex_space(shape)),
                                "label": "inline"})

    def test_builtin_labels(self):
        assert sz.builtin_space("square") is square_space()
        assert sz.builtin_space("cube:3") is polysimplex_space((1, 1, 1))
        assert sz.builtin_space("delta:2") is polysimplex_space((2,))
        assert sz.builtin_space("delta:2").vertices == simplex_space(2).vertices
        assert sz.builtin_space("poly:2,1") is polysimplex_space((2, 1))
        with pytest.raises(ValueError):
            sz.builtin_space("pentagon")

    def test_ref_uses_label_when_possible(self):
        assert sz.space_ref_to_json(square_space()) == "square"
        relabeled = sz.space_from_json(
            {**sz.space_to_json(square_space()), "label": "mine"})
        assert isinstance(sz.space_ref_to_json(relabeled), dict)
        assert sz.resolve_space("square") is square_space()


class TestObjects:
    def test_shape(self):
        assert sz._shape_field({"shape": [1, 1]}).shape == (1, 1)
        assert sz._shape_field({"shape_a": [2, 1]}, "shape_a").shape == (2, 1)
        with pytest.raises(ValueError):
            sz._shape_field({"shape_b": [1, 1]})

    def test_measurement(self):
        rng = random.Random(5)
        F = random_collection(square_space(), (1, 1), rng)
        obj = sz.measurement_to_json(F)
        assert obj["space"] == "square"
        back = sz.measurement_from_json(obj)
        assert back.effects == F.effects
        also = sz.measurement_from_json(obj, space=square_space())
        assert also.effects == F.effects

    def test_witness(self):
        F = identity_collection(SQ)
        _q, W, _lam = q_value(F, SQ.barycenter())
        back = sz.witness_from_json(sz.witness_to_json(W))
        assert back.vertex_images == W.vertex_images

    def test_witness_validation_still_runs(self):
        rng = random.Random(7)
        W = random_witness_map(SQ, square_space(), rng)
        obj = sz.witness_to_json(W)
        obj["vertices"]["1,1"] = sz.to_json(
            [v + 1 for v in W.vertex_images[(1, 1)]])
        with pytest.raises(ValueError):
            sz.witness_from_json(obj)

    def test_assemblage(self):
        sp = square_space()
        y = self_dual_state(sp, square_self_dual_iso())
        beta = assemblage_from(identity_collection(SQ), y, sp)
        back = sz.assemblage_from_json(sz.assemblage_to_json(beta))
        assert back.x == beta.x
        assert back.p == beta.p
        assert back.sub_states == beta.sub_states

    def test_exact_objects_refuse_inexact_floats(self):
        sp = square_space()
        y = self_dual_state(sp, square_self_dual_iso())
        F = identity_collection(SQ)
        _q, W, _lam = q_value(F, SQ.barycenter())
        beta = assemblage_from(F, y, sp)
        cases = [(sz.measurement_from_json, sz.measurement_to_json(F), "effects", "0,0"),
                 (sz.witness_from_json, sz.witness_to_json(W), "vertices", "0,0"),
                 (sz.assemblage_from_json, sz.assemblage_to_json(beta), "sub_states", "0,0")]
        for load, obj, field, key in cases:
            whole = json.loads(json.dumps(obj))
            whole[field][key] = [float(sz.scalar_from_json(c)) for c in obj[field][key]]
            assert load(whole) is not None  # integral floats are exact
            obj[field][key] = [0.1] + obj[field][key][1:]
            with pytest.raises(ValueError, match="0.1"):
                load(obj)
        obj = sz.assemblage_to_json(beta)
        obj["p"]["0,0"] = 0.5
        with pytest.raises(ValueError, match="0.5"):
            sz.assemblage_from_json(obj)

    def test_box_exact_and_float(self):
        rng = random.Random(9)
        box = random_ns_box(SQ, SQ, rng)
        back = sz.box_from_json(sz.box_to_json(box))
        assert back.mode == "exact"
        assert back.probs == box.probs
        fl = {k: float(v) for k, v in pr_box().probs.items()}
        from polybox.bell import Box
        fbox = Box(SQ, SQ, fl)
        back = sz.box_from_json(sz.box_to_json(fbox))
        assert back.mode == "float"
        assert back.probs == fbox.probs

    def test_channel(self):
        T = StochasticMatrix([(rat(1, 4), rat(3, 4)), (R1, R0)])
        phi = cc_channel(T)
        back = sz.channel_from_json(sz.channel_to_json(phi))
        assert back.d_a == 2 and back.d_ap == 2
        assert np.allclose(back.as_dense(), phi.as_dense())
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        dense = unitary_choi(h)
        back = sz.channel_from_json(sz.channel_to_json(dense))
        assert np.allclose(back.as_dense(), dense.as_dense())

    def test_channel_entry_validation(self):
        obj = sz.channel_to_json(cc_channel(StochasticMatrix([(R1, R0)])))
        obj["choi"][0] = [0.0]
        with pytest.raises(ValueError):
            sz.channel_from_json(obj)
        obj["choi"] = obj["choi"][:3]
        with pytest.raises(ValueError):
            sz.channel_from_json(obj)


class TestDispatch:
    def test_dumps_deterministic(self):
        obj = sz.box_to_json(pr_box())
        a = sz.dumps(obj)
        b = sz.dumps(json.loads(a))
        assert a == b
        assert a.endswith("\n")
