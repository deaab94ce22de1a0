"""Stochastic matrices, Choi calculus, retraction/section, causal channels."""

import json
import random

import numpy as np
import pytest

from polybox import cli
from polybox import serialize as sz
from polybox.bell import Box, is_local, pr_box, random_ns_box
from polybox.channels import (ChoiMatrix, StochasticMatrix,
                              box_to_causal_channel, cc_channel,
                              channel_space_max_incompatibility, retraction_R,
                              section_S, stochastic_from_point)
from polybox.exact import R0, R1, rat
from polybox.polysimplex import PolySimplex
from polybox.qubit import tsirelson_box

from conftest import random_local_box, unitary_choi


def tensor(a, b):
    """The joint device of two stochastic matrices: input (i, i') and
    output (j, j') flattened row-major."""
    return StochasticMatrix([tuple(va * vb for va in ra for vb in rb)
                             for ra in a.rows for rb in b.rows])


def random_point(shape, rng):
    out = []
    for l in shape.shape:
        w = [rat(rng.randrange(1, 6)) for _ in range(l + 1)]
        tot = sum(w)
        out += [v / tot for v in w]
    return tuple(out)


class TestStochasticMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            StochasticMatrix([(R1,), (R1, R0)])
        with pytest.raises(ValueError):
            StochasticMatrix([(rat(3, 2), rat(-1, 2))])
        with pytest.raises(ValueError):
            StochasticMatrix([(rat(1, 2), rat(1, 4))])

    def test_float_mode(self):
        T = StochasticMatrix([(0.5, 0.5)])
        assert not T.exact

    def test_tensor(self):
        a = StochasticMatrix([(rat(1, 2), rat(1, 2)), (R1, R0)])
        b = StochasticMatrix([(rat(1, 3), rat(2, 3))])
        t = tensor(a, b)
        assert t.n_inputs == 2 and t.n_outputs == 4
        for i in range(2):
            for ja in range(2):
                for jb in range(2):
                    assert t(ja * 2 + jb, i) == a(ja, i) * b(jb, 0)

    def test_point_round_trip(self):
        # T(j|i) = m^i_j(s): the rows read the point back, block by block
        rng = random.Random(3)
        for shape in [PolySimplex((1, 1)), PolySimplex((2, 1))]:
            s = random_point(shape, rng)
            T = stochastic_from_point(shape, s)
            assert tuple(T(j, i) for i, l in enumerate(shape.shape)
                         for j in range(l + 1)) == s

    def test_padding_must_vanish(self):
        # the rows are padded to the longest block with zeros
        shape = PolySimplex((2, 1))
        T = stochastic_from_point(shape, random_point(shape, random.Random(4)))
        assert T.n_outputs == 3 and T(2, 1) == R0


class TestChoi:
    def test_constructor_guards(self):
        with pytest.raises(ValueError):
            ChoiMatrix(2, 2)
        with pytest.raises(ValueError):
            ChoiMatrix(2, 2, diagonal=(R1, R0))
        with pytest.raises(ValueError):
            ChoiMatrix(1, 2, dense=[[0, 1], [0, 0]])

    def test_cc_channel(self):
        T = StochasticMatrix([(rat(1, 4), rat(3, 4)), (R1, R0)])
        phi = cc_channel(T)
        assert phi.exact
        assert phi.is_psd()
        assert phi.is_trace_preserving()
        for i in range(2):
            for j in range(2):
                assert phi.diag_entry(j, i) == T(j, i)
        tr = phi.trace_out_output()
        assert tr[0][0] == R1 and tr[1][1] == R1 and tr[0][1] == R0

    def test_psd_detects_negative_diagonal(self):
        phi = ChoiMatrix(1, 2, diagonal=(rat(3, 2), rat(-1, 2)))
        assert not phi.is_psd()
        assert phi.is_trace_preserving()

    def test_unitary_choi(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        phi = unitary_choi(h)
        assert phi.is_psd()
        assert phi.is_trace_preserving()
        s = retraction_R(phi)
        assert all(abs(v - 0.5) < 1e-12 for v in s)
        with pytest.raises(ValueError):
            unitary_choi([[1, 1], [0, 1]])

    def test_retraction_needs_trace_preserving(self):
        phi = ChoiMatrix(1, 2, diagonal=(rat(1, 4), rat(1, 4)))
        with pytest.raises(ValueError):
            retraction_R(phi)

    @pytest.mark.parametrize("phi", [
        ChoiMatrix(1, 2, dense=[[0.5, 1.0], [1.0, 0.5]]),
        ChoiMatrix(1, 2, diagonal=(rat(3, 2), rat(-1, 2)))], ids=["dense", "diagonal"])
    def test_retraction_needs_complete_positivity(self, phi):
        # trace-preserving, with eigenvalue −1/2: not a channel
        assert phi.is_trace_preserving() and not phi.is_psd()
        with pytest.raises(ValueError, match="not completely positive"):
            retraction_R(phi)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_dense_choi_refuses_non_finite(self, bad):
        # NaN fails every comparison, so the Hermitian test alone passes it
        with pytest.raises(ValueError, match="finite"):
            ChoiMatrix(1, 2, dense=[[0.5, 0.0], [bad, 0.5]])


class TestRetractionSection:
    def test_section_then_retract(self):
        rng = random.Random(5)
        for shape in [PolySimplex((1, 1)), PolySimplex((2, 1)),
                      PolySimplex((1, 1, 1))]:
            for _ in range(10):
                s = random_point(shape, rng)
                phi = section_S(shape, s)
                assert phi.is_psd() and phi.is_trace_preserving()
                assert retraction_R(phi, shape) == s

    def test_projection_idempotent(self):
        # P = S∘R projects a channel onto the c-c channel with its statistics
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        phi = unitary_choi(h)
        shape = PolySimplex((1, 1))
        p1 = section_S(shape, retraction_R(phi, shape))
        p2 = section_S(shape, retraction_R(p1, shape))
        assert p1.diagonal is not None
        assert [float(v) for v in p1.diagonal] == \
            pytest.approx([float(v) for v in p2.diagonal])


class TestCausalChannel:
    def test_pr_box(self):
        rep = box_to_causal_channel(pr_box())
        assert rep.psd and rep.trace_preserving and rep.causal
        assert rep.recovered.probs == pr_box().probs

    def test_local_box_decomposes(self, capsys, tmp_path):
        # `box to-channel` counts the nonzero weights of the local model
        # `is_local` finds
        rng = random.Random(7)
        P = PolySimplex((1, 1))
        box = random_local_box(P, P, rng)
        path = tmp_path / "box.json"
        path.write_text(sz.dumps(box))
        assert cli.main(["box", "to-channel", "--box", str(path)]) == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        local, model = is_local(box)
        terms = sum(1 for ws in model.weights.values() for w in ws if w)
        assert local and cert["local_decomposition_terms"] == terms > 1

    def test_asymmetric_scenario(self):
        rng = random.Random(9)
        sa = PolySimplex((2, 1))
        sb = PolySimplex((1, 1))
        for _ in range(5):
            box = random_ns_box(sa, sb, rng)
            rep = box_to_causal_channel(box)
            assert rep.psd and rep.trace_preserving and rep.causal
            assert rep.recovered.probs == box.probs

    def test_float_tsirelson_box_is_causal(self):
        # its float marginals differ in the last bits, which Box._validate
        # accepts, and causality is exactly the box's no-signalling
        box = tsirelson_box()
        rep = box_to_causal_channel(box)
        assert rep.causal and rep.psd and rep.trace_preserving
        assert rep.recovered.probs == box.probs

    @pytest.mark.parametrize("build", [
        pr_box, tsirelson_box,
        lambda: random_local_box(PolySimplex((1, 1)), PolySimplex((1, 1)), random.Random(7))],
        ids=["pr", "tsirelson", "local"])
    def test_solves_no_lp(self, build, solved_rows):
        box = build()
        assert box_to_causal_channel(box).recovered is box
        assert solved_rows == []

    @pytest.mark.parametrize("one", [R1, 1.0], ids=["exact", "float"])
    def test_signalling_is_refused_in_both_modes(self, one, capsys, tmp_path):
        # Alice's outcome is Bob's input: `Box` refuses it, in memory and
        # as `box to-channel` input, before any channel is built
        P = PolySimplex((1, 1))
        zero = one - one
        probs = {(ia, ib, ja, jb): one if ja == ib and jb == 0 else zero
                 for ia in range(2) for ib in range(2) for ja in range(2) for jb in range(2)}
        with pytest.raises(ValueError, match="signalling to A"):
            Box(P, P, probs)
        path = tmp_path / "signalling.json"
        path.write_text(json.dumps({"shape_a": [1, 1], "shape_b": [1, 1],
                                    "p": {",".join(map(str, k)): sz.to_json(v)
                                          for k, v in probs.items()}}))
        assert cli.main(["box", "to-channel", "--box", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err


class TestChannelSpace:
    def test_two_by_two(self):
        rep = channel_space_max_incompatibility(2, 2)
        assert rep.id_value == rat(1, 2)
        assert rep.certificate.maximal
        assert rep.section.is_retraction

    def test_three_inputs(self):
        rep = channel_space_max_incompatibility(3, 2)
        assert rep.id_value == rat(2, 3)
        assert rep.certificate.maximal

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            channel_space_max_incompatibility(1, 2)
