"""Products of simplices: coordinates, the chart at the top vertex,
state spaces, and the dual bases of the tests' map-trace reference."""

import random

import pytest

from polybox import linalg as la
from polybox.exact import R0, R1, rat
from polybox.polysimplex import PolySimplex, polysimplex_space, square_space
from polybox.witnesses import random_witness_map

from conftest import dual_bases, hypercube_space, map_trace

SHAPES = [(1, 1), (2,), (2, 1), (1, 1, 1)]


class TestShape:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            PolySimplex(())
        with pytest.raises(ValueError):
            PolySimplex((1, 0))

    def test_dimensions(self):
        s = PolySimplex((2, 1))
        assert s.k == 1
        assert s.dim == 3
        assert s.ambient_dim == 5
        assert len(s.outcome_list()) == 6

    def test_index_checks(self):
        s = PolySimplex((1, 1))
        with pytest.raises(IndexError):
            s.vertex((0,))
        with pytest.raises(IndexError):
            s.vertex((0, 2))
        with pytest.raises(IndexError):
            s.m(2, 0)
        with pytest.raises(IndexError):
            s.m(0, 2)


class TestGeometry:
    def test_coordinate_reads(self):
        # m^i_j picks out the i-th block outcome: 1 iff n_i == j
        for shape in SHAPES:
            s = PolySimplex(shape)
            for n in s.outcomes():
                v = s.vertex(n)
                for i, l in enumerate(shape):
                    for j in range(l + 1):
                        want = R1 if n[i] == j else R0
                        assert la.dot(s.m(i, j), v) == want
                        assert s.coords(v, i, j) == want

    def test_unit_on_vertices(self):
        for shape in SHAPES:
            s = PolySimplex(shape)
            u = s.unit()
            for n in s.outcomes():
                assert la.dot(u, s.vertex(n)) == R1

    def test_barycenter(self):
        for shape in SHAPES:
            s = PolySimplex(shape)
            b = s.barycenter()
            for i, l in enumerate(shape):
                for j in range(l + 1):
                    assert s.coords(b, i, j) == rat(1, l + 1)
            assert s.interior(b)
            assert not s.interior(s.vertex(s.top))
            # positive but not a state: blocks summing to 2, or too short
            assert not s.interior(tuple(2 * c for c in b))
            assert not s.interior(b[:-1])


CHART_SHAPES = [(1,), (2,), (1, 1), (2, 1), (1, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("shape", CHART_SHAPES, ids=str)
class TestLayoutAndChart:
    """`keys`, `index` and `edges` are the layout of the ambient
    coordinates; `chart_vertex`, `edge` and `chart_images` the chart at
    the top vertex."""

    def test_index_is_the_coordinate_of_m(self, shape):
        s = PolySimplex(shape)
        assert len(s.keys) == s.ambient_dim
        for i, j in s.keys:
            r = s.index(i, j)
            assert s.keys[r] == (i, j)
            assert s.m(i, j) == tuple(R1 if c == r else R0 for c in range(s.ambient_dim))

    def test_keys_run_in_block_order(self, shape):
        s = PolySimplex(shape)
        assert s.keys == tuple((i, j) for i, l in enumerate(shape) for j in range(l + 1))
        assert s.edges == tuple((i, j) for i, j in s.keys if j < shape[i])
        assert len(s.edges) == s.dim

    def test_chart_vertices(self, shape):
        s = PolySimplex(shape)
        for i, j in s.keys:
            n = s.chart_vertex(i, j)
            assert n[i] == j
            assert all(n[a] == s.top[a] for a in range(len(shape)) if a != i)
        for i, l in enumerate(shape):
            assert s.chart_vertex(i, l) == s.top

    def test_chart_images_rebuild_a_map(self, shape):
        s = PolySimplex(shape)
        W = random_witness_map(s, square_space(), random.Random(sum(shape) * 10 + len(shape)))
        edges = {e: W.edge_image(*e) for e in s.edges}
        assert s.chart_images(W.top_image, edges) == W.vertex_images


class TestStateSpace:
    def test_labels(self):
        assert PolySimplex((1, 1)).as_state_space().label == "square"
        assert PolySimplex((1, 1, 1)).as_state_space().label == "cube:3"
        assert PolySimplex((2,)).as_state_space().label == "delta:2"
        assert PolySimplex((2, 1)).as_state_space().label == "poly:2,1"

    def test_layout(self):
        # vertices in outcome order, facets in block order
        s = PolySimplex((2, 1))
        space = s.as_state_space()
        assert list(space.vertices) == [s.vertex(n) for n in s.outcomes()]
        want = [s.m(i, j) for i, l in enumerate(s.shape) for j in range(l + 1)]
        assert list(space.facets) == want
        assert space.unit == s.unit()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_space_per_shape(self, shape):
        space = PolySimplex(shape).as_state_space()
        assert space is polysimplex_space(shape)
        assert PolySimplex(list(shape)).as_state_space() is space

    def test_cached(self):
        assert polysimplex_space((1, 1)) is square_space()
        assert hypercube_space(2) is square_space()
        with pytest.raises(ValueError):
            hypercube_space(0)


class TestDualBases:
    def test_biorthogonal(self):
        for shape in SHAPES:
            s = PolySimplex(shape)
            effects, vectors = dual_bases(s)
            assert len(effects) == s.dim + 1
            for p, f in enumerate(effects):
                for q, x in enumerate(vectors):
                    want = R1 if p == q else R0
                    assert la.dot(f, x) == want

    def test_other_base_point(self):
        s = PolySimplex((1, 1))
        effects, vectors = dual_bases(s, base=(0, 0))
        assert vectors[0] == s.vertex((0, 0))
        for p, f in enumerate(effects):
            for q, x in enumerate(vectors):
                assert la.dot(f, x) == (R1 if p == q else R0)

    def test_map_trace_of_identity(self):
        # the span of V(S) has dimension dim + 1
        for shape in SHAPES:
            s = PolySimplex(shape)
            eye = la.identity(s.ambient_dim)
            assert map_trace(eye, s) == s.dim + 1

