"""Shared test inputs: the state spaces on which the integer membership
tests and the tensor LPs on independent coordinates are compared with
their ambient reference forms."""

import pytest

from polybox import serialize as sz
from polybox.lp import LpBuilder

#: a pentagon with vertices (0,0), (2,0), (3,2), (1,3), (−1,2) in ambient
#: coordinates (x, y, 2, x + y): rank 3 in dimension 4, so one linear
#: relation, and the unit (0, 0, 1/2, 0) has denominator 2. Each facet
#: is the edge functional of the CCW boundary, a·x + b·y + c, written as
#: (a − 1, b − 1, c/2, 1), which is not in the span but takes the same
#: values on it.
PENTAGON_POINTS = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)]


def pentagon_json():
    pts = PENTAGON_POINTS
    facets = []
    for (px, py), (qx, qy) in zip(pts, pts[1:] + pts[:1]):
        a, b, c = -(qy - py), qx - px, (qy - py) * px - (qx - px) * py
        facets.append([str(a - 1), str(b - 1), f"{c}/2", "1"])
    return {"label": "pentagon", "dim": 4,
            "vertices": [[str(x), str(y), "2", str(x + y)] for x, y in pts],
            "unit": ["0", "0", "1/2", "0"], "facets": facets}


SPACE_NAMES = ["square", "cube:3", "poly:2,1", "delta:2", "pentagon"]


@pytest.fixture(params=SPACE_NAMES)
def state_space(request):
    """Each built-in test space, and the pentagon loaded from JSON (so it
    passes the facet check)."""
    if request.param == "pentagon":
        return sz.space_from_json(pentagon_json())
    return sz.builtin_space(request.param)


@pytest.fixture
def solved_rows(monkeypatch):
    """`LpStats.rows` of every LP solved from here on, in order."""
    rows = []
    solve = LpBuilder._solve

    def recording(self, *args):
        res = solve(self, *args)
        rows.append(res.stats.rows)
        return res

    monkeypatch.setattr(LpBuilder, "_solve", recording)
    return rows
