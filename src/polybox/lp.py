"""Exact-rational linear programming.

Dense two-phase simplex with Bland's anti-cycling rule. Phase 1 starts
each `<=` row with a nonnegative rhs on its own slack, so only `==` rows
and sign-flipped rows get an artificial variable; a pivot updates only
the nonzero columns of the pivot row, in place. Every optimal solve
asserts strong duality (primal optimum == dual value) in exact
arithmetic; infeasible solves return a verified Farkas certificate and
unbounded solves a verified improving ray.

Cone-valued unknowns are written with a small row vocabulary: a vector
unknown is a list of variables, one per coordinate; `vec_expr` turns a
linear combination of such vectors into one expression {var: coeff} per
coordinate, and `LpBuilder.add_rows` adds one row per row m of a matrix,
Σ_a m[a]·expr[a] (==, <= or >=) rhs. With the tables on `StateSpace`,
`facet_rows` makes basis coordinates lie in V(K)+ and `vertex_rows`
makes basis values of an effect positive on K; `linalg.combine` reads a
vector back from a solution.
"""
from __future__ import annotations

from dataclasses import dataclass

from .exact import R0, R1, rat

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"


@dataclass
class LpResult:
    status: str
    objective: object | None = None
    x: tuple | None = None       # one value per builder variable
    duals: tuple | None = None   # one multiplier per constraint row
    farkas: tuple | None = None  # row multipliers certifying infeasibility
    ray: tuple | None = None     # improving ray certifying unboundedness

    def __getitem__(self, var):
        return self.x[var]


def _pivot(tab, r, c):
    row = tab[r]
    inv = 1 / row[c]
    if inv != 1:
        row = [a * inv for a in row]
        tab[r] = row
    nonzero = [(j, b) for j, b in enumerate(row) if b]
    for i, other in enumerate(tab):
        if i != r:
            f = other[c]
            if f:
                for j, b in nonzero:
                    other[j] -= f * b


def _run_simplex(tab, basis, allowed):
    """Bland's rule over the columns in `allowed`. Objective is the last
    row (reduced costs, rhs cell = -objective value). Returns 'optimal'
    or ('unbounded', entering_column)."""
    nrows = len(tab) - 1
    while True:
        obj = tab[-1]
        enter = -1
        for j in allowed:
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", -1
        leave = -1
        best = None
        for i in range(nrows):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", enter
        _pivot(tab, leave, enter)
        basis[leave] = enter


def vec_expr(terms):
    """Σ c·cols over terms (c, cols), where cols holds one variable per
    coordinate: one linear expression {var: coeff} per coordinate."""
    terms = list(terms)
    expr = [{} for _ in terms[0][1]]
    for c, cols in terms:
        if c:
            for e, v in zip(expr, cols, strict=True):
                e[v] = e.get(v, R0) + c
    return expr


class LpBuilder:
    """Incremental LP: nonneg/free variables, ==, <=, >= rows."""

    def __init__(self):
        self._vars = []            # "nonneg" | "free"
        self._rows = []            # (coeffs dict, rhs, kind)

    def var(self, nonneg=True) -> int:
        self._vars.append("nonneg" if nonneg else "free")
        return len(self._vars) - 1

    def vars(self, n, nonneg=True):
        return [self.var(nonneg) for _ in range(n)]

    def add_eq(self, coeffs, rhs):
        self._rows.append((dict(coeffs), rat(rhs), "eq"))

    def add_le(self, coeffs, rhs):
        self._rows.append((dict(coeffs), rat(rhs), "le"))

    def add_ge(self, coeffs, rhs):
        self._rows.append(({v: -rat(c) for v, c in coeffs.items()},
                           -rat(rhs), "le"))

    def add_rows(self, matrix, expr, kind, rhs):
        """One row Σ_a m[a]·expr[a] (kind "eq", "le" or "ge") per matrix
        row m, in order; rhs is a scalar or one value per row. Each row
        goes through add_eq/add_le/add_ge like a hand-written one.
        Vanishing coefficients are dropped, but an empty row is added."""
        add = getattr(self, "add_" + kind)
        per_row = isinstance(rhs, (list, tuple))
        for r, m in enumerate(matrix):
            row = {}
            for ma, e in zip(m, expr, strict=True):
                if ma:
                    for v, c in e.items():
                        row[v] = row.get(v, R0) + ma * c
            add({v: c for v, c in row.items() if c}, rhs[r] if per_row else rhs)

    def minimize(self, coeffs):
        return self._solve({v: rat(c) for v, c in coeffs.items()}, R1)

    def maximize(self, coeffs):
        res = self._solve({v: -rat(c) for v, c in coeffs.items()}, -R1)
        return res

    # ----- internals -----

    def _solve(self, cost, sense):
        # column layout: per-variable columns, then one slack per <= row,
        # then one artificial per row that cannot start on its slack.
        col_of = []
        ncols = 0
        for kind in self._vars:
            if kind == "nonneg":
                col_of.append((ncols,))
                ncols += 1
            else:
                col_of.append((ncols, ncols + 1))
                ncols += 2
        slack_col = {}
        for r, (_, _, kind) in enumerate(self._rows):
            if kind == "le":
                slack_col[r] = ncols
                ncols += 1

        rows = []
        flipped = []
        for r, (coeffs, rhs, kind) in enumerate(self._rows):
            row = [R0] * ncols
            for v, c in coeffs.items():
                c = rat(c)
                cols = col_of[v]
                row[cols[0]] += c
                if len(cols) == 2:
                    row[cols[1]] -= c
            if kind == "le":
                row[slack_col[r]] = R1
            if rhs < 0:
                row = [-a for a in row]
                rhs = -rhs
                flipped.append(True)
            else:
                flipped.append(False)
            row.append(rhs)
            rows.append(row)

        # phase 1: an unflipped <= row starts on its slack; every other
        # row starts on an artificial, which alone carries phase-1 cost.
        art0 = ncols
        start = []
        for r, (_, _, kind) in enumerate(self._rows):
            if kind == "le" and not flipped[r]:
                start.append(slack_col[r])
            else:
                start.append(ncols)
                ncols += 1
        tab = []
        obj = [R0] * (ncols + 1)
        for row, s in zip(rows, start):
            full = row[:-1] + [R0] * (ncols - art0) + [row[-1]]
            if s >= art0:
                full[s] = R1
                for j, a in enumerate(full):
                    if a and j != s:
                        obj[j] -= a
            tab.append(full)
        tab.append(obj)
        basis = list(start)
        allowed = range(art0)
        _run_simplex(tab, basis, allowed)
        if -tab[-1][-1] != 0:
            return self._extract_farkas(tab, flipped, start, art0)

        self._drive_out_artificials(tab, basis, art0)
        dropped = set()
        keep = []
        for i in range(len(basis)):
            if basis[i] >= art0:
                dropped.add(i)
            else:
                keep.append(i)
        if dropped:
            newtab = [tab[i] for i in keep] + [tab[-1]]
            basis = [basis[i] for i in keep]
            tab = newtab

        # phase 2
        ncost = [R0] * (ncols + 1)
        for v, c in cost.items():
            cols = col_of[v]
            ncost[cols[0]] += c
            if len(cols) == 2:
                ncost[cols[1]] -= c
        obj = list(ncost)
        for i, b in enumerate(basis):
            cb = ncost[b]
            if cb:
                obj = [a - cb * t for a, t in zip(obj, tab[i])]
        tab[-1] = obj
        status, enter = _run_simplex(tab, basis, allowed)
        if status == "unbounded":
            return self._extract_ray(tab, basis, enter, col_of, cost, sense)
        return self._extract_optimal(
            tab, basis, col_of, cost, sense, flipped, start, dropped)

    def _drive_out_artificials(self, tab, basis, art0):
        for i in range(len(basis)):
            if basis[i] >= art0:
                enter = next((j for j in range(art0) if tab[i][j] != 0), None)
                if enter is not None:
                    _pivot(tab, i, enter)
                    basis[i] = enter

    def _public_x(self, tab, basis, col_of):
        colval = {}
        for i, b in enumerate(basis):
            colval[b] = tab[i][-1]
        out = []
        for cols in col_of:
            v = colval.get(cols[0], R0)
            if len(cols) == 2:
                v = v - colval.get(cols[1], R0)
            out.append(v)
        return tuple(out)

    def _extract_optimal(self, tab, basis, col_of, cost, sense,
                         flipped, start, dropped):
        x = self._public_x(tab, basis, col_of)
        value = sum((c * x[v] for v, c in cost.items()), R0)
        # duals from reduced costs under each row's starting unit column
        obj = tab[-1]
        duals = []
        for r, s in enumerate(start):
            if r in dropped:
                duals.append(R0)
                continue
            y = -obj[s]
            if flipped[r]:
                y = -y
            duals.append(y)
        # exact self-checks: primal feasibility and strong duality
        self._check_primal(x)
        dualval = sum((y * rhs for y, (_, rhs, _) in zip(duals, self._rows)),
                      R0)
        if dualval != value:
            raise AssertionError("simplex strong duality violated")
        return LpResult(OPTIMAL, objective=sense * value, x=x,
                        duals=tuple(sense * y for y in duals))

    def _extract_farkas(self, tab, flipped, start, art0):
        # phase-1 duals: the starting column's phase-1 cost (1 for an
        # artificial, 0 for a slack) minus its reduced cost
        obj = tab[-1]
        y = []
        for r, s in enumerate(start):
            yr = (R1 if s >= art0 else R0) - obj[s]
            if flipped[r]:
                yr = -yr
            y.append(yr)
        # verify: y^T A <= 0 on nonneg columns, == 0 on free vars,
        # slack rows give y_r <= 0 on '<=' rows, and y^T b > 0.
        comb = {}
        total = R0
        for yr, (coeffs, rhs, kind) in zip(y, self._rows):
            if kind == "le" and yr > 0:
                raise AssertionError("Farkas certificate sign check failed")
            for v, c in coeffs.items():
                comb[v] = comb.get(v, R0) + yr * rat(c)
            total += yr * rhs
        for v, s in comb.items():
            if self._vars[v] == "free":
                if s != 0:
                    raise AssertionError("Farkas certificate failed on free var")
            elif s > 0:
                raise AssertionError("Farkas certificate failed")
        if not total > 0:
            raise AssertionError("Farkas certificate not separating")
        return LpResult(INFEASIBLE, farkas=tuple(y))

    def _extract_ray(self, tab, basis, enter, col_of, cost, sense):
        ncols = len(tab[0]) - 1
        d = {enter: R1}
        for i, b in enumerate(basis):
            t = tab[i][enter]
            if t:
                d[b] = d.get(b, R0) - t
        ray = []
        for cols in col_of:
            v = d.get(cols[0], R0)
            if len(cols) == 2:
                v = v - d.get(cols[1], R0)
            ray.append(v)
        ray = tuple(ray)
        # verify the ray: homogeneous feasibility and strict improvement
        drop = sum((c * ray[v] for v, c in cost.items()), R0)
        if not drop < 0:
            raise AssertionError("unboundedness ray does not improve")
        for coeffs, _, kind in self._rows:
            s = sum((rat(c) * ray[v] for v, c in coeffs.items()), R0)
            if kind == "eq" and s != 0:
                raise AssertionError("unboundedness ray leaves equalities")
            if kind == "le" and s > 0:
                raise AssertionError("unboundedness ray violates <=")
        for v, kind in enumerate(self._vars):
            if kind == "nonneg" and ray[v] < 0:
                raise AssertionError("unboundedness ray goes negative")
        return LpResult(UNBOUNDED, ray=ray)

    def _check_primal(self, x):
        for coeffs, rhs, kind in self._rows:
            s = sum((rat(c) * x[v] for v, c in coeffs.items()), R0)
            if kind == "eq" and s != rhs:
                raise AssertionError("simplex produced infeasible point")
            if kind == "le" and s > rhs:
                raise AssertionError("simplex produced infeasible point")
        for v, kind in enumerate(self._vars):
            if kind == "nonneg" and x[v] < 0:
                raise AssertionError("simplex produced negative variable")
