"""Exact-rational linear programming.

Two-phase simplex on an integer tableau, with Dantzig pricing and
Bland's rule on stalls. A row's coefficients are integers from the
moment `add_eq`, `add_le`, `add_ge` or `add_rows` stores it: the
caller's row times the LCM s_r of its coefficients' reduced
denominators, kept with s_r. The rhs's denominator stays out of s_r:
the stored rhs is the caller's rhs times s_r, exact and possibly
fractional. The tableau takes the coefficients as they are, and each
row's slack or artificial is rescaled with it so that it keeps a unit
coefficient; the start basis is then the identity. The rhs column is
cleared to integers as one column, by the LCM D of the stored rhs's
denominators. In the LPs of the paper the matrix comes from K's facets
and vertices and the data (effect values, box probabilities, assemblage
entries) sits in the rhs; a row scale that took in the rhs would carry
the data's denominators into every minor below, while D scales only
the rhs column. The tableau is a matrix T of integers, each row stored
as a dict of its nonzero entries, with one common positive denominator
d (true entries T/d, and T/(d·D) in the rhs column; d = 1 at the
start). A pivot on p = T[r][c] sets
T_i <- (p*T_i - T_i[c]*T_r) / d for every row i != r, then d <- p
(fraction-free pivoting: Edmonds, J. Res. NBS 71B, 1967; Bareiss, Math.
Comp. 22, 1968). The division is exact by Sylvester's identity: for the
current basis B of the start tableau T0, T = ±det(B)·B⁻¹·T0 and
d = ±det(B), so every entry is a minor of the integer matrix T0. When
p = d a row changes only in the pivot row's nonzero columns. A pivot
that drives an artificial out of the basis can have p < 0; T and d are
then negated, so that the signs of T are the true signs. Rationals
appear only when the result is read back: x = T/(d·D), and duals and
Farkas multipliers undo each row's scaling. A coefficient a of a stored
row reads as the rational a/s_r.

Pricing: the entering column is the one of most negative reduced cost,
the least index on ties (Dantzig). Every entry of the cost row is a
true reduced cost times d and the cost's integer scale, so the integers
compare directly, and the choice is the one on the rational tableau of
the stored rows; a slack's reduced cost is in units of its stored row,
so storing a row at another scale can change the path, never the
optimum value. The ratio test compares entries of the one rhs column,
so D changes no pivot. After a degenerate pivot (ratio 0) the
least-index column with negative reduced cost enters instead (Bland),
until the next nondegenerate pivot. The leaving row is the least ratio, the
least basic column on ties, in both rules. The solve ends: a cycle
never moves the point, so all its pivots are degenerate, and from its
second pass on each of them would be a Bland pivot, which cannot cycle
(Bland, Math. Oper. Res. 2, 1977).

Phase 1 starts each `<=` row with a nonnegative rhs on its own slack, so
only `==` rows and sign-flipped rows get an artificial; the artificial
of row r costs 1/s_r, which is 1 per unit of the caller's row. Every
optimal solve checks primal feasibility, dual feasibility and strong
duality (primal optimum == dual value) in exact arithmetic. The primal
check runs in integers: with x = X/(d·D), each caller row r, scaled by
s_r to integer coefficients a_v, must satisfy Σ a_v·X_v == (or <=)
D·s_r·rhs·d, an integer, and X_v >= 0 for every nonnegative variable;
this is the rational test times s_r·d·D > 0. The dual check asks
y_r <= 0 on `<=` rows (min form) and c_v − (Aᵀy)_v >= 0 on nonnegative
variables, == 0 on free ones. Infeasible solves return a verified Farkas certificate and
unbounded solves a verified improving ray. The dual and Farkas checks
sum y_r·row_r as integer numerators over one common denominator, and
the strong-duality total Σ y_r·rhs_r over that denominator times D;
the ray check reads each row's sign on the ray's numerators. Each
result carries an `LpStats` record of the solve's size and work.

`minimize((c1, c2))` finds the least c2·x among the minimizers of
c1·x on the same tableau: after phase 2 it appends the reduced-cost row
r2 of c2 below r1, the final one of c1, and continues with only columns
of r1_j = 0 eligible, so r1 and the c1 value stay fixed. The result
keeps c1's objective and duals y1; c2·x is certified by θ = max(0, max
over r1_j > 0 of −r2_j/r1_j), which makes r2 + θ·r1 >= 0, and y = y2 +
θ·y1, which is checked dual feasible for c2 + θ·c1 with y·b equal to
its value at x. With c1·x certified optimal by y1, any feasible x' with
c1·x' = c1·x has c2·x' >= c2·x. A ray found in the second stage
improves c2 and keeps c1·x. `LpStats.phase2_pivots` counts the pivots
of both stages.

Templates. Phase 1 reads only the rows and the rhs, so a builder
solved again for another cost needs only phase 2. From its second
solve on the same variables, rows and rhs, a builder keeps the tableau
at the end of phase 1 (artificials driven out, redundant rows dropped,
no cost row) with its column layout, and each later `minimize` or
`maximize` runs phase 2 on a copy of it. That copy is entry for entry
the tableau a cold solve reaches at the end of phase 1, and phase 2
depends on nothing else, so the pivots, x, duals, Farkas vector and
`LpStats` equal a cold solve's whatever was solved before, and every
computed result passes every exact check. A builder solved once copies
nothing, an infeasible one keeps nothing, and adding a variable or a
row drops what was kept. `with_rhs(rhs)` returns a builder with the same
variables and stored integer rows (the coefficient dicts, s_r and the
signs of `>=` rows are shared) and rhs[r] as the rhs of row r, stored
as `add_eq`, `add_le` or `add_ge` would store it. A builder and its
`with_rhs` copies form a family, which also shares the results it
computes: from the family's second solve on, each computed result is
stored under (stored rhs, cost, second cost, sense), the last
`STORED_RESULTS` of them, and a later solve with an equal key returns
the stored `LpResult` (frozen, so shared safely) without building a
tableau. The key is only ever looked up on the same stored rows, so a
stored result is the one a cold solve gives. A family solved once
stores nothing, and adding a variable or a row gives that builder an
empty store of its own; copies made before keep the old one, which
matches their rows. The decision
procedures hold such builders in `lru_cache`d functions, built once: the
LP of q_s per (K, S, s) (`witnesses._q_lp`) and that of `is_witness`
per (K, S) (`witnesses._collection_lp`) take each call's data as their
cost; `measurements._tensor_template` per (S, generators), behind
`is_compatible`, `is_local` and `is_separable`, and `spaces.base_norm`'s
LP per K take it as their rhs, through `with_rhs`.

Cone-valued unknowns are written with a small row vocabulary: a vector
unknown is a list of variables, one per coordinate; `vec_expr` turns a
linear combination of such vectors into one expression {var: coeff} per
coordinate, and `LpBuilder.add_rows` adds one row per row m of a matrix,
Σ_a m[a]·expr[a] (==, <= or >=) rhs. With the tables on `StateSpace`,
`facet_rows` makes basis coordinates lie in V(K)+. A family of vectors
that must all lie in V(K)+, and that is a sum of one term per input
(the vertex images of an affine map on a polysimplex), gets its facet
rows per input, not per member: a nonnegative slack per facet and
input bounds that input's smallest facet value, and the matrix
[facet_rows | ±I] applied to (vector, slacks) writes the rows (see
`witnesses._witness_lp`). An effect positive on K is a list of
nonnegative facet weights, whose values at the basis vertices are
`transpose(facet_rows)` times the weights and at every vertex
`facet_values` times them; `linalg.combine` and `linalg.mat_vec` read a
vector back from a solution. An equation between two vectors of span
V(K) is written only at the coordinates `StateSpace.coord_idx`, which
determine a vector of the span. An equation T = Σ_n s_n ⊗ c_n between
elements of span V(S) ⊗ V, over the vertices s_n of a polysimplex S,
is written by `measurements.tensor_lp` in S's chart: one block of rows
per functional of the basis {1_S, m^i_j : j < l_i} of A(S), each block
in the coordinates of V its caller chooses (the basis vertices for the
joint LP, coord_idx(K) in `measurements.product_lp`, which writes the
hidden-state LP of an assemblage and the locality LP of a box, K = S_B).
Its multipliers have one reader, `measurements.chart_blocks`, which
splits them into the negated normalization block and the negated edge
blocks; the witness map of the joint LP and the separating functional
of `product_lp` are built from those blocks. An equation that is affine
in the vertex of a polysimplex is written only at the chart vertices,
the top and the top with one entry changed (`witnesses._etb_lp`,
`retraction_check`). The exact re-check of each certificate still
reads every coordinate.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .exact import R0, R1, numerators, rat

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

STORED_RESULTS = 16  # results a family of builders keeps, the oldest dropped first


@dataclass(frozen=True)
class LpStats:
    """Size of one solve and the work it took."""
    rows: int           # constraint rows
    columns: int        # tableau columns: variables, slacks, artificials
    split_columns: int  # of those, the two columns of each free variable
    phase1_pivots: int  # including pivots that drive artificials out
    phase2_pivots: int
    bits: int           # largest bit length of |T| or d in the final tableau


@dataclass(frozen=True)
class LpResult:
    status: str
    objective: object | None = None
    x: tuple | None = None       # one value per builder variable
    duals: tuple | None = None   # one multiplier per constraint row
    farkas: tuple | None = None  # row multipliers certifying infeasibility
    ray: tuple | None = None     # improving ray certifying unboundedness
    stats: LpStats | None = None

    def __getitem__(self, var):
        return self.x[var]


class _Tableau:
    """Integer simplex tableau with one common denominator d > 0. Row i is
    a dict {column: integer} of its nonzero entries, whose true values are
    integer / d; column `rhs` holds the right-hand side. basis[i] is the
    column basic in row i < len(basis); the rows after those hold reduced
    costs (their rhs cell is −objective value), the last row those that
    are priced: one cost row, or two in a second stage. The rhs column is
    scaled by one more positive integer, rhs_scale = D, which clears the
    stored rows' rhs denominators: the point it holds is x = T/(d·D)."""

    def __init__(self, rows, basis, rhs, rhs_scale):
        self.rows = rows
        self.basis = basis
        self.rhs = rhs
        self.rhs_scale = rhs_scale
        self.d = 1
        self.pivots = 0

    def copy(self):
        """An independent tableau with the same rows, basis, d and pivot
        count: `pivot` edits rows in place."""
        T = _Tableau([dict(row) for row in self.rows], list(self.basis), self.rhs,
                     self.rhs_scale)
        T.d, T.pivots = self.d, self.pivots
        return T

    def pivot(self, r, c):
        """Fraction-free pivot on p = rows[r][c]: every other row becomes
        (p·row − row[c]·rows[r]) // d, an exact division, and d becomes p.
        The pivot row itself is unchanged."""
        rows, d = self.rows, self.d
        pr = rows[r]
        p = pr[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row.get(c)
            if p == d:
                # (d·a − f·b)/d = a − f·b/d: only the pivot row's columns
                # change, in place, and d divides f·b
                if f:
                    for j, b in pr.items():
                        v = row.get(j, 0) - f * b // d
                        if v:
                            row[j] = v
                        else:
                            del row[j]
            elif f:
                # p·a is divisible by d wherever the pivot row is zero
                new = {j: p * a // d for j, a in row.items() if j not in pr}
                for j, b in pr.items():
                    v = p * row.get(j, 0) - f * b
                    if v:
                        new[j] = v // d
                rows[i] = new
            else:
                rows[i] = {j: p * a // d for j, a in row.items()}
        if p < 0:
            # only a drive-out pivot can be negative; negate T and d so
            # that sign tests on T read the true signs
            for i, row in enumerate(rows):
                rows[i] = {j: -a for j, a in row.items()}
            p = -p
        self.d = p
        self.basis[r] = c
        self.pivots += 1

    def run(self, limit, lex=False):
        """Pivot over the columns below `limit` until no reduced cost is
        negative. Dantzig's rule picks the entering column, the most
        negative reduced cost and the least index on ties, except after a
        degenerate pivot (ratio 0), when Bland's least index does until
        the next nondegenerate pivot. With `lex`, only columns whose entry
        in the row above the cost row (the first objective's reduced
        costs) is 0 may enter. Returns -1 at an optimum, or the entering
        column when no row limits it (unbounded)."""
        rows, basis, rhs = self.rows, self.basis, self.rhs
        stalled = False
        while True:
            first = rows[-2] if lex else ()
            cands = [(v, j) for j, v in rows[-1].items()
                     if v < 0 and j < limit and j not in first]
            if not cands:
                return -1
            enter = min(j for _, j in cands) if stalled else min(cands)[1]
            # least ratio rhs/a over a > 0 (d cancels), by cross-multiplying
            leave, num, den = -1, 0, 1
            for i in range(len(basis)):
                row = rows[i]
                a = row.get(enter, 0)
                if a > 0:
                    b = row.get(rhs, 0)
                    ratio, best = b * den, num * a
                    if leave < 0 or ratio < best or (
                            ratio == best and basis[i] < basis[leave]):
                        leave, num, den = i, b, a
            if leave < 0:
                return enter
            stalled = num == 0
            self.pivot(leave, enter)

    def bits(self):
        big = max((abs(a) for row in self.rows for a in row.values()), default=0)
        return max(big, self.d).bit_length()


@dataclass
class _Start:
    """Where phase 2 starts: the tableau at the end of phase 1, with the
    artificials driven out, the rows whose artificial stayed basic
    dropped and no cost row, and the column layout phase 2 reads."""
    T: _Tableau
    col_of: list       # per variable: its column, or its two if free
    ncols: int
    nsplit: int
    slack_col: dict    # <= row -> its slack column
    art0: int          # the first artificial column
    flipped: list      # per row: negated for its negative rhs
    start: list        # per row: its starting unit column
    scale: list        # per row: s_r
    dropped: set       # rows dropped as redundant

    def copy(self):
        return dataclasses.replace(self, T=self.T.copy())


class _Results:
    """The results computed by one family of builders, a builder and its
    `with_rhs` copies, which share their variables and integer rows:
    `by_key` maps the `_Key` of (stored rhs, cost, then, sense) to a
    result, oldest first; `solved`: the family was solved before, so
    later results are stored."""
    __slots__ = ("solved", "by_key")

    def __init__(self):
        self.solved = False
        self.by_key = {}


class _Key:
    """A tuple as a dict key, hashed once. A miss looks its key up, stores
    it and later drops it, and a tuple of rationals would be hashed again
    each time, at about the cost of all the rest of the store."""
    __slots__ = ("items", "h")

    def __init__(self, items):
        self.items = items
        self.h = hash(items)

    def __hash__(self):
        return self.h

    def __eq__(self, other):
        return self.items == other.items


def vec_expr(terms):
    """Σ c·cols over terms (c, cols), where cols holds one variable per
    coordinate: one linear expression {var: coeff} per coordinate."""
    terms = list(terms)
    expr = [{} for _ in terms[0][1]]
    for c, cols in terms:
        if c:
            c = rat(c)
            for e, v in zip(expr, cols, strict=True):
                e[v] = e[v] + c if v in e else c
    return expr


def _stored_rhs(rhs, s, sign):
    """sign·rhs·s_r, the rhs of a stored row: an int when s_r clears rhs's
    denominator q, else that rational."""
    rhs = rat(rhs)
    b, q = sign * rhs.numerator * s, rhs.denominator
    return rat(b, q) if b % q else b // q


def _int_expr(coeffs):
    """({var: int}, den) with coeffs == ints / den, den the LCM of the
    nonzero coefficients' denominators; zero coefficients dropped."""
    coeffs = [(v, rat(c)) for v, c in coeffs.items() if c]
    den = math.lcm(*(c.denominator for _, c in coeffs))
    return {v: c.numerator * (den // c.denominator) for v, c in coeffs}, den


class LpBuilder:
    """Incremental LP: nonneg/free variables, ==, <=, >= rows.

    Each row is stored as (coeffs {var: int}, rhs, s_r, kind) with kind
    "eq" or "le": the caller's row is (coeffs, rhs) / s_r, where s_r is
    the LCM of its nonzero coefficients' reduced denominators. The rhs,
    the caller's rhs times s_r, stays exact: an int when s_r clears the
    rhs's denominator, else a rational. The solve clears all the rhs's
    denominators at once, by one factor D on the tableau's rhs column. A
    ">=" row is stored negated, and zero coefficients are dropped."""

    def __init__(self):
        self._vars = []            # "nonneg" | "free"
        self._rows = []            # (int coeffs dict, int rhs, s_r, kind)
        self._signs = []           # per row: 1, or -1 for a ">=" row stored negated
        self._start = None         # a kept `_Start`: phase 1's end, for later costs
        self._solved = False       # solved on these rows and rhs before
        self._results = None       # a `_Results`, shared with the with_rhs copies

    def _changed(self):
        """A variable or row was added: phase 1 must run again, and the
        family's stored results no longer apply to this builder, which
        starts a family of its own (its store is made when first needed:
        a builder adds rows and variables by the hundred)."""
        self._start = None
        self._solved = False
        self._results = None

    def var(self, nonneg=True) -> int:
        self._changed()
        self._vars.append("nonneg" if nonneg else "free")
        return len(self._vars) - 1

    def vars(self, n, nonneg=True):
        return [self.var(nonneg) for _ in range(n)]

    def with_rhs(self, rhs):
        """A builder with this one's variables and stored integer rows, and
        rhs[r] (in the caller's units) as the rhs of row r: row r is
        stored as if added with that rhs, so the builder equals one built
        row by row with it. It shares the coefficient dicts, which no
        builder edits, and this builder's store of results, so a solve
        of the copy with rhs and cost that the family solved before
        returns the stored result; it keeps no phase-1 tableau."""
        if len(rhs) != len(self._rows):
            raise ValueError(f"{len(rhs)} rhs values for {len(self._rows)} rows")
        lp = LpBuilder()
        lp._vars = list(self._vars)
        lp._signs = list(self._signs)
        lp._rows = [(coeffs, _stored_rhs(b, s, sign), s, kind)
                    for (coeffs, _, s, kind), sign, b in zip(self._rows, self._signs, rhs)]
        if self._results is None:
            self._results = _Results()
        lp._results = self._results
        return lp

    def add_eq(self, coeffs, rhs, den=None):
        """Σ_v c_v·x_v == rhs for coeffs {v: c_v}. With den, the c_v are
        integers standing for c_v/den (how add_rows passes its sums)."""
        self._add(coeffs, den, rhs, 1, "eq")

    def add_le(self, coeffs, rhs, den=None):
        """Σ_v c_v·x_v <= rhs; den as in add_eq."""
        self._add(coeffs, den, rhs, 1, "le")

    def add_ge(self, coeffs, rhs, den=None):
        """Σ_v c_v·x_v >= rhs, stored negated as a <= row; den as in add_eq."""
        self._add(coeffs, den, rhs, -1, "le")

    def add_rows(self, matrix, expr, kind, rhs):
        """One row Σ_a m[a]·expr[a] (kind "eq", "le" or "ge") per matrix
        row m, in order; rhs is a scalar or one value per row. Each row
        goes through add_eq/add_le/add_ge and is stored like the
        hand-written row with the same rational coefficients, but its
        coefficients are summed as integer numerators over one
        denominator, never as rationals. Vanishing coefficients are
        dropped, but an empty row is added."""
        add = getattr(self, "add_" + kind)
        ints = [_int_expr(e) for e in expr]
        per_row = isinstance(rhs, (list, tuple))
        for r, m in enumerate(matrix):
            if len(m) != len(ints):
                raise ValueError(f"matrix row of length {len(m)} for "
                                 f"{len(ints)} expressions")
            nums, den = numerators(m)
            lcm = math.lcm(*(d for x, (_, d) in zip(nums, ints) if x))
            row = {}
            for x, (e, d) in zip(nums, ints):
                if x:
                    w = x * (lcm // d)
                    for v, a in e.items():
                        row[v] = row.get(v, 0) + w * a
            add({v: a for v, a in row.items() if a}, rhs[r] if per_row else rhs,
                den * lcm)

    def _add(self, coeffs, den, rhs, sign, kind):
        """Store the row (coeffs / den) (kind) rhs, times sign, on the LCM
        s_r of its coefficients' reduced denominators, which is den / g
        for g = gcd(den, coeffs). The rhs's denominator stays out of s_r:
        the stored rhs is sign·rhs·s_r, an int when s_r clears rhs's
        denominator q, else that rational."""
        if den is None:
            coeffs, den = _int_expr(coeffs)
        g = math.gcd(den, *coeffs.values())
        s = den // g
        self._changed()
        self._rows.append(({v: sign * (a // g) for v, a in coeffs.items()},
                           _stored_rhs(rhs, s, sign), s, kind))
        self._signs.append(sign)

    def minimize(self, coeffs):
        """min coeffs·x for coeffs {var: c}. For a pair (c1, c2) of such
        dicts, x is the least c2·x among the minimizers of c1·x, found on
        the same tableau; `objective` and `duals` are those of c1."""
        if isinstance(coeffs, tuple):
            first, then = coeffs
            return self._solve({v: rat(c) for v, c in first.items()}, R1,
                               {v: rat(c) for v, c in then.items()})
        return self._solve({v: rat(c) for v, c in coeffs.items()}, R1)

    def maximize(self, coeffs):
        return self._solve({v: -rat(c) for v, c in coeffs.items()}, -R1)

    # ----- internals -----

    def _solve(self, cost, sense, then=None):
        # a family's first solve stores nothing; from its second on, every
        # computed result is stored, and returned for an equal rhs, cost,
        # then and sense
        store = self._results
        if store is None:
            store = self._results = _Results()
        if not store.solved:
            store.solved = True
            return self._compute(cost, sense, then)
        key = _Key((tuple(b for _, b, _, _ in self._rows), tuple(cost.items()),
                    None if then is None else tuple(then.items()), sense))
        res = store.by_key.get(key)
        if res is None:
            res = self._compute(cost, sense, then)
            if len(store.by_key) == STORED_RESULTS:
                del store.by_key[next(iter(store.by_key))]
            store.by_key[key] = res
        return res

    def _compute(self, cost, sense, then):
        # phase 1 reads only the rows and the rhs; from the second solve on
        # the same ones, its end is kept, and each solve runs phase 2 on a
        # copy of it, so the result is the cold solve's
        if self._start is not None:
            st = self._start.copy()
        else:
            st = self._phase1()
            if isinstance(st, LpResult):
                return st
            if self._solved:
                self._start = st.copy()
            self._solved = True
        T = st.T
        phase1 = T.pivots

        # phase 2 on the cost row; with `then`, a second stage on its own
        # row below it, where only columns of zero first reduced cost enter
        row, cost_scale = self._cost_row(T, cost, st.col_of)
        T.rows.append(row)
        enter = T.run(st.art0)
        second = enter < 0 and then is not None
        if second:
            row, then_scale = self._cost_row(T, then, st.col_of)
            T.rows.append(row)
            enter = T.run(st.art0, lex=True)
        stats = self._stats(T, st.ncols, st.nsplit, phase1, T.pivots - phase1)
        if enter >= 0:
            # a slack column is scaled by its row's scale; others by 1
            enter_scale = next((st.scale[r] for r, j in st.slack_col.items()
                                if j == enter), 1)
            improve, fixed = (then, cost) if second else (cost, None)
            return self._extract_ray(T, enter, enter_scale, st.col_of, improve, stats,
                                     fixed)
        first = T.rows[len(T.basis)]
        y1 = self._duals(T, first, cost_scale, st)
        res = self._extract_optimal(T, st.col_of, cost, sense, y1, cost_scale, stats)
        if second:
            # the second stage pivots only where first is 0, so first keeps
            # its true values and y1 its meaning
            y2 = self._duals(T, T.rows[-1], then_scale, st)
            theta = max((rat(-T.rows[-1].get(j, 0) * cost_scale, a * then_scale)
                         for j, a in first.items() if j < st.art0 and a > 0),
                        default=R0)
            self._check_then(res.x, cost, y1, then, y2, max(theta, R0))
        return res

    def _phase1(self):
        """Build the start tableau and run phase 1 on it. Returns the
        INFEASIBLE LpResult with its checked Farkas vector, or the
        `_Start` of phase 2."""
        # column layout: per-variable columns, then one slack per <= row,
        # then one artificial per row that cannot start on its slack (an
        # == row, or a row negated for its negative rhs), then the rhs.
        col_of = []
        ncols = 0
        for kind in self._vars:
            if kind == "nonneg":
                col_of.append((ncols,))
                ncols += 1
            else:
                col_of.append((ncols, ncols + 1))
                ncols += 2
        nsplit = ncols - self._vars.count("nonneg")
        slack_col = {}
        for r, (_, _, _, kind) in enumerate(self._rows):
            if kind == "le":
                slack_col[r] = ncols
                ncols += 1
        art0 = ncols
        flipped = [b < 0 for _, b, _, _ in self._rows]
        rhs_scale = math.lcm(*(b.denominator for _, b, _, _ in self._rows))
        start = []
        for r, (_, _, _, kind) in enumerate(self._rows):
            if kind == "le" and not flipped[r]:
                start.append(slack_col[r])
            else:
                start.append(ncols)
                ncols += 1
        rhs_col = ncols

        # row r is the stored row, which is the caller's row times
        # scale[r] = s_r, negated when flipped, with its rhs times the one
        # common rhs_scale that clears every stored rhs to an integer; its
        # slack and artificial keep unit coefficients. Phase 1: an
        # artificial costs 1/scale[r] (1 per unit of the caller's row), and
        # the objective row is cleared to integers by the LCM of those
        # scales, p1_scale.
        rows = []
        scale = []
        for r, (coeffs, b, s, kind) in enumerate(self._rows):
            sign = -1 if flipped[r] else 1
            row = {}
            for v, a in coeffs.items():
                cols = col_of[v]
                row[cols[0]] = sign * a
                if len(cols) == 2:
                    row[cols[1]] = -sign * a
            if kind == "le":
                row[slack_col[r]] = sign
            row[start[r]] = 1
            if b:
                row[rhs_col] = sign * b.numerator * (rhs_scale // b.denominator)
            rows.append(row)
            scale.append(s)
        p1_scale = math.lcm(*(scale[r] for r, s in enumerate(start) if s >= art0))
        obj = {}
        for r, s in enumerate(start):
            if s >= art0:
                w = p1_scale // scale[r]
                for j, a in rows[r].items():
                    if j != s:
                        obj[j] = obj.get(j, 0) - w * a
        rows.append({j: a for j, a in obj.items() if a})
        T = _Tableau(rows, list(start), rhs_col, rhs_scale)
        T.run(art0)
        if T.rows[-1].get(rhs_col):
            return self._extract_farkas(T, flipped, start, art0, scale, p1_scale,
                                        self._stats(T, ncols, nsplit, T.pivots, 0))
        T.rows.pop()
        self._drive_out_artificials(T, art0)
        dropped = {i for i, b in enumerate(T.basis) if b >= art0}
        if dropped:
            keep = [i for i in range(len(T.basis)) if i not in dropped]
            T.rows = [T.rows[i] for i in keep]
            T.basis = [T.basis[i] for i in keep]
        return _Start(T, col_of, ncols, nsplit, slack_col, art0, flipped, start, scale,
                      dropped)

    def _stats(self, T, ncols, nsplit, phase1, phase2):
        return LpStats(rows=len(self._rows), columns=ncols, split_columns=nsplit,
                       phase1_pivots=phase1, phase2_pivots=phase2, bits=T.bits())

    @staticmethod
    def _cost_row(T, cost, col_of):
        """The reduced costs of `cost` on T's basis, as a tableau row over
        T.d, and cost_scale: the row is cleared to integers by the LCM
        cost_scale of the cost's denominators."""
        cost_scale = math.lcm(*(c.denominator for c in cost.values()))
        ncost = {}
        for v, c in cost.items():
            if c:
                a = c.numerator * (cost_scale // c.denominator)
                cols = col_of[v]
                ncost[cols[0]] = a
                if len(cols) == 2:
                    ncost[cols[1]] = -a
        obj = {j: T.d * a for j, a in ncost.items()}
        for row, b in zip(T.rows, T.basis):
            cb = ncost.get(b)
            if cb:
                for j, t in row.items():
                    obj[j] = obj.get(j, 0) - cb * t
        return {j: a for j, a in obj.items() if a}, cost_scale

    @staticmethod
    def _duals(T, obj, cost_scale, st):
        """Min-form duals from the reduced costs `obj` under each row's
        starting unit column, unscaled: y_r = −scale[r]·obj[s] /
        (d·cost_scale), negated on flipped rows, 0 on dropped rows."""
        den = T.d * cost_scale
        duals = []
        for r, s in enumerate(st.start):
            if r in st.dropped:
                duals.append(R0)
                continue
            y = -st.scale[r] * obj.get(s, 0)
            duals.append(rat(-y if st.flipped[r] else y, den))
        return duals

    @staticmethod
    def _drive_out_artificials(T, art0):
        for i in range(len(T.basis)):
            if T.basis[i] >= art0:
                enter = min((j for j in T.rows[i] if j < art0), default=None)
                if enter is not None:
                    T.pivot(i, enter)

    @staticmethod
    def _public_x(T, col_of):
        """Integer numerators X of the caller's variables: x = X / (T.d·D),
        with D = T.rhs_scale."""
        colval = {b: row.get(T.rhs, 0) for row, b in zip(T.rows, T.basis)}
        out = []
        for cols in col_of:
            v = colval.get(cols[0], 0)
            if len(cols) == 2:
                v -= colval.get(cols[1], 0)
            out.append(v)
        return tuple(out)

    def _extract_optimal(self, T, col_of, cost, sense, duals, cost_scale, stats):
        X = self._public_x(T, col_of)
        # exact self-checks: primal feasibility, then dual feasibility and
        # strong duality of the min-form duals
        self._check_primal(X, T.d, T.rhs_scale)
        den = T.d * T.rhs_scale
        x = tuple(rat(v, den) for v in X)
        value = rat(sum(c.numerator * (cost_scale // c.denominator) * X[v]
                        for v, c in cost.items()), cost_scale * den)
        self._check_dual(duals, cost, value)
        return LpResult(OPTIMAL, objective=sense * value, x=x,
                        duals=tuple(sense * y for y in duals), stats=stats)

    def _check_then(self, x, cost, y1, then, y2, theta):
        """x is the least then·x among the minimizers of cost·x, given that
        y1 certifies cost·x optimal: y = y2 + θ·y1 must be dual feasible
        for then + θ·cost with y·b equal to its value at x. Any feasible x'
        with cost·x' = cost·x then has then·x' >= then·x."""
        mixed = dict(then)
        for v, c in cost.items():
            mixed[v] = mixed.get(v, R0) + theta * c
        y = [b + theta * a for a, b in zip(y1, y2)]
        self._check_dual(y, mixed, sum((c * x[v] for v, c in mixed.items()), R0))

    def _extract_farkas(self, T, flipped, start, art0, scale, p1_scale, stats):
        # phase-1 duals: the starting column's phase-1 cost (1 for an
        # artificial, 0 for a slack) minus its reduced cost, unscaled
        obj = T.rows[-1]
        den = T.d * p1_scale
        y = []
        for r, s in enumerate(start):
            yr = (den if s >= art0 else 0) - scale[r] * obj.get(s, 0)
            y.append(rat(-yr if flipped[r] else yr, den))
        self._check_farkas(y)
        return LpResult(INFEASIBLE, farkas=tuple(y), stats=stats)

    def _extract_ray(self, T, enter, enter_scale, col_of, cost, stats, keep=None):
        # direction: one unit of the entering column (in the caller's
        # units), basic columns moving by −(true entry)·enter_scale; in a
        # second stage it improves `then` and must keep the first cost
        num = {enter: T.d}
        for row, b in zip(T.rows, T.basis):
            if enter in row:
                num[b] = -row[enter] * enter_scale
        ray = []
        for cols in col_of:
            v = num.get(cols[0], 0)
            if len(cols) == 2:
                v -= num.get(cols[1], 0)
            ray.append(rat(v, T.d))
        ray = tuple(ray)
        # verify the ray: homogeneous feasibility and strict improvement
        # signs read on integer numerators: the denominators of the
        # ray, of the cost and each row's s_r are positive
        nums, _ = numerators(ray)
        cnums, _ = numerators(list(cost.values()))
        if not sum(c * nums[v] for v, c in zip(cost, cnums)) < 0:
            raise AssertionError("unboundedness ray does not improve")
        if keep is not None:
            knums, _ = numerators(list(keep.values()))
            if sum(c * nums[v] for v, c in zip(keep, knums)) != 0:
                raise AssertionError("unboundedness ray moves the first objective")
        for coeffs, _, _, kind in self._rows:
            s = sum(a * nums[v] for v, a in coeffs.items())
            if kind == "eq" and s != 0:
                raise AssertionError("unboundedness ray leaves equalities")
            if kind == "le" and s > 0:
                raise AssertionError("unboundedness ray violates <=")
        for v, kind in enumerate(self._vars):
            if kind == "nonneg" and ray[v] < 0:
                raise AssertionError("unboundedness ray goes negative")
        return LpResult(UNBOUNDED, ray=ray, stats=stats)

    def _combine_rows(self, y):
        """Σ_r y_r·(row r) for one rational y_r per caller row, as integer
        numerators over positive denominators: (coefficient numerators
        {var: int}, their denominator, numerator of Σ_r y_r·rhs_r, its
        denominator). The rhs sum's denominator has one more factor, the
        LCM D of the stored rhs's denominators."""
        Y, dy = numerators(y)
        lcm = math.lcm(*(s for _, _, s, _ in self._rows))
        D = math.lcm(*(b.denominator for _, b, _, _ in self._rows))
        comb = {}
        total = 0
        for yr, (coeffs, b, s, _) in zip(Y, self._rows):
            if yr:
                w = yr * (lcm // s)
                for v, a in coeffs.items():
                    comb[v] = comb.get(v, 0) + w * a
                if b:
                    total += w * b.numerator * (D // b.denominator)
        return comb, dy * lcm, total, dy * lcm * D

    def _check_farkas(self, y):
        """y (one rational per caller row) certifies infeasibility:
        y_r <= 0 on every '<=' row, y^T A <= 0 on nonneg variables and
        == 0 on free ones, and y^T b > 0."""
        for yr, (_, _, _, kind) in zip(y, self._rows, strict=True):
            if kind == "le" and yr > 0:
                raise AssertionError("Farkas certificate sign check failed")
        comb, _, total, _ = self._combine_rows(y)
        for v, s in comb.items():
            if self._vars[v] == "free":
                if s != 0:
                    raise AssertionError("Farkas certificate failed on free var")
            elif s > 0:
                raise AssertionError("Farkas certificate failed")
        if not total > 0:
            raise AssertionError("Farkas certificate not separating")

    def _check_dual(self, y, cost, value):
        """y (one rational per caller row) is an optimal dual of min
        cost·x whose value is `value`: y_r <= 0 on every '<=' row,
        c_v − (A^T y)_v >= 0 on nonneg variables and == 0 on free ones,
        and y^T b == value. The reduced costs are read times the positive
        denominators of cost and of A^T y."""
        for yr, (_, _, _, kind) in zip(y, self._rows, strict=True):
            if kind == "le" and yr > 0:
                raise AssertionError("dual sign check failed")
        comb, den, total, total_den = self._combine_rows(y)
        if rat(total, total_den) != value:
            raise AssertionError("simplex strong duality violated")
        cnum, cden = _int_expr(cost)
        for v in cnum.keys() | comb.keys():
            red = cnum.get(v, 0) * den - comb.get(v, 0) * cden
            if self._vars[v] == "free":
                if red != 0:
                    raise AssertionError("dual infeasible on a free variable")
            elif red < 0:
                raise AssertionError("dual infeasible: negative reduced cost")

    def _check_primal(self, X, d, D):
        """x = X/(d·D) satisfies every caller row, each checked times
        s_r·d·D > 0 on its integer coefficients against the integer
        D·(stored rhs)·d, and every nonneg bound."""
        for coeffs, b, _, kind in self._rows:
            s = sum(a * X[v] for v, a in coeffs.items())
            rhs = b.numerator * (D // b.denominator) * d
            if kind == "eq" and s != rhs:
                raise AssertionError("simplex produced infeasible point")
            if kind == "le" and s > rhs:
                raise AssertionError("simplex produced infeasible point")
        for v, kind in enumerate(self._vars):
            if kind == "nonneg" and X[v] < 0:
                raise AssertionError("simplex produced negative variable")
