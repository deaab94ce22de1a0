"""Qubit backend: pairs of two-outcome measurements on the quantum
state space of C², joint measurability by the closed-form coexistence
criterion of Yu, Liu, Li & Oh (Busch's in the unbiased case) with a
verified joint effect, the incompatibility degree at the barycenter
s̄ = (½, ½) as the root of that criterion along the smearing towards
I/2, and the extremal witness family whose optimum at s̄ certifies the
1−1/√2 maximum.

Everything here is float mode. Two-outcome measurements are stored by
their first effect; Hermitian 2×2 matrices are handled in the Pauli
parametrization (t, x, y, z) ↦ t·I + x·σx + y·σy + z·σz, whose
eigenvalues t ± ‖(x,y,z)‖ are closed-form.

The witness family is evaluated in the same closed form: with
ρ^{1/2} = cI + d n̂·σ, the vector h(E)_a = Tr[E ρ^{1/2} σ_a ρ^{1/2}]
is 2[(c²−d²)e + 2cd·e₀n̂ + 2d²(n̂·e)n̂] for E = e₀I + e·σ. witness_q
evaluates its whole grid as one numpy batch, refines the best grid
point by a local search on plain floats until the step falls below
_WITNESS_STEP_STOP, and re-checks the result by 2×2 matrix products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import TOL

SQRT2 = math.sqrt(2.0)
QUBIT_MAX_ID = 1.0 - 1.0 / SQRT2

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_PAULI = (_SX, _SY, _SZ)

#: rounding guard of the coexistence inequality: commuting pairs that
#: include a sharp effect sit exactly on its boundary
_COEXIST_GUARD = 1e-12
#: bracket width of the golden-section joint-effect search and of the
#: bisection in qubit_id
_SEARCH_WIDTH = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
#: witness_q's grid: _WITNESS_GRID radii in [0, _R_MAX] times
#: _WITNESS_GRID² + 2 directions
_WITNESS_GRID = 16
_R_MAX = 1.0 - 2e-8
#: witness_q's local search stops when its step falls below this. The
#: round count is only a termination guard: on 2,000 seeded
#: `random_effect` pairs the search took at most 1,150 rounds
_WITNESS_STEP_STOP = 1e-12
_WITNESS_ROUND_GUARD = 100_000
#: radius at which the Bloch-vector search starts after a polar search
#: that ended at r = 0
_BLOCH_START = 1e-3
#: agreement required of witness_q's closed form with the matrix route,
#: and of qubit_id's primal value with its dual bound: the witness family
#: is tight at the barycenter
_CROSS_CHECK_TOL = 1e-9
#: slack of the incompatibility bound at the Tsirelson box
_BOUND_TOL = 1e-6


class QubitEffect:
    """αI + a·σ with 0 ≤ effect ≤ I, i.e. ‖a‖ ≤ min(α, 1−α)."""

    def __init__(self, alpha, bloch):
        self.alpha = float(alpha)
        self.bloch = np.asarray(bloch, dtype=float)
        if self.bloch.shape != (3,):
            raise ValueError("bloch part must be a 3-vector")
        r = float(np.linalg.norm(self.bloch))
        if r > min(self.alpha, 1.0 - self.alpha) + TOL:
            raise ValueError("not an effect: need ‖a‖ ≤ min(α, 1−α)")

    @classmethod
    def sharp(cls, direction):
        """Rank-1 projector ½(I + n̂·σ)."""
        n = np.asarray(direction, dtype=float)
        n = n / np.linalg.norm(n)
        return cls(0.5, n / 2.0)

    @classmethod
    def sharp_angle(cls, theta):
        """Projector in the x–z plane at angle θ from the z axis."""
        return cls.sharp((math.sin(theta), 0.0, math.cos(theta)))

    def matrix(self):
        m = self.alpha * _I2
        for c, s in zip(self.bloch, _PAULI):
            m = m + c * s
        return m

    def smear(self, lam) -> "QubitEffect":
        """(1−λ)·effect + λ·I/2."""
        return QubitEffect((1.0 - lam) * self.alpha + lam * 0.5,
                           (1.0 - lam) * self.bloch)

    def __repr__(self):
        return f"QubitEffect(α={self.alpha:.6g}, a={tuple(self.bloch)})"


def _pvec(m):
    """Pauli components (t, x, y, z) of a Hermitian 2×2 matrix."""
    t = 0.5 * (m[0, 0] + m[1, 1]).real
    x = 0.5 * (m[0, 1] + m[1, 0]).real
    y = 0.5 * (m[1, 0] - m[0, 1]).imag
    z = 0.5 * (m[0, 0] - m[1, 1]).real
    return np.array([t, x, y, z])


def _pmat(p):
    t, x, y, z = p
    return np.array([[t + z, x - 1j * y], [x + 1j * y, t - z]], dtype=complex)


def _focal(x, m):
    """F(x, m) = ½[√((1+x)²−|m|²) + √((1−x)²−|m|²)] of the effect
    ½[(1+x)I + m·σ], and x²/F², taken as 0 for a sharp projector
    (x = 0, F = 0). F ≥ |x| for every effect; the min keeps rounding
    from pushing the ratio above 1."""
    m2 = float(np.dot(m, m))
    f = 0.5 * (math.sqrt(max((1.0 + x) ** 2 - m2, 0.0))
               + math.sqrt(max((1.0 - x) ** 2 - m2, 0.0)))
    return f, (min(x * x / (f * f), 1.0) if f > 0.0 else 0.0)


def _coexistent(A: QubitEffect, B: QubitEffect) -> bool:
    """Joint measurability of (A, I−A) and (B, I−B) in closed form (Yu,
    Liu, Li & Oh, PRA 81 062116 (2010); Busch, PRD 33 2253 (1986) in
    the unbiased case). With A = ½[(1+x)I + m·σ], B = ½[(1+y)I + n·σ]:
    coexistent iff (1 − F_x² − F_y²)(1 − x²/F_x² − y²/F_y²) ≤
    (m·n − xy)²."""
    x, m = 2.0 * A.alpha - 1.0, 2.0 * A.bloch
    y, n = 2.0 * B.alpha - 1.0, 2.0 * B.bloch
    fx, rx = _focal(x, m)
    fy, ry = _focal(y, n)
    lhs = (1.0 - fx * fx - fy * fy) * (1.0 - rx - ry)
    return lhs <= (float(np.dot(m, n)) - x * y) ** 2 + _COEXIST_GUARD


def _golden_max(f):
    """(argmax, max) of a concave f on [−1, 1] by golden-section search
    down to a bracket of _SEARCH_WIDTH."""
    lo, hi = -1.0, 1.0
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > _SEARCH_WIDTH:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def joint_povm_feasible(A: QubitEffect, B: QubitEffect):
    """Joint measurability of (A, I−A) and (B, I−B) by `_coexistent`.
    Returns (bool, G matrix | None). G = g₀I + g·σ is a joint effect iff
    g₀ lies in [max(|g|, α+β−1+|g−a−b|), min(α−|g−a|, β−|g−b|)]; the
    width of that window is concave in g, and projecting g onto the
    plane spanned by a and b shortens all four distances, so nested
    golden-section searches maximize the width in that plane, and g₀ is
    the window's midpoint there. G, A−G, B−G and I−A−B+G are re-verified
    by their smallest eigenvalues; a failed check raises AssertionError."""
    if not _coexistent(A, B):
        return False, None
    alpha, beta = A.alpha, B.alpha
    basis = np.linalg.svd(np.column_stack([A.bloch, B.bloch]))[0][:, :2]
    a1, a2 = basis.T @ A.bloch
    b1, b2 = basis.T @ B.bloch
    top = alpha + beta - 1.0

    def window(u, v):
        """Width and midpoint of the g₀ window at g = u·e₁ + v·e₂."""
        hi = min(alpha - math.hypot(u - a1, v - a2),
                 beta - math.hypot(u - b1, v - b2))
        lo = max(math.hypot(u, v), top + math.hypot(u - a1 - b1, v - a2 - b2))
        return hi - lo, 0.5 * (hi + lo)

    def best_v(u):
        return _golden_max(lambda v: window(u, v)[0])

    u = _golden_max(lambda u: best_v(u)[1])[0]
    v = best_v(u)[0]
    g = np.concatenate(([window(u, v)[1]], basis @ (u, v)))
    a, b = _pvec(A.matrix()), _pvec(B.matrix())
    elements = (g, a - g, b - g, _pvec(_I2) - a - b + g)
    # smallest eigenvalue t − ‖(x,y,z)‖ of each POVM element
    if min(p[0] - np.linalg.norm(p[1:]) for p in elements) < -TOL:
        raise AssertionError("joint effect search failed for a pair "
                             "the coexistence criterion accepts")
    return True, _pmat(g)


def _sqrt_rho_terms(r):
    """c, d of ρ^{1/2} = cI + d n̂·σ for ρ = ½(I + r n̂·σ):
    c, d = ½(√((1+r)/2) ± √((1−r)/2)). r is a float or an array."""
    hi = ((1.0 + r) / 2.0) ** 0.5
    lo = ((1.0 - r) / 2.0) ** 0.5
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def _sqrt_rho(r, direction):
    """ρ^{1/2} for ρ = ½(I + r n̂·σ), as a matrix."""
    c, d = _sqrt_rho_terms(r)
    return c * _I2 + d * (direction[0] * _SX + direction[1] * _SY
                          + direction[2] * _SZ)


def _h(c, d, n, e0, e):
    """h(E)_a = Tr[E ρ^{1/2} σ_a ρ^{1/2}] for E = e₀I + e·σ, in closed
    form: h(E) = 2[(c²−d²)e + 2cd·e₀n̂ + 2d²(n̂·e)n̂], as three
    components. c, d and the components of n̂ are floats, or arrays
    that broadcast."""
    k = c * c - d * d
    a = 2.0 * c * d * e0 + 2.0 * d * d * (n[0] * e[0] + n[1] * e[1]
                                          + n[2] * e[2])
    return (2.0 * (k * e[0] + a * n[0]), 2.0 * (k * e[1] + a * n[1]),
            2.0 * (k * e[2] + a * n[2]))


def _pair_terms(A: QubitEffect, B: QubitEffect):
    """(e₀, e) of A+B−I and of A−B, in Python floats."""
    return ((A.alpha + B.alpha - 1.0, (A.bloch + B.bloch).tolist()),
            (A.alpha - B.alpha, (A.bloch - B.bloch).tolist()))


def _value(pair, r, n):
    """The witness value at one point (r, n̂) on plain floats, with its
    Bloch axes u, v. With h₁ = h(A+B−I) and h₂ = h(A−B), Tr FW = 1 +
    h₁·u + h₂·v is least at u = −ĥ₁, v = −ĥ₂, where it is 1 − ‖h₁‖ −
    ‖h₂‖. W(s̄) = ρ is a state for every point. `_grid_values` is the
    same evaluator on arrays."""
    c, d = _sqrt_rho_terms(r)
    h1, h2 = (_h(c, d, n, e0, e) for e0, e in pair)
    n1 = math.sqrt(h1[0] * h1[0] + h1[1] * h1[1] + h1[2] * h1[2])
    n2 = math.sqrt(h2[0] * h2[0] + h2[1] * h2[1] + h2[2] * h2[2])
    u = (-h1[0] / n1, -h1[1] / n1, -h1[2] / n1) if n1 > 1e-15 else (0.0, 0.0, 1.0)
    v = (-h2[0] / n2, -h2[1] / n2, -h2[2] / n2) if n2 > 1e-15 else (1.0, 0.0, 0.0)
    return 1.0 - n1 - n2, u, v


def _witness_grid():
    """witness_q's grid: _WITNESS_GRID² directions, θ-major, then the two
    poles, as an (N, 3) array, and _WITNESS_GRID radii in [0, _R_MAX]."""
    i = np.arange(_WITNESS_GRID)
    th = np.pi * (i + 0.5) / _WITNESS_GRID
    ph = 2.0 * np.pi * i / _WITNESS_GRID
    dirs = np.stack([np.outer(np.sin(th), np.cos(ph)),
                     np.outer(np.sin(th), np.sin(ph)),
                     np.outer(np.cos(th), np.ones(_WITNESS_GRID))], axis=-1)
    dirs = np.concatenate([dirs.reshape(-1, 3), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    return dirs, _R_MAX * i / (_WITNESS_GRID - 1)


_GRID_DIRECTIONS, _GRID_RADII = _witness_grid()


def _grid_values(pair):
    """`_value` on the whole grid as one batch: an array of values,
    directions × radii."""
    n = _GRID_DIRECTIONS.T[:, :, None]
    c, d = _sqrt_rho_terms(_GRID_RADII)
    h1, h2 = (np.array(_h(c, d, n, e0, e)) for e0, e in pair)
    n1 = np.sqrt(h1[0] * h1[0] + h1[1] * h1[1] + h1[2] * h1[2])
    n2 = np.sqrt(h2[0] * h2[0] + h2[1] * h2[1] + h2[2] * h2[2])
    return 1.0 - n1 - n2


@dataclass
class QubitWitnessParams:
    """ρ and the two orthonormal bases, given by their Bloch axes u, v:
    x_{0,0}/x_{1,1} sit at ±u and x_{0,1}/x_{1,0} at ±v. Vertex images
    are w_n = 2 ρ^{1/2} |x_n⟩⟨x_n| ρ^{1/2}."""
    r: float
    direction: tuple
    u: tuple
    v: tuple

    def rho(self):
        d = np.asarray(self.direction)
        return 0.5 * (_I2 + self.r * (d[0] * _SX + d[1] * _SY + d[2] * _SZ))

    def vertex_images(self):
        sq = _sqrt_rho(self.r, self.direction)

        def sandwich(axis, sign):
            n = sign * np.asarray(axis)
            proj = 0.5 * (_I2 + n[0] * _SX + n[1] * _SY + n[2] * _SZ)
            return 2.0 * (sq @ proj @ sq)

        return {(0, 0): sandwich(self.u, +1.0), (1, 1): sandwich(self.u, -1.0),
                (0, 1): sandwich(self.v, +1.0), (1, 0): sandwich(self.v, -1.0)}

    def check(self):
        w = self.vertex_images()
        rho2 = 2.0 * self.rho()
        for pair in (((0, 0), (1, 1)), ((0, 1), (1, 0))):
            s = w[pair[0]] + w[pair[1]]
            if np.max(np.abs(s - rho2)) > TOL:
                raise AssertionError("vertex images do not sum to 2ρ")
        return True


def _trace_pairing_mats(a, b, w):
    val = np.trace(a @ w[(0, 1)]) + np.trace((_I2 - a) @ w[(1, 1)])
    val = val + np.trace(b @ w[(1, 0)]) + np.trace((_I2 - b) @ w[(1, 1)])
    val = val - np.trace(w[(1, 1)])
    return float(val.real)


def trace_pairing_qubit(A: QubitEffect, B: QubitEffect,
                        params: QubitWitnessParams):
    """Tr FW over the square: Σ_{i,j} ⟨f^i_j, W(top with n_i=j)⟩ −
    ⟨I, w_top⟩ with top = (1,1)."""
    return _trace_pairing_mats(A.matrix(), B.matrix(), params.vertex_images())


@dataclass
class QubitWitnessReport:
    q_hat: float
    params: QubitWitnessParams
    id_lower_bound: float


def _polar(x, n):
    """(r, n̂) of the Bloch vector x; n̂ = n at x = 0, where it has no
    effect."""
    r = math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
    return r, ((x[0] / r, x[1] / r, x[2] / r) if r > 0.0 else n)


def _bloch_search(pair, n, at_center):
    """witness_q's local search continued in the Bloch vector x = r·n̂ of
    ρ, from x = _BLOCH_START·n̂: each round moves each coordinate of x by
    ∓step (moves that leave the ball r ≤ _R_MAX refused), and the step
    halves as in witness_q. Near r = 0, where n̂ hardly matters, (r, n̂)
    is badly conditioned and the polar search can stop at r = 0 itself;
    in x every direction stays reachable. The value is smooth in x, so
    r = 0 is a local minimum when no point ±_BLOCH_START·e_a is below
    its value `at_center`; then (as for every sharp pair, whose optimum
    is ρ = I/2) there is no search and the result is None. Else returns
    (value triple, r, n̂)."""
    if all(_value(pair, _BLOCH_START, tuple(sign * (a == b) for b in range(3)))[0]
           >= at_center - 1e-15 for a in range(3) for sign in (1.0, -1.0)):
        return None
    x = [_BLOCH_START * c for c in n]
    best = _value(pair, *_polar(x, n))
    step = _R_MAX / _WITNESS_GRID
    for _ in range(_WITNESS_ROUND_GUARD):
        improved = False
        for axis in range(3):
            for dd in (-step, step):
                xd = list(x)
                xd[axis] += dd
                rr, nd = _polar(xd, n)
                if rr > _R_MAX:
                    continue
                cand = _value(pair, rr, nd)
                if cand[0] < best[0] - 1e-15:
                    best, x, improved = cand, xd, True
        if not improved:
            step *= 0.5
            if step < _WITNESS_STEP_STOP:
                return (best, *_polar(x, n))
    raise AssertionError("witness_q's Bloch-vector search did not converge "
                         f"in {_WITNESS_ROUND_GUARD} rounds")


def witness_q(A: QubitEffect, B: QubitEffect) -> QubitWitnessReport:
    """Minimize Tr FW over the extremal family (ρ, basis axes), whose
    image W(s̄) = ρ of the barycenter is a state. Every point is
    evaluated in closed Pauli form (`_value`): the whole grid of
    _WITNESS_GRID radii times
    _WITNESS_GRID² + 2 directions as one numpy batch, then a local
    search in ρ on plain floats from the grid's best point, whose step
    halves whenever no move improves, down to _WITNESS_STEP_STOP (a
    search still running after _WITNESS_ROUND_GUARD rounds raises
    AssertionError). When that search ends at r = 0, where n̂ has no
    effect, `_bloch_search` continues it and the lower value is kept.
    The result is re-checked by the matrix route: `params.check()`, and
    `trace_pairing_qubit` on the returned parameters must give q̂ within
    _CROSS_CHECK_TOL. Returns q̂ ≥ q_s̄(F), an upper bound on the true
    minimum, hence −q̂/(1−q̂) lower-bounds the incompatibility degree."""
    pair = _pair_terms(A, B)
    grid = _grid_values(pair)
    i_dir, i_r = np.unravel_index(np.argmin(grid), grid.shape)
    r, n = float(_GRID_RADII[i_r]), tuple(_GRID_DIRECTIONS[i_dir].tolist())
    best = _value(pair, r, n)
    step = _R_MAX / _WITNESS_GRID
    for _ in range(_WITNESS_ROUND_GUARD):
        improved = False
        for dr in (-step, step):
            rr = min(max(r + dr, 0.0), _R_MAX)
            cand = _value(pair, rr, n)
            if cand[0] < best[0] - 1e-15:
                best, r, improved = cand, rr, True
        for axis in range(3):
            for dd in (-step, step):
                nd = list(n)
                nd[axis] += dd
                norm = math.sqrt(nd[0] * nd[0] + nd[1] * nd[1] + nd[2] * nd[2])
                nd = (nd[0] / norm, nd[1] / norm, nd[2] / norm)
                cand = _value(pair, r, nd)
                if cand[0] < best[0] - 1e-15:
                    best, n, improved = cand, nd, True
        if not improved:
            step *= 0.5
            if step < _WITNESS_STEP_STOP:
                break
    else:
        raise AssertionError("witness_q's local search did not converge "
                             f"in {_WITNESS_ROUND_GUARD} rounds")
    if r == 0.0:
        cand = _bloch_search(pair, n, best[0])
        if cand is not None and cand[0][0] < best[0]:
            best, r, n = cand
    val, u, v = best
    params = QubitWitnessParams(r, n, u, v)
    params.check()
    if abs(trace_pairing_qubit(A, B, params) - val) > _CROSS_CHECK_TOL:
        raise AssertionError("closed-form witness value disagrees with the "
                             "matrix trace pairing")
    bound = -val / (1.0 - val) if val < 0.0 else 0.0
    return QubitWitnessReport(float(val), params, float(bound))


def holder_check(params: QubitWitnessParams):
    """½‖W(e⁰₀)‖₁ ≤ c and ½‖W(e¹₀)‖₁ ≤ d with c = √(1−|⟨x₀₁|x₁₁⟩|²),
    d = √(1−|⟨x₁₀|x₁₁⟩|²) and c² + d² = 1."""
    w = params.vertex_images()
    u = np.asarray(params.u)
    v = np.asarray(params.v)
    # overlap of Bloch-axis pure states: |⟨m|n⟩|² = (1 + m̂·n̂)/2
    c = math.sqrt(1.0 - (1.0 + float(np.dot(v, -u))) / 2.0)
    d = math.sqrt(1.0 - (1.0 + float(np.dot(-v, -u))) / 2.0)
    if abs(c * c + d * d - 1.0) > TOL:
        raise AssertionError("c² + d² must equal 1")

    def tnorm(m):
        p = _pvec(m)
        rr = math.sqrt(p[1] ** 2 + p[2] ** 2 + p[3] ** 2)
        return abs(p[0] + rr) + abs(p[0] - rr)

    e00 = w[(0, 1)] - w[(1, 1)]
    e10 = w[(1, 0)] - w[(1, 1)]
    if 0.5 * tnorm(e00) > c + TOL or 0.5 * tnorm(e10) > d + TOL:
        raise AssertionError("Hölder step violated")
    return c, d


@dataclass
class QubitIdReport:
    value: float
    q_hat: float
    dual_bound: float
    params: QubitWitnessParams
    iterations: int


def qubit_id(A: QubitEffect, B: QubitEffect) -> QubitIdReport:
    """ID_s̄ at the barycenter: the least λ at which the smeared pair
    ((1−λ)A + λI/2, (1−λ)B + λI/2) is coexistent, bisected on
    `_coexistent` down to a bracket of _SEARCH_WIDTH, together with the
    witness dual lower bound. The witness family is tight at the
    barycenter, so the two must agree within _CROSS_CHECK_TOL; a failed
    check raises AssertionError."""
    wit = witness_q(A, B)
    value, iters = 0.0, 0
    if not _coexistent(A, B):
        lo, hi = 0.0, 1.0
        while hi - lo > _SEARCH_WIDTH:
            mid = 0.5 * (lo + hi)
            if _coexistent(A.smear(mid), B.smear(mid)):
                hi = mid
            else:
                lo = mid
            iters += 1
        value = 0.5 * (lo + hi)
    if abs(value - wit.id_lower_bound) > _CROSS_CHECK_TOL:
        raise AssertionError("dual bound misses the primal bisection "
                             "value at the barycenter")
    return QubitIdReport(value, wit.q_hat, wit.id_lower_bound, wit.params, iters)


def mub_pair():
    """Sharp σz and σx measurements: the maximally incompatible qubit
    pair."""
    return QubitEffect.sharp((0, 0, 1)), QubitEffect.sharp((1, 0, 0))


def random_effect(rng, sharp=False) -> QubitEffect:
    th = math.acos(rng.uniform(-1.0, 1.0))
    ph = rng.uniform(0.0, 2.0 * math.pi)
    n = (math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th))
    if sharp:
        return QubitEffect.sharp(n)
    alpha = rng.uniform(0.15, 0.85)
    rad = rng.uniform(0.0, 1.0) * min(alpha, 1.0 - alpha)
    return QubitEffect(alpha, tuple(rad * c for c in n))


def born_box(effects_a, effects_b, rho4):
    """Box from a two-qubit state: p(j_a,j_b|i_a,i_b) =
    Tr[ρ (E^{i_a}_{j_a} ⊗ E^{i_b}_{j_b})]."""
    from .bell import Box
    from .polysimplex import PolySimplex
    rho4 = np.asarray(rho4, dtype=complex)
    probs = {}
    for ia, ea in enumerate(effects_a):
        mats_a = (ea.matrix(), _I2 - ea.matrix())
        for ib, eb in enumerate(effects_b):
            mats_b = (eb.matrix(), _I2 - eb.matrix())
            for ja in (0, 1):
                for jb in (0, 1):
                    m = np.kron(mats_a[ja], mats_b[jb])
                    probs[(ia, ib, ja, jb)] = float(np.trace(rho4 @ m).real)
    shape = PolySimplex((1,) * len(effects_a))
    shape_b = PolySimplex((1,) * len(effects_b))
    return Box(shape, shape_b, probs)


def max_entangled_state():
    """|Φ⁺⟩⟨Φ⁺| with |Φ⁺⟩ = (|00⟩ + |11⟩)/√2."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / SQRT2
    return np.outer(psi, psi.conj())


def tsirelson_box():
    """Born box of the maximally entangled state at the angles
    (0, π/2 | −π/4, π/4), which attain 𝔹 = 2√2."""
    effects_a = (QubitEffect.sharp_angle(0.0), QubitEffect.sharp_angle(math.pi / 2.0))
    effects_b = (QubitEffect.sharp_angle(-math.pi / 4.0),
                 QubitEffect.sharp_angle(math.pi / 4.0))
    return born_box(effects_a, effects_b, max_entangled_state())


@dataclass
class QubitBoundReport:
    lhs: float
    q_hat: float
    rhs: float
    equality_gap: float


def qubit_bound_report() -> QubitBoundReport:
    """The incompatibility bound at the Tsirelson box: LHS =
    ⟨μ_{0,1,0}, γ⟩ = ½(1−√2) meets the equality value ½q̂ of the sharp
    MUB pair. The MUB witness also passes `holder_check`, the Hölder
    step of the bound."""
    from .bell import chsh_witness
    box = tsirelson_box()
    mu = chsh_witness(0, 1, 0)
    lhs = float(mu.value(box))
    a, b = mub_pair()
    wit = witness_q(a, b)
    holder_check(wit.params)
    rhs = 1.0 * wit.q_hat
    gap = abs(lhs - 0.5 * wit.q_hat)
    if lhs < rhs - _BOUND_TOL:
        raise AssertionError("incompatibility bound violated at the "
                             "Tsirelson box")
    return QubitBoundReport(lhs, wit.q_hat, rhs, gap)
