"""Qubit backend: pairs of two-outcome measurements on the quantum
state space of C², the incompatibility degree at the barycenter
s̄ = (½, ½) as the least root of the coexistence boundary along the
smearing towards I/2, an exact integer polynomial, and the extremal
witness family whose optimum at s̄ certifies the 1−1/√2 maximum.

Apart from that polynomial's exact signs, everything here is float
mode. Two-outcome measurements are stored by their first effect;
Hermitian 2×2 matrices are handled in the Pauli parametrization
(t, x, y, z) ↦ t·I + x·σx + y·σy + z·σz, whose eigenvalues t ± ‖(x,y,z)‖
are closed-form.

The witness is read off the joint effect at that root by complementary
slackness, in closed form and with no search (`witness_q` has the
derivation). The family is evaluated in closed Pauli form as well: with
ρ^{1/2} = cI + d n̂·σ, the vector h(E)_a = Tr[E ρ^{1/2} σ_a ρ^{1/2}] is
2[(c²−d²)e + 2cd·e₀n̂ + 2d²(n̂·e)n̂] for E = e₀I + e·σ; the result is
re-checked by 2×2 matrix products.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bell import Box, chsh_witness
from .exact import TOL
from .polysimplex import PolySimplex

SQRT2 = math.sqrt(2.0)
QUBIT_MAX_ID = 1.0 - 1.0 / SQRT2

_I2 = np.eye(2, dtype=complex)

#: bracket width of the golden-section joint-effect search
_SEARCH_WIDTH = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
#: agreement required of the witness's closed form with the matrix
#: route, and of qubit_id's primal value with its dual bound: the
#: witness family is tight at the barycenter
_CROSS_CHECK_TOL = 1e-9
#: slack of the incompatibility bound at the Tsirelson box
_BOUND_TOL = 1e-6


class QubitEffect:
    """αI + a·σ with 0 ≤ effect ≤ I, i.e. ‖a‖ ≤ min(α, 1−α); α and a
    must be finite (every comparison with NaN is false)."""

    def __init__(self, alpha, bloch):
        self.alpha = float(alpha)
        self.bloch = np.asarray(bloch, dtype=float)
        if self.bloch.shape != (3,):
            raise ValueError("bloch part must be a 3-vector")
        r = float(np.linalg.norm(self.bloch))
        if not (math.isfinite(self.alpha) and math.isfinite(r)):
            raise ValueError("not an effect: α and the Bloch vector must be finite")
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
        return _pmat((self.alpha, *self.bloch))

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
    """Joint measurability of (A, I−A) and (B, I−B) by `_incompatibility`.
    Returns (bool, G matrix | None). G = g₀I + g·σ is a joint effect iff
    g₀ lies in [max(|g|, α+β−1+|g−a−b|), min(α−|g−a|, β−|g−b|)]; the
    width of that window is concave in g, and projecting g onto the
    plane spanned by a and b shortens all four distances, so nested
    golden-section searches maximize the width in that plane, and g₀ is
    the window's midpoint there. G, A−G, B−G and I−A−B+G are re-verified
    by their smallest eigenvalues; a failed check raises AssertionError."""
    if _incompatibility(A, B)[1] is not None:
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
                             "judged compatible")
    return True, _pmat(g)


def _sqrt_rho_terms(r):
    """c, d of ρ^{1/2} = cI + d n̂·σ for ρ = ½(I + r n̂·σ):
    c, d = ½(√((1+r)/2) ± √((1−r)/2))."""
    hi = ((1.0 + r) / 2.0) ** 0.5
    lo = ((1.0 - r) / 2.0) ** 0.5
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def _h(c, d, n, e0, e):
    """h(E)_a = Tr[E ρ^{1/2} σ_a ρ^{1/2}] for E = e₀I + e·σ, in closed
    form: h(E) = 2[(c²−d²)e + 2cd·e₀n̂ + 2d²(n̂·e)n̂], as three
    components."""
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
    ‖h₂‖. W(s̄) = ρ is a state for every point."""
    c, d = _sqrt_rho_terms(r)
    h1, h2 = (_h(c, d, n, e0, e) for e0, e in pair)
    n1 = math.sqrt(h1[0] * h1[0] + h1[1] * h1[1] + h1[2] * h1[2])
    n2 = math.sqrt(h2[0] * h2[0] + h2[1] * h2[1] + h2[2] * h2[2])
    u = (-h1[0] / n1, -h1[1] / n1, -h1[2] / n1) if n1 > 1e-15 else (0.0, 0.0, 1.0)
    v = (-h2[0] / n2, -h2[1] / n2, -h2[2] / n2) if n2 > 1e-15 else (1.0, 0.0, 0.0)
    return 1.0 - n1 - n2, u, v


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
        return _pmat((0.5, *(0.5 * self.r * np.asarray(self.direction))))

    def vertex_images(self):
        c, d = _sqrt_rho_terms(self.r)
        sq = _pmat((c, *(d * np.asarray(self.direction))))

        def sandwich(axis, sign):
            proj = _pmat((0.5, *(0.5 * sign * np.asarray(axis))))
            return 2.0 * (sq @ proj @ sq)

        return {(0, 0): sandwich(self.u, +1.0), (1, 1): sandwich(self.u, -1.0),
                (0, 1): sandwich(self.v, +1.0), (1, 0): sandwich(self.v, -1.0)}

    def check(self):
        """Check that each basis's two vertex images sum to 2ρ, and return
        the images, for a caller that pairs them next."""
        w = self.vertex_images()
        rho2 = 2.0 * self.rho()
        for pair in (((0, 0), (1, 1)), ((0, 1), (1, 0))):
            s = w[pair[0]] + w[pair[1]]
            if np.max(np.abs(s - rho2)) > TOL:
                raise AssertionError("vertex images do not sum to 2ρ")
        return w


def trace_pairing_qubit(A: QubitEffect, B: QubitEffect, w):
    """Tr FW over the square from the vertex images w of W (as
    `QubitWitnessParams.vertex_images` gives them): Σ_{i,j} ⟨f^i_j,
    W(top with n_i=j)⟩ − ⟨I, w_top⟩ with top = (1,1)."""
    a, b = A.matrix(), B.matrix()
    val = np.trace(a @ w[(0, 1)]) + np.trace((_I2 - a) @ w[(1, 1)])
    val = val + np.trace(b @ w[(1, 0)]) + np.trace((_I2 - b) @ w[(1, 1)])
    val = val - np.trace(w[(1, 1)])
    return float(val.real)


@dataclass
class QubitWitnessReport:
    q_hat: float
    params: QubitWitnessParams
    id_lower_bound: float


class _Poly(tuple):
    """A polynomial with int coefficients, lowest first, under + − ×."""

    def __add__(self, other):
        return _Poly(x + y for x, y in itertools.zip_longest(self, other, fillvalue=0))

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return _Poly(x * other for x in self)
        out = [0] * (len(self) + len(other) - 1)
        for i, x in enumerate(self):
            for j, y in enumerate(other):
                out[i + j] += x * y
        return _Poly(out)


def _critical_terms(one, alpha, beta, aa, ab, bb):
    """(2g₀, 2a·g, 2b·g) of the critical G = g₀I + g·σ of αI + a·σ,
    βI + b·σ (derived in `witness_q`), from one = 1 and the Gram entries
    |a|², a·b, |b|². Homogeneous, so floats, ints and `_Poly`s all fit."""
    rest = one - alpha - beta
    g0 = ab + ab + alpha * alpha + beta * beta - rest * rest
    return g0, one * (aa - alpha * alpha) + alpha * g0, one * (bb - beta * beta) + beta * g0


def _gram(A: QubitEffect, B: QubitEffect):
    """(D, α, β, |a|², a·b, |b|²) of A = αI + a·σ, B = βI + b·σ as exact
    ints, times D (twice the floats' common denominator) and D²."""
    ratios = [v.as_integer_ratio() for v in (A.alpha, *A.bloch, B.alpha, *B.bloch)]
    D = 2 * max(d for _, d in ratios)
    alpha, a1, a2, a3, beta, b1, b2, b3 = (n * (D // d) for n, d in ratios)
    return (D, alpha, beta, a1 * a1 + a2 * a2 + a3 * a3,
            a1 * b1 + a2 * b2 + a3 * b3, b1 * b1 + b2 * b2 + b3 * b3)


def _boundary(A: QubitEffect, B: QubitEffect):
    """Q on the smearing (1−λ)A + λI/2, (1−λ)B + λI/2: with s = 1 − λ,
    α′ = ½ + s(α − ½), a′ = s·a (β′, b′ likewise) and M₀ the Gram matrix
    of a and b, |g| = g₀ reads Q = |b|²(a′·g)² − 2(a·b)(a′·g)(b′·g) +
    |a|²(b′·g)² − s²·det M₀·g₀² = 0. Exact int coefficients in λ, lowest
    first, factors s divided out; [] if det M₀ = 0 (a ∥ b: they commute)."""
    D, alpha, beta, aa, ab, bb = _gram(A, B)
    det = aa * bb - ab * ab
    if det == 0:
        return []
    h, s2 = D // 2, _Poly((1, -2, 1))
    g0, ag, bg = _critical_terms(_Poly((D,)), _Poly((alpha, h - alpha)),
                                 _Poly((beta, h - beta)), s2 * aa, s2 * ab, s2 * bb)
    q = list(ag * ag * bb - ag * bg * (2 * ab) + bg * bg * aa - s2 * g0 * g0 * det)
    while q and sum(q) == 0:
        q = list(itertools.accumulate(q[:0:-1]))[::-1]
    return q


def _critical_elements(A: QubitEffect, B: QubitEffect):
    """Pauli terms (t, p) of G, A−G, B−G and I−A−B+G, the POVM elements
    of vertices (0,0), (0,1), (1,0) and (1,1), for the critical G of A, B
    by `_critical_terms` and the Gram system for g in span(a, b), on
    exact ints so that nearly parallel a, b lose no digits. None if a ∥ b
    or an element's least eigenvalue t − ‖p‖ is below −TOL."""
    D, alpha, beta, aa, ab, bb = _gram(A, B)
    det = 2 * D * (aa * bb - ab * ab)
    if det == 0:
        return None
    g0, ag, bg = _critical_terms(D, alpha, beta, aa, ab, bb)
    g0, a, b = g0 / (2 * D * D), A.bloch, B.bloch
    g = (ag * bb - bg * ab) / det * a + (bg * aa - ag * ab) / det * b
    elements = ((g0, g), (A.alpha - g0, a - g), (B.alpha - g0, b - g),
                (1.0 - A.alpha - B.alpha + g0, g - a - b))
    if min(t - np.linalg.norm(p) for t, p in elements) < -TOL:
        return None
    return elements


def _kernel_weights(elements):
    """(c, axes): vertex images w_n = c_n·½(I − p̂_n·σ) on the kernels of
    the four POVM elements (t_n, p_n) of `_critical_elements`, p̂_n in
    `axes`. c is the null vector of the affine condition
    c₀₀P₀₀ + c₁₁P₁₁ − c₀₁P₀₁ − c₁₀P₁₀ = 0 in Pauli components, scaled to
    Σ c_n = 4, so that Tr W(s̄) = ¼ Σ c_n = 1; None unless all positive."""
    axes = [p / np.linalg.norm(p) for _, p in elements]
    rows = [(sign, *(-sign * k)) for sign, k in zip((1.0, -1.0, -1.0, 1.0), axes)]
    c = np.linalg.svd(np.array(rows).T)[2][-1]
    if c.sum() < 0.0:
        c = -c
    if not c.min() > 0.0:
        return None
    return 4.0 * c / c.sum(), axes


def _sign(q, lam):
    """The exact sign of Q at the float λ = n/d: Σ q_k n^k d^(deg−k)."""
    n, d = lam.as_integer_ratio()
    acc, dk = 0, 1
    for c in reversed(q):
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _incompatibility(A: QubitEffect, B: QubitEffect):
    """(λ*, weights, evaluations) of the pair. Seeds are the real parts
    in (0, 1) of numpy's roots of `_boundary`. The least seed whose
    relative 2⁻⁴⁴ window holds an exact sign change of Q is bisected to
    two adjacent floats; λ* is the larger, the root's coexistent end. If
    `_kernel_weights` exist there, the pair is incompatible with
    ID_s̄ = λ*: that witness pairs with F to −λ*/(1−λ*) < 0, which no
    compatible pair allows. Else it is compatible: (0.0, None, …).
    evaluations counts the exact signs of Q taken."""
    q, evals = _boundary(A, B), 0
    scale = 1 << max(max((c.bit_length() for c in q), default=0) - 60, 0)
    roots = np.roots([c / scale for c in reversed(q)])
    for x in sorted(float(z.real) for z in roots if 0.0 < z.real < 1.0):
        lo, hi = x * (1.0 - 2.0 ** -44), min(x * (1.0 + 2.0 ** -44), 1.0)
        s_lo = _sign(q, lo)
        evals += 2
        if s_lo == _sign(q, hi):
            continue
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            evals += 1
            lo, hi = (mid, hi) if _sign(q, mid) == s_lo else (lo, mid)
        elements = _critical_elements(A.smear(hi), B.smear(hi))
        weights = elements and _kernel_weights(elements)
        return (hi, weights, evals) if weights else (0.0, None, evals)
    return 0.0, None, evals


def _witness(A: QubitEffect, B: QubitEffect, weights) -> QubitWitnessReport:
    """The witness family at ρ = W(s̄) of the complementary-slackness
    witness at the root's coexistent end: ρ = (c₀₀P₀₀ + c₁₁P₁₁)/(c₀₀ +
    c₁₁) from `_kernel_weights`, with the axes u, v that `_value` picks
    there. A compatible pair (weights None) takes ρ = I/2, and its value
    must not be negative. The result is re-checked by `params.check()`,
    and the trace pairing of the vertex images that it returns must give
    q̂ within _CROSS_CHECK_TOL; a failed check raises AssertionError."""
    r, n = 0.0, (0.0, 0.0, 1.0)
    if weights is not None:
        c, axes = weights
        x = -(c[0] * axes[0] + c[3] * axes[3]) / (c[0] + c[3])
        r = float(np.linalg.norm(x))
        if r > 0.0:
            n = tuple((x / r).tolist())
    val, u, v = _value(_pair_terms(A, B), r, n)
    if weights is None and val < -_CROSS_CHECK_TOL:
        raise AssertionError("a witness detects a pair judged compatible")
    params = QubitWitnessParams(r, n, u, v)
    w = params.check()
    if abs(trace_pairing_qubit(A, B, w) - val) > _CROSS_CHECK_TOL:
        raise AssertionError("closed-form witness value disagrees with the "
                             "matrix trace pairing")
    bound = -val / (1.0 - val) if val < 0.0 else 0.0
    return QubitWitnessReport(float(val), params, float(bound))


def witness_q(A: QubitEffect, B: QubitEffect) -> QubitWitnessReport:
    """q̂ = Tr FW of the witness that certifies the pair's ID_s̄, read off
    the joint effect at the root λ* of `_incompatibility`, by
    complementary slackness (Wolf, Perez-Garcia & Fernandez, PRL 103
    230402 (2009)).

    At λ* the smeared pair A′ = αI + a·σ, B′ = βI + b·σ is on the
    boundary of coexistence, and all four POVM elements of its joint
    effect G = g₀I + g·σ are singular: |g| = g₀, |g−a| = α−g₀,
    |g−b| = β−g₀ and |g−a−b| = 1−α−β+g₀. Subtracting the first squared
    equation from the other three leaves three linear equations,
    −2a·g = α² − 2αg₀ − |a|², −2b·g = β² − 2βg₀ − |b|² and
    −2(a+b)·g = (1−α−β)² + 2(1−α−β)g₀ − |a+b|². The third minus the
    first two eliminates g and gives g₀ = a·b + ½(α² + β² − (1−α−β)²);
    the first two then fix a·g and b·g (`_critical_terms`); |g| = g₀ is
    the polynomial of `_boundary`.

    A witness W with Tr F′W = 0 puts each vertex image w_n on the kernel
    of its element, and the affine condition w₀₀ + w₁₁ = w₀₁ + w₁₀ fixes
    their weights (`_kernel_weights`), hence ρ = W(s̄). Since F′ =
    (1−λ*)F + λ*·(coin toss), −q̂/(1−q̂) = λ* at that ρ; in general
    q̂ ≥ q_s̄(F), hence −q̂/(1−q̂) lower-bounds the incompatibility
    degree. `_witness` has the checks."""
    return _witness(A, B, _incompatibility(A, B)[1])


def holder_check(params: QubitWitnessParams):
    """½‖W(e⁰₀)‖₁ ≤ c and ½‖W(e¹₀)‖₁ ≤ d with c = √(1−|⟨x₀₁|x₁₁⟩|²),
    d = √(1−|⟨x₁₀|x₁₁⟩|²) and c² + d² = 1."""
    w = params.vertex_images()
    u, v = np.asarray(params.u), np.asarray(params.v)
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
    """ID_s̄ at the barycenter, the root λ* of `_incompatibility`, with
    the dual lower bound of the witness read off the joint effect at
    its coexistent end (derived in `witness_q`). The witness family is
    tight at the barycenter, so the two must agree within
    _CROSS_CHECK_TOL; a failed check raises AssertionError. iterations
    counts the exact signs of the boundary polynomial taken."""
    value, weights, evals = _incompatibility(A, B)
    wit = _witness(A, B, weights)
    if abs(value - wit.id_lower_bound) > _CROSS_CHECK_TOL:
        raise AssertionError("dual bound misses the root at the barycenter")
    return QubitIdReport(value, wit.q_hat, wit.id_lower_bound, wit.params, evals)


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
