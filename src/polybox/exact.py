"""Exact rational scalars.

gmpy2.mpq is used when available; plain Fraction is the fallback so
the package still works without gmpy2. This is the only module that
imports either. The hot exact kernels do not add or multiply rationals:
the simplex in lp.py pivots on integers with one common denominator,
LP row coefficients are stored as integers from the moment they are
added (each row scaled by its coefficients' denominators only; the
rhs's denominators are cleared by one common factor on the tableau's
rhs column), and linalg's dot, combine, mat_vec and mat_mul sum
integer numerators over one denominator (`numerators` below). They
read `.numerator` and `.denominator` and build each result with
`rat(num, den)`, so they work on either backend. The scalar
type still matters where rationals are combined one at a time: the
elimination in linalg (rank, invert), vec_add/vec_sub/vec_scale,
validation sums and comparisons, and reading results back.
"""
from __future__ import annotations

import math
from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover
    _mpq = Fraction
    HAVE_GMPY2 = False

#: type of an exact rational scalar produced by :func:`rat`.
Rational = type(_mpq(0))

R0 = _mpq(0)
R1 = _mpq(1)

#: tolerance of every float-mode comparison (boxes, channels, qubit effects).
TOL = 1e-9


def rat(num, den=None):
    """Coerce to an exact rational. Strings accept 'p/q' and decimals;
    a malformed string or a zero denominator is a ValueError.

    Non-integral floats are rejected on purpose: silently converting a
    binary float to an exact rational is almost never what a caller of
    the exact layer wants.
    """
    if den is not None:
        return _mpq(num, den)
    if isinstance(num, Rational):
        return num
    if isinstance(num, (int, Fraction)):
        return _mpq(num)
    if isinstance(num, str):
        try:
            return _mpq(Fraction(num))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {num!r}") from None
    if isinstance(num, float):
        if not num.is_integer():
            raise TypeError(f"refusing to coerce non-integral float {num!r}")
        return _mpq(int(num))
    raise TypeError(f"cannot make a rational from {type(num).__name__}")


def numerators(xs):
    """(nums, den) with xs[t] == nums[t] / den for every t: den is the
    LCM of the entries' denominators and nums are integers. xs is a
    sequence of rationals or ints."""
    dens = [x.denominator for x in xs]
    den = math.lcm(*dens)
    if den == 1:
        return [x.numerator for x in xs], 1
    return [x.numerator * (den // d) for x, d in zip(xs, dens)], den


def is_rational(x) -> bool:
    return isinstance(x, (Rational, int, Fraction))


def format_rat(q) -> str:
    """Render as 'p' or 'p/q' (JSON-friendly exact form)."""
    q = rat(q)
    f = Fraction(q.numerator, q.denominator)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def approx_eq(a, b) -> bool:
    """Relative-absolute comparison |a−b| ≤ TOL·(1+|a|+|b|)."""
    a = float(a)
    b = float(b)
    return abs(a - b) <= TOL * (1.0 + abs(a) + abs(b))


def scalars(values):
    """(values, exact): the values as rationals when every one is
    rational, else all as floats, and whether they are exact. The one
    rule by which boxes, stochastic matrices and Choi diagonals pick
    their mode."""
    values = tuple(values)
    exact = all(is_rational(v) for v in values)
    return tuple(rat(v) if exact else float(v) for v in values), exact


def nonneg(v) -> bool:
    """v ≥ 0 for a rational, v ≥ −TOL for a float."""
    return v >= 0 if is_rational(v) else v >= -TOL


def same(a, b) -> bool:
    """a == b for two rationals, else approx_eq."""
    if is_rational(a) and is_rational(b):
        return a == b
    return approx_eq(a, b)
