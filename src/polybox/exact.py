"""Exact rational scalars.

gmpy2.mpq is used when available; plain Fraction is the fallback so
the package still works without gmpy2. The simplex in lp.py pivots on
Python integers with one common denominator, so the scalar type
matters only where its results are read back and everywhere outside the
simplex (building LPs, exact linear algebra, certificate checks).
"""
from __future__ import annotations

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

#: default tolerance for float-mode comparisons (qubit module, Choi floats).
TOL = 1e-9


def rat(num, den=None):
    """Coerce to an exact rational. Strings accept 'p/q' and decimals.

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
        return _mpq(Fraction(num))
    if isinstance(num, float):
        if not num.is_integer():
            raise TypeError(f"refusing to coerce non-integral float {num!r}")
        return _mpq(int(num))
    raise TypeError(f"cannot make a rational from {type(num).__name__}")


def is_rational(x) -> bool:
    return isinstance(x, (Rational, int, Fraction))


def format_rat(q) -> str:
    """Render as 'p' or 'p/q' (JSON-friendly exact form)."""
    q = rat(q)
    f = Fraction(q.numerator, q.denominator)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def approx_eq(a, b, tol=TOL) -> bool:
    """Relative-absolute comparison |a−b| ≤ tol·(1+|a|+|b|)."""
    a = float(a)
    b = float(b)
    return abs(a - b) <= tol * (1.0 + abs(a) + abs(b))
