"""Exact rational numbers and their textual forms.

`fractions.Fraction` is the boundary type: every value a caller passes in
or gets back -- capacities, susceptances, LP coefficients, optima and
solutions -- is one, arbitrary precision, always in lowest terms, exact
in comparison.  The two hot kernels work on integers instead: the LP
(`lp`) scales each row by the LCM of its denominators and the classical
max flow (`maxflow`) scales all capacities by theirs, and both convert
back to the same exact `Fraction`s at the end.  No floating point enters
any solver path; floats are rejected at the parsing boundary so a lossy
value can never masquerade as an exact one.

`rat` reads a string in one pass: one regular expression splits it into
sign, whole digits, denominator or fractional digits, the `int`s are
built from those groups, and `Fraction` is called once on them.  It asks
whether a value is a `str` or an `int` before it asks whether it is a
`Fraction`, since that last test goes through the ABC machinery of
`numbers` for any other type.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# an optional sign, then ASCII digits with either "/q" or one decimal point;
# the groups are the sign, the whole digits, the denominator and the fraction
_RATIONAL = re.compile(r"([+-]?)(?=\.?[0-9])([0-9]*)(?:/([0-9]+)|\.([0-9]*))?")


def rat(value: int | str | Fraction) -> Fraction:
    """Parse a rational from an int, a Fraction, or a string; a float or a bool is refused.

    Accepted strings, after surrounding whitespace is stripped: an
    optional sign, then ASCII digits with either "/q" ("7/3", "-3") or one
    decimal point ("6.1", which parses exactly to 61/10).  Anything else
    raises ValueError: a zero denominator ("1/0"), and also the exponents
    ("1e9999999" would take minutes to expand), underscores and
    non-ASCII digits that `Fraction` itself would accept.

    A string is matched once; its whole and fractional digits are
    converted to `int` separately, as `Fraction` does, so a part longer
    than Python's limit on integer string conversion raises that
    ValueError just as `Fraction(text)` would.
    """
    if isinstance(value, str):
        m = _RATIONAL.fullmatch(value.strip())
        if m is None:
            raise ValueError(f"not a rational: {value!r} (expected p/q, an integer or a decimal)")
        sign, whole, den, frac = m.groups()
        num, d = int(whole or "0"), 1
        if den is not None:
            d = int(den)
            if not d:
                raise ValueError(f"zero denominator in {value!r}")
        elif frac:
            d = 10 ** len(frac)
            num = num * d + int(frac)
        if sign == "-":
            num = -num
        return Fraction(num, d) if d != 1 else Fraction(num)  # one argument skips the gcd
    if isinstance(value, int) and type(value) is not bool:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing {type(value).__name__} {value!r}: pass an int or a string")
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(r: Fraction) -> str:
    """Canonical compact form: "p/q", or just "p" for integers."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def _twos_fives(d: int) -> tuple[int, int, int]:
    """(a, b, m) with d = 2^a * 5^b * m and m prime to 10."""
    a = b = 0
    while d % 2 == 0:
        d, a = d // 2, a + 1
    while d % 5 == 0:
        d, b = d // 5, b + 1
    return a, b, d


def is_decimal_exact(r: Fraction) -> bool:
    """True when r has a finite decimal expansion (denominator is 2^a * 5^b)."""
    return _twos_fives(r.denominator)[2] == 1


# digits after the point of a decimal rendering that has no finite exact one
DECIMAL_PLACES = 12


def decimal_str(r: Fraction) -> str:
    """Decimal rendering; exact when possible, else truncated to `DECIMAL_PLACES` digits."""
    if r.denominator == 1:
        return str(r.numerator)
    sign = "-" if r < 0 else ""
    a = abs(r)
    twos, fives, rest = _twos_fives(a.denominator)
    # exact: the least k with den | 10^k, so the last digit is not 0
    k = max(twos, fives) if rest == 1 else DECIMAL_PLACES
    digits = str(a.numerator * 10**k // a.denominator).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def format_value(r: Fraction) -> str:
    """Human-facing rendering: "3", "61/10 (= 6.1)" or "1/3 (~ 0.333...)"."""
    s = rat_str(r)
    if r.denominator == 1:
        return s
    if is_decimal_exact(r):
        return f"{s} (= {decimal_str(r)})"
    return f"{s} (~ {decimal_str(r)})"
