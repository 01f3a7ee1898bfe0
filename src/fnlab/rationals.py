"""Exact rational scalars.

Everything in this package computes over the rationals; there is no floating
point anywhere.  The scalar type is gmpy2's mpq when available (much faster),
falling back to fractions.Fraction.  Both print as "num/den" and parse back.
"""

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

ONE = Q(1)


def rat_str(value) -> str:
    """Serialize a rational as a decimal string, "num/den" or "num"."""
    return str(value)


def factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out
