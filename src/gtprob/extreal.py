"""Exact extended-real arithmetic.

A value is either an exact rational (:class:`fractions.Fraction`) or one of
the two infinities.  Two conventions make the operations the package needs
total:

* ``inf + (-inf) = inf``: a positive infinity dominates any sum, and
* ``0 * x = 0`` for every ``x``, including the infinities.

Under these conventions addition is commutative and associative on the
whole domain, so multi-term sums are well defined regardless of
bracketing.  Subtraction is sugar for adding a negation, hence
``inf - inf = inf``.

Multiplication is deliberately narrow: only :func:`scale` by a finite
nonnegative rational is provided, because that is the only product the
rest of the package uses (convex weights and positive scaling).  Negation
is a separate total operation with ``-(inf) = -inf``.

The order is total: ``-inf`` below every rational, ``inf`` above.  Nothing
here rounds, and there is no floating-point mode.

Serialized form: ``"p/q"`` in lowest terms (plain ``"p"`` when q is 1),
``"inf"``, ``"-inf"``.  :func:`ext` parses it back bit-exactly.

Sweeps cross into integer numerators (:func:`_numerators`) at every node, so that boundary reads
``Fraction``'s ``_numerator`` and ``_denominator`` slots (CPython 3.10 to 3.13), not its properties.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = ["ExtReal", "ext", "scale", "INF", "NEG_INF", "ZERO", "ONE"]

_PInf = float("inf")
_NInf = float("-inf")


class ExtReal:
    """An exact rational or one of the symbols ``inf`` / ``-inf``."""

    __slots__ = ("_v",)

    def __init__(self, value: Fraction | float):
        # Internal: use ext() to construct from user input.
        self._v = value

    # -- predicates and access ----------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._v.__class__ is not float

    @property
    def is_pos_inf(self) -> bool:
        v = self._v
        return v.__class__ is float and v > 0

    @property
    def is_neg_inf(self) -> bool:
        v = self._v
        return v.__class__ is float and v < 0

    @property
    def finite(self) -> Fraction:
        """The underlying rational; raises on the infinities."""
        if not isinstance(self._v, Fraction):
            raise ValueError(f"{self} is not finite")
        return self._v

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "ExtReal") -> "ExtReal":
        if not isinstance(other, ExtReal):
            return NotImplemented
        a, b = self._v, other._v
        # Positive infinity dominates; this includes inf + (-inf) = inf.
        # Type checks first: comparing Fraction against a float infinity
        # takes CPython's slow cross-type path.
        if a.__class__ is float or b.__class__ is float:
            if (a.__class__ is float and a > 0) or (b.__class__ is float and b > 0):
                return INF
            return NEG_INF
        return ExtReal(a + b)

    def __neg__(self) -> "ExtReal":
        v = self._v
        if v.__class__ is float:
            return NEG_INF if v > 0 else INF
        return ExtReal(-v)

    def __sub__(self, other: "ExtReal") -> "ExtReal":
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self + (-other)

    # -- order ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self._v == other._v

    def __hash__(self) -> int:
        return hash(self._v)

    def __lt__(self, other: "ExtReal") -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self._v < other._v

    def __le__(self, other: "ExtReal") -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self._v <= other._v

    # Python reflects a > b to b < a and a >= b to b <= a; an int operand still raises TypeError.

    # -- formatting ------------------------------------------------------

    def __str__(self) -> str:
        v = self._v
        if v.__class__ is float:
            return "inf" if v > 0 else "-inf"
        return str(v)

    def __repr__(self) -> str:
        return f"ExtReal({str(self)!r})"


def ext(x: ExtReal | Fraction | int | str) -> ExtReal:
    """Coerce an int, Fraction, or serialized string to an ExtReal."""
    if isinstance(x, ExtReal):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a valid extended real")
    if isinstance(x, (int, Fraction)):
        return ExtReal(Fraction(x))
    if isinstance(x, str):
        s = x.strip()
        if s == "inf":
            return INF
        if s == "-inf":
            return NEG_INF
        return ExtReal(Fraction(s))
    if isinstance(x, float):
        if x == _PInf:
            return INF
        if x == _NInf:
            return NEG_INF
        raise TypeError(
            "finite floats are rejected to keep arithmetic exact; pass a Fraction or string"
        )
    raise TypeError(f"cannot interpret {x!r} as an extended real")


def scale(c: Fraction | int, a: ExtReal) -> ExtReal:
    """``c * a`` for a finite rational ``c >= 0``.

    ``0 * a = 0`` for every ``a`` including the infinities; positive ``c``
    preserves infinities.  Negative or infinite multipliers are not part of
    the arithmetic and raise.
    """
    c = Fraction(c)
    if c < 0:
        raise ValueError("scale only accepts nonnegative finite multipliers")
    if c == 0:
        return ZERO
    if a.is_pos_inf:
        return INF
    if a.is_neg_inf:
        return NEG_INF
    return ExtReal(c * a.finite)


INF = ExtReal(_PInf)
NEG_INF = ExtReal(_NInf)
ZERO = ExtReal(Fraction(0))
ONE = ExtReal(Fraction(1))


# -- levels of numerators over one denominator; infinities stay floats ----


def _numerators(values: list[ExtReal]) -> tuple[list, int]:
    """Numerators over the least common denominator; infinities stay.

    Every finite ``_v`` is a ``Fraction``; its slots are read, since its
    properties cost a Python call per value."""
    raw = [v._v for v in values]
    den = lcm(*{r._denominator for r in raw if r.__class__ is not float})
    if den == 1:
        return [r if r.__class__ is float else r._numerator for r in raw], den
    return [r if r.__class__ is float else r._numerator * (den // r._denominator) for r in raw], den


def _read_out(nums: list, den: int) -> list[ExtReal]:
    """One ExtReal per distinct numerator, shared by the nodes holding it."""
    memo = {
        n: (INF if n > 0 else NEG_INF) if n.__class__ is float else ExtReal(Fraction(n, den))
        for n in set(nums)
    }
    return list(map(memo.__getitem__, nums))


def _over(levels: list[tuple[list, int]]) -> tuple[list[list], int]:
    """Levels of numerators, each over its own denominator, put over
    their least common one."""
    den = lcm(*(d for _, d in levels))
    return [
        nums if d == den else [n if n.__class__ is float else n * (den // d) for n in nums]
        for nums, d in levels
    ], den
