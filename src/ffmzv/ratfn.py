"""Rational functions over F_q(t) in canonical form.

Canonical form: gcd(num, den) = 1 and den monic, so equality is plain
representational equality.
"""

from __future__ import annotations

from .errors import DivisionByZero
from .fields import FieldSpec
from .poly import Poly, poly_gcd


class RationalFn:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        """Normalize num/den; raises DivisionByZero when den == 0."""
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            den = Poly.one(num.spec)
        else:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.lead_index()
            if lead != 1:
                inv = den.spec.inv(lead)
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    @property
    def spec(self) -> FieldSpec:
        return self.num.spec

    @classmethod
    def zero(cls, spec: FieldSpec) -> "RationalFn":
        return cls(Poly.zero(spec), Poly.one(spec))

    @classmethod
    def one(cls, spec: FieldSpec) -> "RationalFn":
        return cls(Poly.one(spec), Poly.one(spec))

    @classmethod
    def from_poly(cls, x: Poly) -> "RationalFn":
        return cls(x, Poly.one(x.spec))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.den - other.num * self.den,
                          self.den * other.den)

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def inv(self) -> "RationalFn":
        if self.is_zero():
            raise DivisionByZero("inverse of zero rational function")
        return RationalFn(self.den, self.num)

    def __pow__(self, e: int) -> "RationalFn":
        if e < 0:
            return self.inv() ** (-e)
        return RationalFn(self.num ** e, self.den ** e)

    def __str__(self):
        if self.den.degree() == 0:
            return str(self.num)
        num = str(self.num)
        if "+" in num:
            num = f"({num})"
        den = str(self.den)
        if "+" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RationalFn({str(self)!r})"
