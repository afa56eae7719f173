"""Fractions over F_q(t) with denominators tracked as products of l_d powers.

Every monic polynomial a of degree d divides

    l_d := prod_{i=1}^{d} (t^{q^i} - t),

because a prime w of degree e appears in a with multiplicity at most
floor(d/e), which is exactly its multiplicity in l_d.  Consequently every
degree-d power sum over monics, and every product/sum of such, has a
denominator of the form prod_d l_d^{e_d}.  Tracking the exponent vector
instead of an explicit denominator removes gcd computations from the exact
evaluation hot path entirely; a single normalization happens only when a
value is exported as a canonical RationalFn.
"""

from __future__ import annotations

from functools import cache

from .fields import FieldSpec
from .poly import Poly
from .ratfn import RationalFn


@cache
def l_poly(spec: FieldSpec, d: int) -> Poly:
    """l_d = prod_{i<=d} (t^{q^i} - t); l_0 = 1."""
    if d == 0:
        return Poly.one(spec)
    t = Poly.t(spec)
    factor = t.shift(spec.q ** d - 1) - t  # t^(q^d) - t
    return l_poly(spec, d - 1) * factor


@cache
def l_power(spec: FieldSpec, d: int, e: int) -> Poly:
    """l_d^e."""
    return l_poly(spec, d) ** e


class LFrac:
    """num / prod_d l_d^exps[d-1]; exps has no trailing zeros and is () on zero."""

    __slots__ = ("spec", "num", "exps")

    def __init__(self, spec: FieldSpec, num: Poly, exps: tuple[int, ...]):
        if num.is_zero():
            exps = ()
        else:
            while exps and exps[-1] == 0:
                exps = exps[:-1]
        self.spec = spec
        self.num = num
        self.exps = exps

    @classmethod
    def zero(cls, spec: FieldSpec) -> "LFrac":
        return cls(spec, Poly.zero(spec), ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "LFrac":
        return cls(spec, Poly.one(spec), ())

    @classmethod
    def from_poly(cls, x: Poly) -> "LFrac":
        return cls(x.spec, x, ())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _cofactor(self, target: tuple[int, ...]) -> Poly:
        out = Poly.one(self.spec)
        for d, e in enumerate(target, start=1):
            have = self.exps[d - 1] if d - 1 < len(self.exps) else 0
            if e > have:
                out = out * l_power(self.spec, d, e - have)
        return out

    def __add__(self, other: "LFrac") -> "LFrac":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        n = max(len(self.exps), len(other.exps))
        target = tuple(max(self.exps[i] if i < len(self.exps) else 0,
                           other.exps[i] if i < len(other.exps) else 0)
                       for i in range(n))
        a = self.num if self.exps == target else self.num * self._cofactor(target)
        b = other.num if other.exps == target else other.num * other._cofactor(target)
        return LFrac(self.spec, a + b, target)

    def __neg__(self) -> "LFrac":
        return LFrac(self.spec, -self.num, self.exps)

    def __mul__(self, other: "LFrac") -> "LFrac":
        if self.is_zero() or other.is_zero():
            return LFrac.zero(self.spec)
        n = max(len(self.exps), len(other.exps))
        exps = tuple((self.exps[i] if i < len(self.exps) else 0)
                     + (other.exps[i] if i < len(other.exps) else 0)
                     for i in range(n))
        return LFrac(self.spec, self.num * other.num, exps)

    def scale(self, a: int) -> "LFrac":
        """Multiply by the F_q element with index a."""
        return LFrac(self.spec, self.num.scale(a), self.exps)

    def to_ratfn(self) -> RationalFn:
        den = Poly.one(self.spec)
        for d, e in enumerate(self.exps, start=1):
            if e:
                den = den * l_power(self.spec, d, e)
        return RationalFn(self.num, den)
