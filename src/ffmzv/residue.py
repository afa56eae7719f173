"""Residue-ring arithmetic in A/(v^N) for a monic prime v, at fixed precision N.

A ResidueRing holds v, N and v^N, once per (v, N); each element holds its
ring and a reduced representative.  Combining elements of different rings
is a hard error, never a silent coercion.

Reduction.  With m = N*deg(v), a product of two representatives has degree
at most 2m - 2.  Each ring builds one reducer (``poly.window_reducer``)
when it is made: the coefficients m .. 2m-2 are cut into windows of k
coefficients, the largest k <= m - 1 with q^k <= 256, and each window gets
a table of t^s (c_0 + ... + c_(k-1) t^(k-1)) mod v^N for its offset s, as
packed integers.  A product is reduced by adding one table entry per window
to its low m coefficients and reducing the slots mod p once, so ``*`` and
``image`` (up to degree 2m - 2) do no division.  Tables that are all zero
are dropped: at v = t the reduction is a slice of the bytes.  Larger
images, valuations and the inverse (extended Euclid against v^N) still
divide.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import InvalidPrime, MixedModulus, NotInvertible
from .fields import FieldSpec
from .poly import Poly, is_irreducible, poly_ext_gcd, window_reducer
from .ratfn import RationalFn


@dataclass(frozen=True)
class AtLeast:
    """Valuation lower bound: all that a zero representative mod v^N certifies."""
    n: int

    def __str__(self):
        return f">={self.n}"


PLUS_INFINITY = AtLeast(10 ** 9)  # valuation of an exactly-zero rational function


def _poly_valuation(g: Poly, v: Poly) -> int:
    """The exponent of v in a nonzero polynomial g."""
    val = 0
    while True:
        q, rem = divmod(g, v)
        if not rem.is_zero():
            return val
        val += 1
        g = q


def _check_prime(v: Poly):
    if not v.is_monic() or not is_irreducible(v):
        raise InvalidPrime(f"{v} is not a monic irreducible polynomial")


def poly_inv_mod(a: Poly, v: Poly, N: int) -> Poly:
    """Inverse of a modulo v^N; requires gcd(a, v) = 1."""
    return ResidueRing(v, N).image(a).inv().rep


class ResidueRing:
    """A/(v^N) for a monic prime v and precision N >= 1, speaking the
    zero/one/add/neg/mul/scale ring protocol.

    There is one instance per (v, N): the first call checks v and computes
    v^N, later calls return the same ring, so elements compare rings by
    identity."""

    _rings: dict[tuple[Poly, int], "ResidueRing"] = {}
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def __new__(cls, v: Poly, N: int):
        ring = cls._rings.get((v, N))
        if ring is None:
            _check_prime(v)
            if N < 1:
                raise ValueError("precision must be >= 1")
            ring = super().__new__(cls)
            ring.v, ring.N, ring.modulus = v, N, v ** N
            ring.reduce = window_reducer(ring.modulus)
            ring._zero = ResidueElem(ring, Poly.zero(v.spec))
            ring._one = ResidueElem(ring, Poly.one(v.spec))
            # a ring stored meanwhile by another thread wins
            ring = cls._rings.setdefault((v, N), ring)
        return ring

    def zero(self) -> "ResidueElem":
        return self._zero

    def one(self) -> "ResidueElem":
        return self._one

    @staticmethod
    def scale(a: "ResidueElem", c: int) -> "ResidueElem":
        """Multiply by the F_q element with index c."""
        return ResidueElem(a.ring, a.rep.scale(c))

    def image(self, x: Poly) -> "ResidueElem":
        """The image of a polynomial."""
        return ResidueElem(self, self.reduce(x))

    def from_ratfn(self, x: RationalFn) -> "ResidueElem":
        """The image of a rational function whose denominator is prime to v."""
        return self.image(x.num) * self.image(x.den).inv()


class ResidueElem:
    """Element of a ResidueRing, with rep reduced mod v^N."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: ResidueRing, rep: Poly):
        self.ring = ring
        self.rep = rep

    @property
    def v(self) -> Poly:
        return self.ring.v

    @property
    def N(self) -> int:
        return self.ring.N

    @property
    def spec(self) -> FieldSpec:
        return self.ring.v.spec

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def _join(self, other: "ResidueElem"):
        if self.ring is not other.ring:
            raise MixedModulus(
                f"incompatible moduli ({self.v})^{self.N} vs ({other.v})^{other.N}")

    def __add__(self, other: "ResidueElem") -> "ResidueElem":
        self._join(other)
        return ResidueElem(self.ring, self.rep + other.rep)

    def __sub__(self, other: "ResidueElem") -> "ResidueElem":
        self._join(other)
        return ResidueElem(self.ring, self.rep - other.rep)

    def __neg__(self) -> "ResidueElem":
        return ResidueElem(self.ring, -self.rep)

    def __mul__(self, other: "ResidueElem") -> "ResidueElem":
        self._join(other)
        return ResidueElem(self.ring, self.ring.reduce(self.rep * other.rep))

    def inv(self) -> "ResidueElem":
        g, u, _ = poly_ext_gcd(self.rep, self.ring.modulus)
        if g.degree() != 0:
            raise NotInvertible(f"{self.rep} is not invertible mod ({self.v})^{self.N}")
        return self.ring.image(u)

    def __pow__(self, e: int) -> "ResidueElem":
        base = self.inv() if e < 0 else self
        e = abs(e)
        out = None  # the ring's one, never multiplied in
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return self.ring.one() if out is None else out

    def scale_int(self, c: int) -> "ResidueElem":
        return ResidueElem(self.ring, self.rep.scale(self.spec.from_int(c)))

    def reduce_precision(self, M: int) -> "ResidueElem":
        """The image in A/(v^M) for M <= N."""
        if M > self.N:
            raise ValueError("cannot raise precision")
        return ResidueRing(self.v, M).image(self.rep)

    def valuation(self) -> int | AtLeast:
        if self.rep.is_zero():
            return AtLeast(self.N)
        return _poly_valuation(self.rep, self.v)

    def __eq__(self, other):
        if not isinstance(other, ResidueElem):
            return NotImplemented
        return self.ring is other.ring and self.rep == other.rep

    def __hash__(self):
        return hash((self.v, self.N, self.rep))

    def __str__(self):
        return f"{self.rep} mod ({self.v})^{self.N}"

    def __repr__(self):
        return f"ResidueElem({str(self)!r})"


def v_valuation(x: RationalFn | ResidueElem, v: Poly) -> int | AtLeast:
    """v-adic valuation.

    Exact for rational functions (PLUS_INFINITY marker on zero); for residue
    elements it is exact on nonzero representatives and AtLeast(N) otherwise.
    """
    _check_prime(v)
    if isinstance(x, ResidueElem):
        if x.v != v:
            raise MixedModulus("valuation at a prime different from the carrier's")
        return x.valuation()
    if x.is_zero():
        return PLUS_INFINITY
    return _poly_valuation(x.num, v) - _poly_valuation(x.den, v)
