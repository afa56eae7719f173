"""Residue-ring arithmetic in A/(v^N) for a monic prime v, at fixed precision N.

Elements carry their modulus inline; combining elements with different (v, N)
is a hard error, never a silent coercion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidPrime, MixedModulus, NotInvertible
from .fields import FieldSpec
from .poly import Poly, is_irreducible, poly_ext_gcd
from .ratfn import RationalFn


@dataclass(frozen=True)
class AtLeast:
    """Valuation lower bound: all that a zero representative mod v^N certifies."""
    n: int

    def __str__(self):
        return f">={self.n}"


PLUS_INFINITY = AtLeast(10 ** 9)  # valuation of an exactly-zero rational function


def _check_prime(v: Poly):
    if not v.is_monic() or not is_irreducible(v):
        raise InvalidPrime(f"{v} is not a monic irreducible polynomial")


def poly_inv_mod(a: Poly, v: Poly, N: int) -> Poly:
    """Inverse of a modulo v^N; requires gcd(a, v) = 1."""
    _check_prime(v)
    if N < 1:
        raise ValueError("precision must be >= 1")
    mod = v ** N
    a = a % mod
    g, u, _ = poly_ext_gcd(a, mod)
    if g.degree() != 0:
        raise NotInvertible(f"{a} is divisible by {v}")
    return u % mod


class ResidueElem:
    """Element of A/(v^N), with rep reduced mod v^N."""

    __slots__ = ("v", "N", "rep", "_modulus")

    def __init__(self, v: Poly, N: int, rep: Poly, _check: bool = True,
                 _modulus: Poly | None = None):
        if _check:
            _check_prime(v)
            if N < 1:
                raise ValueError("precision must be >= 1")
        self.v = v
        self.N = N
        self._modulus = _modulus if _modulus is not None else v ** N
        self.rep = rep % self._modulus if _check else rep

    @property
    def spec(self) -> FieldSpec:
        return self.v.spec

    @classmethod
    def from_poly(cls, x: Poly, v: Poly, N: int) -> "ResidueElem":
        return cls(v, N, x)

    @classmethod
    def zero(cls, v: Poly, N: int) -> "ResidueElem":
        return cls(v, N, Poly.zero(v.spec))

    @classmethod
    def one(cls, v: Poly, N: int) -> "ResidueElem":
        return cls(v, N, Poly.one(v.spec))

    @classmethod
    def from_ratfn(cls, x: RationalFn, v: Poly, N: int) -> "ResidueElem":
        """Reduce a rational function mod v^N; denominator must be coprime to v."""
        num = cls(v, N, x.num)
        den_inv = poly_inv_mod(x.den, v, N)
        return num * cls(v, N, den_inv)

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def _join(self, other: "ResidueElem"):
        if self.v != other.v or self.N != other.N:
            raise MixedModulus(
                f"incompatible moduli ({self.v})^{self.N} vs ({other.v})^{other.N}")

    def _wrap(self, rep: Poly) -> "ResidueElem":
        """Same modulus; rep must already have degree < deg(v^N)."""
        return ResidueElem(self.v, self.N, rep, _check=False,
                           _modulus=self._modulus)

    def image(self, x: Poly) -> "ResidueElem":
        """The image of x in this element's ring, without re-checking v."""
        return self._wrap(x % self._modulus)

    def __add__(self, other: "ResidueElem") -> "ResidueElem":
        self._join(other)
        return self._wrap(self.rep + other.rep)

    def __sub__(self, other: "ResidueElem") -> "ResidueElem":
        self._join(other)
        return self._wrap(self.rep - other.rep)

    def __neg__(self) -> "ResidueElem":
        return self._wrap(-self.rep)

    def __mul__(self, other: "ResidueElem") -> "ResidueElem":
        self._join(other)
        return self._wrap(self.rep * other.rep % self._modulus)

    def inv(self) -> "ResidueElem":
        g, u, _ = poly_ext_gcd(self.rep, self._modulus)
        if g.degree() != 0:
            raise NotInvertible(f"{self.rep} is not invertible mod ({self.v})^{self.N}")
        return self._wrap(u % self._modulus)

    def __pow__(self, e: int) -> "ResidueElem":
        base = self.inv() if e < 0 else self
        e = abs(e)
        out = ResidueElem(self.v, self.N, Poly.one(self.spec),
                          _check=False, _modulus=self._modulus)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def scale_int(self, c: int) -> "ResidueElem":
        return self._wrap(self.rep.scale(self.spec.from_int(c)))

    def reduce_precision(self, M: int) -> "ResidueElem":
        """The image in A/(v^M) for M <= N."""
        if M > self.N:
            raise ValueError("cannot raise precision")
        return ResidueElem(self.v, M, self.rep)

    def valuation(self) -> int | AtLeast:
        if self.rep.is_zero():
            return AtLeast(self.N)
        val, r = 0, self.rep
        while True:
            q, rem = divmod(r, self.v)
            if not rem.is_zero():
                return val
            val += 1
            r = q

    def __eq__(self, other):
        if not isinstance(other, ResidueElem):
            return NotImplemented
        return self.v == other.v and self.N == other.N and self.rep == other.rep

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

    def pval(g: Poly) -> int:
        val = 0
        while True:
            q, rem = divmod(g, v)
            if not rem.is_zero():
                return val
            val += 1
            g = q

    num_val = 0 if x.num.degree() == 0 else pval(x.num)
    den_val = 0 if x.den.degree() == 0 else pval(x.den)
    return num_val - den_val
