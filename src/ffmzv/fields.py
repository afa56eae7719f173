"""Table-driven arithmetic for the finite field F_q with q = p^f.

Field elements are represented as plain integers in [0, q): the element with
coordinate vector (c_0, ..., c_{f-1}) on the power basis of the generator is
encoded as sum(c_i * p^i).  FieldSpec owns the modulus and the operation
tables; all element-level functions take the index representation.

The tables are built on the one polynomial kernel, ``poly.Poly`` over the
prime field: the default modulus is the first monic irreducible in
``monic_polys`` order, an extension product is a product of coordinate
polynomials reduced mod the modulus, and ``x_power_coords`` reads off
x^j mod the modulus.  A prime field multiplies as ``a * b % p``.  There
is one FieldSpec per field, and each of its tables (add, neg, mul, inv,
the x powers) is built once, on first use.
"""

from __future__ import annotations

import operator
from functools import cached_property

from .errors import DivisionByZero, InvalidFieldSpec, ParseError
from .poly import (Poly, _parse_sum, _prime_coeff, _sum_str,
                   irreducible_polys, is_irreducible, parse_int)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _split_prime_power(q: int) -> tuple[int, int]:
    """Return (p, f) with q = p^f, p prime."""
    for p in range(2, q + 1):
        if not is_prime(p):
            continue
        f = 0
        m = q
        while m % p == 0:
            m //= p
            f += 1
        if m == 1 and f >= 1:
            return p, f
    raise InvalidFieldSpec(f"{q} is not a prime power")


class FieldSpec:
    """Description of F_q on a fixed polynomial basis over F_p.

    Construction checks that p is prime and that the modulus is a monic
    irreducible of degree f over F_p (ignored when f == 1).  There is one
    instance per (p, f, modulus reduced mod p): later calls return the same
    object, so fields compare by identity and each builds its tables once.
    """

    _fields: dict[tuple, "FieldSpec"] = {}

    def __new__(cls, p: int, f: int = 1, modulus: list | tuple | None = None):
        if not is_prime(p):
            raise InvalidFieldSpec(f"characteristic {p} is not prime")
        if f < 1:
            raise InvalidFieldSpec("extension degree must be >= 1")
        if f == 1:
            modulus = (0, 1)  # placeholder, never used
        elif modulus is None:
            # the first in monic_polys order: constant term least significant
            modulus = next(irreducible_polys(cls(p), f)).coeff_indices()
        key = (p, f, tuple(c % p for c in modulus))
        spec = cls._fields.get(key)
        if spec is None:
            modulus = key[2]
            if f > 1 and (len(modulus) != f + 1 or modulus[-1] != 1):
                raise InvalidFieldSpec("modulus must be monic of degree f")
            if f > 1 and not is_irreducible(Poly.from_indices(cls(p), modulus)):
                raise InvalidFieldSpec("modulus is not irreducible over F_p")
            spec = super().__new__(cls)
            spec.p, spec.f, spec.q, spec.modulus = p, f, p ** f, modulus
            # a field stored meanwhile by another thread wins
            spec = cls._fields.setdefault(key, spec)
        return spec

    def __repr__(self):
        return f"FieldSpec(q={self.q})" if self.f == 1 else \
            f"FieldSpec(q={self.q}, modulus={self.modulus_string()})"

    # -- parsing / printing --------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse a field-spec string such as "q=9;modulus=x^2+1" or "q=3":
        q once, and a modulus at most once, for an extension field only."""
        keys: dict[str, str] = {}
        for part in text.split(";"):
            if not part.strip():
                continue
            key, eq, val = (s.strip() for s in part.partition("="))
            if not eq or key not in ("q", "modulus") or key in keys:
                raise ParseError(f"bad field spec fragment {part!r}")
            keys[key] = val
        if "q" not in keys:
            raise ParseError("field spec must set q")
        p, f = _split_prime_power(parse_int(keys["q"]))
        if "modulus" not in keys:
            return cls(p, f)
        if f == 1:
            raise ParseError(f"the prime field F_{p} takes no modulus")
        return cls(p, f, _parse_sum(keys["modulus"], "x", _prime_coeff,
                                    cls(p)))

    def modulus_string(self) -> str:
        return _sum_str([str(c) for c in self.modulus], "x")

    def spec_string(self) -> str:
        if self.f == 1:
            return f"q={self.q}"
        return f"q={self.q};modulus={self.modulus_string()}"

    # -- coordinates ---------------------------------------------------------

    def coords(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.f):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coords(self, coords) -> int:
        a = 0
        for c in reversed(list(coords)):
            a = a * self.p + (int(c) % self.p)
        return a

    def from_int(self, n: int) -> int:
        """Embed an integer via F_p."""
        return n % self.p

    # -- arithmetic: tables built once per field, on first use ---------------

    @cached_property
    def _add(self) -> list[list[int]]:
        coords = [self.coords(a) for a in range(self.q)]
        return [[self.from_coords(map(operator.add, x, y)) for y in coords]
                for x in coords]

    @cached_property
    def _neg(self) -> list[int]:
        return [self.from_coords(-c for c in self.coords(a))
                for a in range(self.q)]

    @cached_property
    def _mul(self) -> list[list[int]]:
        p = self.p
        if self.f == 1:
            return [[a * b % p for b in range(p)] for a in range(p)]
        mod = Poly.from_indices(FieldSpec(p), self.modulus)  # over F_p, in t
        elems = [Poly.from_indices(mod.spec, self.coords(a))
                 for a in range(self.q)]
        # the table is symmetric: compute b >= a and mirror it
        mul = [[0] * self.q for _ in range(self.q)]
        for a, x in enumerate(elems):
            for b in range(a, self.q):
                mul[a][b] = mul[b][a] = self.from_coords(
                    (x * elems[b] % mod).coeff_indices())
        return mul

    @cached_property
    def _inv(self) -> list[int]:
        return [0] + [row.index(1) for row in self._mul[1:]]

    @cached_property
    def _xpow(self) -> list[tuple[int, ...]]:
        mod = Poly.from_indices(FieldSpec(self.p), self.modulus)
        t = Poly.t(mod.spec)
        return [self.coords(self.from_coords((t ** i % mod).coeff_indices()))
                for i in range(2 * self.f - 1)]

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero field element")
        return self._inv[a]

    def x_power_coords(self, j: int) -> tuple[int, ...]:
        """Coordinates of x^j reduced mod the modulus, for 0 <= j <= 2f-2."""
        return self._xpow[j]
