"""Table-driven arithmetic for the finite field F_q with q = p^f.

Field elements are represented as plain integers in [0, q): the element with
coordinate vector (c_0, ..., c_{f-1}) on the power basis of the generator is
encoded as sum(c_i * p^i).  FieldSpec owns the modulus and the operation
tables; all element-level functions take the index representation.

The tables are built on the one polynomial kernel, ``poly.Poly`` over the
prime field: the default modulus is the first monic irreducible in
``monic_polys`` order, an extension product is a product of coordinate
polynomials reduced mod the modulus, and ``x_power_coords`` reads off
x^j mod the modulus.  A prime field multiplies as ``a * b % p``.  Each
table is built once per field, on first use.
"""

from __future__ import annotations

from .errors import DivisionByZero, InvalidFieldSpec, ParseError
from .poly import (Poly, _parse_sum, _prime_coeff, _sum_str,
                   irreducible_polys, is_irreducible)


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
    irreducible of degree f over F_p (ignored when f == 1).
    """

    def __init__(self, p: int, f: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise InvalidFieldSpec(f"characteristic {p} is not prime")
        if f < 1:
            raise InvalidFieldSpec("extension degree must be >= 1")
        if f == 1:
            modulus = (0, 1)  # placeholder, never used
        else:
            prime = FieldSpec(p)
            if modulus is None:
                # the first in monic_polys order: constant term least significant
                modulus = next(irreducible_polys(prime, f)).coeff_indices()
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != f + 1 or modulus[-1] != 1:
                raise InvalidFieldSpec("modulus must be monic of degree f")
            if not is_irreducible(Poly.from_indices(prime, modulus)):
                raise InvalidFieldSpec("modulus is not irreducible over F_p")
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = modulus
        self._hash = hash((p, f, modulus))
        self._mul_table: list[list[int]] | None = None
        self._inv_table: list[int] | None = None
        self._xpow: list[tuple[int, ...]] | None = None

    # -- identity / hashing -------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus))

    def __hash__(self):
        return self._hash

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
        p, f = _split_prime_power(int(keys["q"]))
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

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p, f = self.p, self.f
        out, w = 0, 1
        for _ in range(f):
            out += ((a + b) % p) * w
            a //= p
            b //= p
            w *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        out, w = 0, 1
        for _ in range(self.f):
            out += (-a % p) * w
            a //= p
            w *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _modulus_poly(self) -> Poly:
        """The modulus over F_p, in the variable t of Poly."""
        return Poly.from_indices(FieldSpec(self.p), self.modulus)

    def _build_tables(self):
        p = self.p
        if self.f == 1:
            mul = [[a * b % p for b in range(p)] for a in range(p)]
        else:
            mod = self._modulus_poly()
            elems = [Poly.from_indices(mod.spec, self.coords(a))
                     for a in range(self.q)]
            # the table is symmetric: compute b >= a and mirror it
            mul = [[0] * self.q for _ in range(self.q)]
            for a, x in enumerate(elems):
                for b in range(a, self.q):
                    mul[a][b] = mul[b][a] = self.from_coords(
                        (x * elems[b] % mod).coeff_indices())
        self._mul_table = mul
        self._inv_table = [0] + [row.index(1) for row in mul[1:]]

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is None:
            self._build_tables()
        return self._mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero field element")
        if self._inv_table is None:
            self._build_tables()
        return self._inv_table[a]

    def x_power_coords(self, j: int) -> tuple[int, ...]:
        """Coordinates of x^j reduced mod the modulus, for 0 <= j <= 2f-2."""
        if self._xpow is None:
            mod = self._modulus_poly()
            t = Poly.t(mod.spec)
            powers = [(t ** i % mod).coeff_indices() for i in range(2 * self.f - 1)]
            self._xpow = [self.coords(self.from_coords(c)) for c in powers]
        return self._xpow[j]
