"""Dense polynomials over F_q in the variable t, stored as packed bytes.

Layout.  A polynomial is one immutable ``bytes`` value.  Coefficients come
in ascending powers of t, each as its f coordinates over F_p on the power
basis of the field generator, each coordinate an unsigned little-endian
integer w bytes wide.  Trailing zero coefficients are stripped, so the zero
polynomial is ``b""`` and degree() == -1 stands in for deg(0) = -infinity.

Slot widths.  Read little-endian, those bytes are one Python integer with a
w-byte slot per coordinate, and the kernels are a few big-integer operations
on such integers.  A slot must never carry into its neighbour:

- w is the narrowest of 1, 2, 4, 8 bytes that holds 2p - 1, the most a slot
  reaches in add or sub (sub adds p to every slot it subtracts from).  That
  is one byte for p <= 127 and two bytes from p = 131 on.
- mul is Kronecker substitution.  Coordinate plane k of a polynomial (its
  x^k coordinates) is re-packed into slots of s bytes, and the f^2 integer
  products of planes give the product's planes c_j for x^0 .. x^(2f-2).  A
  slot of c_j sums at most min(n_a, n_b) * m_j terms below (p-1)^2, where
  m_j = min(j + 1, 2f - 1 - j) counts the plane pairs landing on x^j.
  Folding x^j = sum_k r_jk x^k (FieldSpec.x_power_coords) for j >= f gives
  plane k as c_k + sum_j r_jk c_j, whose slots hold at most
  min(n_a, n_b) * (p-1)^2 * (m_k + sum_j r_jk m_j); s is the narrowest of
  1, 2, 4, 8 bytes that holds the largest of these bounds.
- divmod keeps the remainder as one integer.  Each step clears its leading
  coefficient and adds a cached negated multiple of the divisor below it;
  slots stay unreduced for as many steps as they can take without carrying.
- window_reducer adds reduced table entries to the low coefficients under
  the same rule: a slot below p takes (2^(8w) - 1) // (p - 1) - 1 additions
  of at most p - 1 before it is reduced.

Tables.  After each kernel every slot is reduced mod p.  One-byte slots are
reduced with ``bytes.translate`` and a 256-entry table, as is scaling by an
element of F_p: one C-level pass with no array built per call.  At the
degrees of residues mod v^N (< 32) building a numpy array costs more than
the arithmetic on it.  Wider slots, reached only by large products or
p >= 131, are reduced with ``np.frombuffer(...) % p``.
"""

from __future__ import annotations

import re
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DivisionByZero, InvalidFieldSpec, ParseError

if TYPE_CHECKING:
    from .fields import FieldSpec

_UINT = {s: np.dtype(f"<u{s}") for s in (1, 2, 4, 8)}  # little-endian slots


def _width(bound: int) -> int:
    """Bytes of the narrowest unsigned slot that holds bound."""
    for s in (1, 2, 4, 8):
        if bound < 1 << 8 * s:
            return s
    raise InvalidFieldSpec(f"coefficient bound {bound} needs slots wider "
                           "than 8 bytes")


class _Layout:
    """Byte layout and reduction tables of the polynomials over one field."""

    def __init__(self, spec: FieldSpec):
        p, f = spec.p, spec.f
        self.spec = spec
        self.p, self.f = p, f
        self.w = _width(2 * p - 1)
        self.size = f * self.w  # bytes per coefficient
        self.dtype = _UINT[self.w]
        self.mod = bytes(x % p for x in range(256))
        # scale_tables[a]: multiplies one-byte slots by a in F_p
        self.scale_tables = [bytes(a * x % p for x in range(256))
                             for a in range(p)] if self.w == 1 else []
        self.chunks = [b"".join(c.to_bytes(self.w, "little")
                                for c in spec.coords(a))
                       for a in range(spec.q)]
        self.index = {chunk: a for a, chunk in enumerate(self.chunks)}
        # fold_terms[k]: the (j, r) with x^j = ... + r x^k + ..., f <= j <= 2f-2
        xpow = [spec.x_power_coords(j) for j in range(f, 2 * f - 1)]
        self.fold_terms = [[(j, row[k]) for j, row in enumerate(xpow, f) if row[k]]
                           for k in range(f)]
        # the bound on a product slot (see the module docstring) per min(n_a, n_b)
        pairs = [min(j + 1, 2 * f - 1 - j) for j in range(2 * f - 1)]
        self.slot_unit = (p - 1) ** 2 * max(
            pairs[k] + sum(r * pairs[j] for j, r in terms)
            for k, terms in enumerate(self.fold_terms))

    def reduce(self, raw: bytes, s: int) -> bytes:
        """Reduce each s-byte slot mod p, into coordinates w bytes wide."""
        if s == 1:
            return raw.translate(self.mod)
        arr = np.frombuffer(raw, dtype=_UINT[s]) % self.p
        return arr.astype(self.dtype).tobytes()

    def strip(self, raw: bytes) -> bytes:
        """Drop trailing zero coefficients."""
        if self.size == 1:
            return raw.rstrip(b"\0")
        n = len(raw.rstrip(b"\0"))
        return raw[: n + (-n % self.size)]

    def encode(self, coeffs) -> bytes:
        if self.size == 1:
            return bytes(coeffs)
        return b"".join([self.chunks[a] for a in coeffs])

    def coeff(self, data, i: int) -> int:
        """Element index of the t^i coefficient of a packed polynomial."""
        if self.size == 1:
            return data[i]
        return self.index[bytes(data[i * self.size:(i + 1) * self.size])]

    def plane(self, data: bytes, k: int, s: int) -> int:
        """Coordinate k of every coefficient, as one integer of s-byte slots."""
        w, size = self.w, self.size
        if s == 1:  # hence w == 1
            return int.from_bytes(data[k::size], "little")
        buf = bytearray(len(data) // size * s)
        for u in range(w):
            buf[u::s] = data[k * w + u::size]
        return int.from_bytes(buf, "little")


_layout = cache(_Layout)  # one layout per field


def _kron(lay: _Layout, a: bytes, b: bytes) -> bytes:
    """Product of two nonzero packed polynomials by Kronecker substitution."""
    f, w, size = lay.f, lay.w, lay.size
    na, nb = len(a) // size, len(b) // size
    nc = na + nb - 1
    s = _width(min(na, nb) * lay.slot_unit)
    if f == 1:
        if s == w:
            prod = int.from_bytes(a, "little") * int.from_bytes(b, "little")
        else:
            prod = lay.plane(a, 0, s) * lay.plane(b, 0, s)
        return lay.reduce(prod.to_bytes(nc * s, "little"), s)
    A = [lay.plane(a, k, s) for k in range(f)]
    B = [lay.plane(b, k, s) for k in range(f)]
    c = [0] * (2 * f - 1)  # c[j]: the x^j coordinate plane of the product
    for k, x in enumerate(A):
        for j, y in enumerate(B):
            c[k + j] += x * y
    out = bytearray(nc * size)
    for k, terms in enumerate(lay.fold_terms):
        ck = c[k] + sum(r * c[j] for j, r in terms)
        plane = lay.reduce(ck.to_bytes(nc * s, "little"), s)
        for u in range(w):
            out[k * w + u::size] = plane[u::w]
    return bytes(out)


class Poly:
    __slots__ = ("spec", "data", "_lay")

    def __init__(self, lay: _Layout, data: bytes):
        # internal: data must be reduced mod p and stripped; build polynomials
        # with the classmethods below
        self.spec = lay.spec
        self.data = data
        self._lay = lay

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(_layout(spec), b"")

    @classmethod
    def const(cls, spec: FieldSpec, a: int) -> "Poly":
        return cls.from_indices(spec, [a])

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls.const(spec, 1)

    @classmethod
    def t(cls, spec: FieldSpec) -> "Poly":
        return cls.from_indices(spec, [0, 1])

    @classmethod
    def from_indices(cls, spec: FieldSpec, coeffs) -> "Poly":
        """Build from a list of F_q element indices, ascending powers of t."""
        lay = _layout(spec)
        return cls(lay, lay.strip(lay.encode(coeffs)))

    # -- basic queries ---------------------------------------------------------

    @property
    def c(self) -> np.ndarray:
        """Read-only (f, n) view of the F_p coordinates: column i is t^i."""
        lay = self._lay
        return np.frombuffer(self.data, dtype=lay.dtype).reshape(-1, lay.f).T

    def degree(self) -> int:
        """Degree, with -1 standing in for deg(0) = -infinity."""
        return len(self.data) // self._lay.size - 1

    def low_degree(self) -> int:
        """Least i with a nonzero t^i coefficient; -1 for the zero
        polynomial."""
        if not self.data:
            return -1
        return (len(self.data) - len(self.data.lstrip(b"\0"))) \
            // self._lay.size

    def is_zero(self) -> bool:
        return not self.data

    def coeff_index(self, i: int) -> int:
        if i < 0 or i > self.degree():
            return 0
        return self._lay.coeff(self.data, i)

    def coeff_indices(self) -> list[int]:
        if self._lay.size == 1:  # each byte is its coefficient's index
            return list(self.data)
        return [self._lay.coeff(self.data, i) for i in range(self.degree() + 1)]

    def lead_index(self) -> int:
        return self.coeff_index(self.degree())

    def is_monic(self) -> bool:
        return not self.is_zero() and self.lead_index() == 1

    # -- equality / hashing -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec is other.spec and self.data == other.data

    def __hash__(self):
        return hash((self.spec, self.data))

    def __repr__(self):
        return f"Poly({poly_str(self)!r})"

    def __str__(self):
        return poly_str(self)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self._lay, _add(self._lay, self.data, other.data))

    def __neg__(self) -> "Poly":
        return Poly(self._lay, _neg(self._lay, self.data))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(self._lay, _add(self._lay, self.data,
                                    _neg(self._lay, other.data)))

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.data or not other.data:
            return Poly(self._lay, b"")
        return Poly(self._lay, _kron(self._lay, self.data, other.data))

    def scale(self, a: int) -> "Poly":
        """Multiply by the F_q element with index a."""
        lay = self._lay
        if a == 0 or not self.data:
            return Poly(lay, b"")
        return Poly(lay, _scale(lay, self.data, a))

    def shift(self, k: int) -> "Poly":
        """Multiply by t^k."""
        if not self.data or k == 0:
            return self
        return Poly(self._lay, bytes(k * self._lay.size) + self.data)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        lay, spec = self._lay, self.spec
        b = other.data
        if not b:
            raise DivisionByZero("polynomial division by zero")
        size, p = lay.size, lay.p
        m = len(b) // size - 1
        top = self.degree()
        if top < m:
            return Poly(lay, b""), self
        inv_lead = spec.inv(lay.coeff(b, m))
        if m == 0:
            return self.scale(inv_lead), Poly(lay, b"")
        neg_inv = spec.neg(inv_lead)
        # The remainder is one integer r.  Each step clears its leading
        # coefficient c and adds -(c / lead) * other below it.  Slots are left
        # unreduced for `lazy` steps, as many as can add p - 1 to a slot
        # before it could carry.
        bits = 8 * size  # bits per coefficient
        r = int.from_bytes(self.data, "little")
        quot = [0] * (top - m + 1)
        steps: dict[int, tuple[int, int]] = {}  # c -> (c / lead, low multiple)
        lazy = room = ((1 << 8 * lay.w) - 1) // (p - 1) - 1
        while (bl := r.bit_length()) > bits * m:
            i = (bl - 1) // bits
            head = r >> bits * i
            r -= head << bits * i
            if size == 1:
                c = head % p
            else:
                c = lay.index[lay.reduce(head.to_bytes(size, "little"), lay.w)]
            if not c:
                continue
            step = steps.get(c)
            if step is None:
                mult = _scale(lay, b, spec.mul(c, neg_inv))[:m * size]
                step = steps[c] = (spec.mul(c, inv_lead),
                                   int.from_bytes(mult, "little"))
            quot[i - m] = step[0]
            r += step[1] << bits * (i - m)
            room -= 1
            if not room:
                n = (top + 1) * size
                r = int.from_bytes(lay.reduce(r.to_bytes(n, "little"), lay.w),
                                   "little")
                room = lazy
        rem = lay.reduce(r.to_bytes(m * size, "little"), lay.w)
        return Poly(lay, lay.encode(quot)), Poly(lay, lay.strip(rem))

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("exact division has nonzero remainder")
        return q

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one(self.spec)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.lead_index()
        return self if lead == 1 else self.scale(self.spec.inv(lead))


def _add(lay: _Layout, a: bytes, b: bytes) -> bytes:
    if not b:
        return a
    if not a:
        return b
    n = max(len(a), len(b))
    x, y = int.from_bytes(a, "little"), int.from_bytes(b, "little")
    if lay.p == 2:
        return lay.strip((x ^ y).to_bytes(n, "little"))
    return lay.strip(lay.reduce((x + y).to_bytes(n, "little"), lay.w))


def _neg(lay: _Layout, data: bytes) -> bytes:
    if lay.p == 2 or not data:
        return data
    return _scale(lay, data, lay.p - 1)


def _scale(lay: _Layout, data: bytes, a: int) -> bytes:
    """A nonzero packed polynomial times the F_q element a != 0."""
    if a == 1:
        return data
    if a < lay.p and lay.w == 1:  # a lies in F_p: act slot by slot
        return data.translate(lay.scale_tables[a])
    return _kron(lay, data, lay.chunks[a])


def window_reducer(modulus: Poly):
    """The map x -> x % modulus, by window tables for deg x <= 2m - 2, where
    m = deg modulus >= 1, and by divmod above that.

    The coefficients m .. 2m-2 of x are cut into windows of k coefficients,
    the largest k <= m - 1 with q^k <= 256 (at least 1).  The table of the
    window at t^s maps its packed bytes c_0 .. c_(k-1) to the packed integer
    of t^s (c_0 + ... + c_(k-1) t^(k-1)) mod modulus; tables whose powers
    t^s .. t^(s+k-1) all vanish mod modulus are dropped.  A reduction adds
    one lookup per window to the low m coefficients, with slots left
    unreduced for as many additions as divmod's ``room`` rule allows, then
    reduces the slots mod p once.
    """
    lay, spec = modulus._lay, modulus.spec
    size, m, p, w = lay.size, modulus.degree(), lay.p, lay.w
    low, full = m * size, (2 * m - 1) * size
    k = 1
    while k < m - 1 and spec.q ** (k + 1) <= 256:
        k += 1
    windows = []
    for s in range(m, 2 * m - 1, k):
        powers = [Poly.one(spec).shift(i) % modulus
                  for i in range(s, min(s + k, 2 * m - 1))]
        if all(r.is_zero() for r in powers):
            continue
        keys, sums = [b""], [Poly.zero(spec)]
        for r in powers:
            scaled = [r.scale(c) for c in range(spec.q)]
            keys = [key + lay.chunks[c] for c in range(spec.q) for key in keys]
            sums = [x + rc for rc in scaled for x in sums]
        windows.append((s * size, (s + len(powers)) * size,
                        {key: int.from_bytes(x.data, "little")
                         for key, x in zip(keys, sums)}))
    lazy = ((1 << 8 * w) - 1) // (p - 1) - 1

    def reduce(x: Poly) -> Poly:
        data = x.data
        if len(data) <= low:
            return x
        if len(data) > full:
            return x % modulus
        data = data.ljust(full, b"\0")
        acc = int.from_bytes(data[:low], "little")
        room = lazy
        for start, stop, table in windows:
            acc += table[data[start:stop]]
            room -= 1
            if not room:
                acc = int.from_bytes(
                    lay.reduce(acc.to_bytes(low, "little"), w), "little")
                room = lazy
        return Poly(lay, lay.strip(lay.reduce(acc.to_bytes(low, "little"), w)))

    return reduce


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, u, w) with u*a + w*b = g monic."""
    spec = a.spec
    r0, r1 = a, b
    u0, u1 = Poly.one(spec), Poly.zero(spec)
    w0, w1 = Poly.zero(spec), Poly.one(spec)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        w0, w1 = w1, w0 - q * w1
    if r0.is_zero():
        return r0, u0, w0
    lead_inv = spec.inv(r0.lead_index())
    return r0.scale(lead_inv), u0.scale(lead_inv), w0.scale(lead_inv)


# -- enumeration and irreducibility --------------------------------------------


def monic_polys(spec: FieldSpec, d: int):
    """All monic polynomials of degree d, lexicographic on coefficient vectors."""
    if d == 0:
        yield Poly.one(spec)
        return
    q = spec.q
    lay = _layout(spec)
    for idx in range(q ** d):
        coeffs = []
        m = idx
        for _ in range(d):
            coeffs.append(m % q)
            m //= q
        coeffs.append(1)
        yield Poly(lay, lay.encode(coeffs))


@cache
def is_irreducible(v: Poly) -> bool:
    """Irreducibility by trial division against monic divisors of degree
    <= deg/2; cached."""
    for e in range(1, v.degree() // 2 + 1):
        for w in monic_polys(v.spec, e):
            if (v % w).is_zero():
                return False
    return v.degree() >= 1


def irreducible_polys(spec: FieldSpec, degree: int):
    """Monic irreducible polynomials of the given exact degree."""
    for v in monic_polys(spec, degree):
        if is_irreducible(v):
            yield v


# -- literals --------------------------------------------------------------------

def _parse_sum(text: str, var: str, coeff, spec: FieldSpec) -> list[int]:
    """Parse a sparse sum in ``var``, such as "2*x^3-x+1", into its dense
    coefficient list, ascending powers; ``coeff(c, spec)`` reads each
    coefficient c as an element of ``spec``, which adds them up.

    The terms are split at + and - outside parentheses, and the first may
    have a leading -.  Each term is c, var, var^e or c*var^e (the *
    optional), with e in ASCII digits; whitespace may surround terms and
    signs, and nowhere else.  An empty term (so a leading +, or a doubled
    or dangling sign) and unbalanced parentheses raise ParseError.
    """
    body = text.strip()
    neg = body.startswith("-")
    if neg:
        body = body[1:]
    out: dict[int, int] = {}
    depth = start = 0
    for i, ch in enumerate(body + "+"):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
        if ch not in "+-" or depth:
            continue
        term = body[start:i].strip()
        if not term:
            raise ParseError(f"empty term or stray sign in {text!r}")
        m = re.fullmatch(rf"(?:(.*?\S)\*?)?{var}(?:\^([0-9]+))?", term)
        if m is None and var in term:
            raise ParseError(f"bad term {term!r} in {text!r}")
        head, e = (m[1], int(m[2] or 1)) if m else (term, 0)
        c = 1 if head is None else coeff(head, spec)
        out[e] = spec.add(out.get(e, 0), spec.neg(c) if neg else c)
        neg, start = ch == "-", i + 1
    if depth:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    return [out.get(e, 0) for e in range(max(out) + 1)]


def parse_int(text: str) -> int:
    """An optional - and ASCII digits, with whitespace around them; ``int``
    alone would also take underscores, a + and non-ASCII digits."""
    m = re.fullmatch(r"-?[0-9]+", text.strip())
    if m is None:
        raise ParseError(f"bad integer {text!r}")
    return int(m[0])


def _prime_coeff(text: str, spec: FieldSpec) -> int:
    """A coefficient in ASCII digits, read in F_p."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"bad coefficient {text!r}")
    return int(text) % spec.p


def _parse_fq_scalar(text: str, spec: FieldSpec) -> int:
    """Parse an F_q scalar like "2", "a", "a^2", "2*a", or "a+1": a sum in
    the generator a, below a^f, with coefficients in F_p."""
    if spec.f == 1 and "a" in text:
        raise ParseError("generator 'a' used in a prime field")
    coords = _parse_sum(text, "a", _prime_coeff, spec)
    if len(coords) > spec.f:
        raise ParseError(f"generator power a^{len(coords) - 1} exceeds "
                         "basis degree")
    return spec.from_coords(coords)


def _scalar_coeff(text: str, spec: FieldSpec) -> int:
    """A coefficient of t: an F_q scalar, in parentheses when a sum."""
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return _parse_fq_scalar(text, spec)


def parse_poly(text: str, spec: FieldSpec) -> Poly:
    """Parse a polynomial literal such as "t^3+a*t+1" over F_q."""
    return Poly.from_indices(spec, _parse_sum(text, "t", _scalar_coeff, spec))


def _sum_str(terms: list[str], var: str) -> str:
    """Print the sum in ``var`` of the coefficient strings ``terms``,
    ascending powers, as ``_parse_sum`` reads it: highest power first, no
    "0" terms, and a coefficient that is a sum in parentheses."""
    parts = []
    for e, c in reversed(list(enumerate(terms))):
        if c == "0":
            continue
        power = var if e == 1 else f"{var}^{e}"
        parts.append(c if e == 0 else power if c == "1"
                     else f"({c})*{power}" if "+" in c else f"{c}*{power}")
    return "+".join(parts) or "0"


def _scalar_str(a: int, spec: FieldSpec) -> str:
    return _sum_str([str(c) for c in spec.coords(a)], "a")


def poly_str(x: Poly) -> str:
    return _sum_str([_scalar_str(a, x.spec) for a in x.coeff_indices()], "t")
