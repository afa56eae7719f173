"""Carlitz power sums over monic polynomials, exact and at v-adic precision.

S_d(k) sums a^(-k) over all monic a of degree d and lives in F_q(t).  At a
prime v the sums are the coprime variant S~_d(k), which skips the multiples
of v, and live in A/(v^N).  Every sum is memoized per key -- the nested zeta
sums re-read these heavily.  A residue sum is keyed (ring, d, k): the one
``ResidueRing`` per (v, N) is the whole identity of its carrier, as it is
for the unit tables and the chain-sum tables of ``zeta``.

For k >= 1 no monic is enumerated: the numerator of S_d(k) over l_d^k
follows a linear recurrence in F_q[t] from Carlitz's generating function
(Carlitz, Duke Math. J. 1, 1935; Thakur, Function Field Arithmetic, 2004,
ch. 5), with at most d + 1 products per k (``_exact_frac``).  The q^d monics
are enumerated only for k <= 0, where S_d(k) is a polynomial sum that
vanishes past Carlitz's digit-sum bound, and for the residue unit tables.

The residue sums read one cached unit table per (ring, d): the images mod
v^N of the monics of degree d prime to v, found by skipping the monic
multiples v*b of degree d rather than dividing each monic by v.  Its
inverses cost a single inversion (Montgomery's simultaneous inversion,
Math. Comp. 48, 1987, Section 10.3), and the list of e-th powers of its
units is cached, so S~_d(k) for the next |k| costs one multiplication per
unit.

A counting shortcut applies at finite precision: monic polynomials of degree
d >= N*deg(v) are equidistributed over the residue classes mod v^N with
q^(d - N*deg(v)) representatives each, so for d > N*deg(v) every residue
power sum is a multiple of q and hence vanishes in characteristic p.  The
shortcut is exercised against literal enumeration in the test suite.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from operator import mul

from .errors import CapTooSmall
from .fields import FieldSpec
from .lfrac import LFrac, l_poly
from .poly import Poly, monic_polys
from .residue import ResidueElem, ResidueRing


_exact_cache: dict[tuple, LFrac] = {}
_residue_cache: dict[tuple, ResidueElem] = {}
# (ring, d, e) -> [u^e for u in the unit table of (ring, d)]; e = 1 is the table
_power_lists: dict[tuple, list[ResidueElem]] = {}


def _exact_frac(spec: FieldSpec, d: int, k: int) -> LFrac:
    """S_d(k) as an LFrac.

    For k >= 1 it is N_k / l_d^k, the exponent tuple (0, ..., 0, k) (() at
    d = 0), and the numerators N_k = l_d^k S_d(k) come from Carlitz's
    recurrence, filled bottom-up through ``_exact_cache``:

        N_1 = (-1)^d,
        N_k = sum over i <= d with q^i <= k - 1 of (-1)^(d-i) c_(d,i) N_(k-q^i),

    c_(d,i) as in ``_carlitz_coeff``.  For k <= 0 the q^d monics are
    enumerated; S_d(0) = q^d is 0 for d >= 1."""
    key = (spec, d, k)
    hit = _exact_cache.get(key)
    if hit is not None:
        return hit
    if k > 0:
        start = k  # the least k' <= k whose sum is not cached yet
        while start > 1 and (spec, d, start - 1) not in _exact_cache:
            start -= 1
        for j in range(start, k + 1):
            # N_1 = (-1)^d; for j >= 2 the terms with q^i <= j - 1
            num = _carlitz_coeff(spec, d, 0) if j == 1 else Poly.zero(spec)
            for i in range(d + 1):
                if spec.q ** i >= j:
                    break
                prev = _exact_cache[(spec, d, j - spec.q ** i)].num
                if i:
                    num = num + _carlitz_coeff(spec, d, i) * prev
                else:  # c_(d,0) = (-1)^d: no product
                    num = num - prev if d % 2 else num + prev
            _exact_cache[(spec, d, j)] = LFrac(
                spec, num, (0,) * (d - 1) + (j,) if d else ())
        return _exact_cache[key]
    if k == 0:
        out = LFrac(spec, Poly.const(spec, spec.from_int(spec.q ** d)), ())
    else:
        acc = Poly.zero(spec)
        for a in monic_polys(spec, d):
            acc = acc + a ** (-k)
        out = LFrac.from_poly(acc)
    _exact_cache[key] = out
    return out


@cache
def _carlitz_coeff(spec: FieldSpec, d: int, i: int) -> Poly:
    """(-1)^(d-i) c_(d,i) with c_(d,i) = (l_d / l_(d-i))^(q^i) / D_i and
    D_i = prod_(j<i) (t^(q^i) - t^(q^j)), an exact division; c_(d,0) = 1.
    Clearing the denominators of Carlitz's generating function

        sum_(k>=1) S_d(k) x^(k-1) = b_0 / (1 - sum_(i<=d) b_i x^(q^i)),
        b_i = (-1)^(d-i) / (D_i l_(d-i)^(q^i))

    (Thakur, Function Field Arithmetic, 2004, ch. 5) by l_d^k gives the
    recurrence in ``_exact_frac``."""
    t, q = Poly.t(spec), spec.q
    D = Poly.one(spec)
    for j in range(i):
        D = D * (t.shift(q ** i - 1) - t.shift(q ** j - 1))
    c = (l_poly(spec, d).exact_div(l_poly(spec, d - i)) ** q ** i).exact_div(D)
    return -c if (d - i) % 2 else c


def _residue_sum(ring: ResidueRing, d: int, k: int) -> ResidueElem:
    """The coprime power sum S~_d(k) (monics of degree d prime to v) in
    the ring A/(v^N)."""
    key = (ring, d, k)
    hit = _residue_cache.get(key)
    if hit is not None:
        return hit
    out = ring.zero()
    # every residue class mod v^N holds q^(d - N deg v) monics of degree
    # d > N deg v, so those sums vanish
    if d <= ring.N * ring.v.degree():
        out = sum(_powers(ring, d, -k), out)
    _residue_cache[key] = out
    return out


def _powers(ring: ResidueRing, d: int, e: int) -> list[ResidueElem]:
    """[u^e for u in the unit table of (ring, d)], cached.  Built from the
    cached list for e -/+ 1 by one multiplication per unit when there is one,
    else by raising each base unit (u or 1/u) to |e|."""
    key = (ring, d, e)
    hit = _power_lists.get(key)
    if hit is not None:
        return hit
    if e == 1:
        v = ring.v
        # the monic multiples of v of degree d are the v*b, b monic
        multiples = ({v * b for b in monic_polys(v.spec, d - v.degree())}
                     if d >= v.degree() else set())
        hit = [ring.image(a) for a in monic_polys(v.spec, d)
               if a not in multiples]
    elif e == -1:
        hit = _inverses(_powers(ring, d, 1))
    else:
        step = 1 if e > 0 else -1
        base = _powers(ring, d, step)
        prev = _power_lists.get((ring, d, e - step))
        if prev is not None:
            hit = [x * u for x, u in zip(prev, base)]
        else:
            hit = [u ** abs(e) for u in base]
    _power_lists[key] = hit
    return hit


def _inverses(units: list[ResidueElem]) -> list[ResidueElem]:
    """The inverses of a nonempty list of units by Montgomery's trick: prefix
    products, one inversion, one backward sweep; 3(n-1) multiplications."""
    prefix = list(accumulate(units, mul))
    inv = prefix[-1].inv()
    out = [inv] * len(units)
    for i in range(len(units) - 1, 0, -1):
        out[i] = inv * prefix[i - 1]
        inv = inv * units[i]
    out[0] = inv
    return out


def vanish_degree(m: int, spec: FieldSpec, cap: int) -> int:
    """Largest d <= cap with S_d(-m) != 0; raises CapTooSmall when the top
    of the range is still nonzero (maximality cannot be certified)."""
    if m < 1:
        raise ValueError("exponent must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if not _exact_frac(spec, cap, -m).is_zero():
        raise CapTooSmall(f"S_{cap}(-{m}) != 0; raise the cap")
    for d in range(cap - 1, 0, -1):
        if not _exact_frac(spec, d, -m).is_zero():
            return d
    return 0  # S_0(-m) = 1 never vanishes


def default_vanish_cap(m: int, spec: FieldSpec) -> int:
    """floor(l_q(m)/(q-1)) + 1 with l_q(m) the base-q digit sum of m: by
    Carlitz, S_d(-m) = 0 for every d > l_q(m)/(q-1) (Thakur, Function Field
    Arithmetic, 2004), so the cap is the least degree certified to vanish."""
    digits, n = 0, m
    while n:
        n, r = divmod(n, spec.q)
        digits += r
    return digits // (spec.q - 1) + 1
