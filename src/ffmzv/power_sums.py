"""Carlitz power sums over monic polynomials, exact and at v-adic precision.

S_d(k) sums a^(-k) over all monic a of degree d and lives in F_q(t).  At a
prime v the sums are the coprime variant S~_d(k), which skips the multiples
of v, and live in A/(v^N).  Every sum is memoized per key -- the nested zeta
sums re-read these heavily.

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
    """S_d(k) as an LFrac."""
    key = (spec, d, k)
    hit = _exact_cache.get(key)
    if hit is not None:
        return hit
    if k == 0:
        out = LFrac(spec, Poly.const(spec, spec.from_int(spec.q ** d)), ())
    elif k < 0:
        acc = Poly.zero(spec)
        for a in monic_polys(spec, d):
            acc = acc + a ** (-k)
        out = LFrac.from_poly(acc)
    else:
        ld = l_poly(spec, d)
        acc = Poly.zero(spec)
        for a in monic_polys(spec, d):
            acc = acc + ld.exact_div(a) ** k
        out = LFrac(spec, acc, tuple(0 for _ in range(d - 1)) + (k,) if d else ())
    _exact_cache[key] = out
    return out


def _residue_sum(spec: FieldSpec, d: int, k: int, v: Poly, N: int) -> ResidueElem:
    """The coprime power sum S~_d(k) (monics of degree d prime to v) in
    A/(v^N)."""
    key = (spec, d, k, v, N)
    hit = _residue_cache.get(key)
    if hit is not None:
        return hit
    ring = ResidueRing(v, N)
    out = ring.zero()
    # every residue class mod v^N holds q^(d - N deg v) monics of degree
    # d > N deg v, so those sums vanish
    if d <= N * v.degree():
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
