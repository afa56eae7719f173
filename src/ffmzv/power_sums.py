"""Carlitz power sums over monic polynomials, exact and at v-adic precision.

S_d(k) sums a^(-k) over all monic a of degree d; the coprime variant skips
multiples of a fixed prime v.  Exact values live in F_q(t); residue values
live in A/(v^N).  Everything is memoized per key -- the nested zeta sums
re-read these heavily.

A counting shortcut applies at finite precision: monic polynomials of degree
d >= N*deg(v) are equidistributed over the residue classes mod v^N with
q^(d - N*deg(v)) representatives each, so for d > N*deg(v) every residue
power sum is a multiple of q and hence vanishes in characteristic p.  The
shortcut is exercised against literal enumeration in the test suite.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

from .errors import CapTooSmall, NotInvertible
from .fields import FieldSpec
from .lfrac import LFrac, l_poly
from .poly import Poly, monic_polys
from .ratfn import RationalFn
from .residue import ResidueElem


@dataclass(frozen=True)
class Exact:
    """Carrier marker: compute in F_q(t)."""


@dataclass(frozen=True)
class Residue:
    """Carrier marker: compute in A/(v^N)."""
    v: Poly
    N: int


@dataclass(frozen=True)
class PowerSumKey:
    d: int
    k: int
    carrier: Exact | Residue = field(default_factory=Exact)
    coprimality: Poly | None = None

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("degree must be >= 0")
        if (self.coprimality is not None and isinstance(self.carrier, Residue)
                and self.carrier.v != self.coprimality):
            raise ValueError("coprimality prime must match the residue carrier prime")


_exact_cache: dict[tuple, LFrac] = {}
_residue_cache: dict[tuple, ResidueElem] = {}
_vanish_cache: dict[tuple, Poly] = {}
_disk_cache: dict[str, dict] = {}


def _exact_frac(spec: FieldSpec, d: int, k: int, coprime_to: Poly | None = None) -> LFrac:
    """S_d(k) (or the coprime variant) as an LFrac."""
    key = (spec, d, k, coprime_to)
    hit = _exact_cache.get(key)
    if hit is not None:
        return hit
    if k == 0:
        count = spec.q ** d if coprime_to is None else _coprime_count(spec, d, coprime_to)
        out = LFrac(spec, Poly.const(spec, spec.from_int(count)), ())
    elif k < 0:
        acc = Poly.zero(spec)
        for a in monic_polys(spec, d):
            if coprime_to is not None and (a % coprime_to).is_zero():
                continue
            acc = acc + a ** (-k)
        out = LFrac.from_poly(acc)
    else:
        ld = l_poly(spec, d)
        acc = Poly.zero(spec)
        for a in monic_polys(spec, d):
            if coprime_to is not None and (a % coprime_to).is_zero():
                continue
            acc = acc + ld.exact_div(a) ** k
        out = LFrac(spec, acc, tuple(0 for _ in range(d - 1)) + (k,) if d else ())
    _exact_cache[key] = out
    return out


def _coprime_count(spec: FieldSpec, d: int, v: Poly) -> int:
    dv = v.degree()
    if d < dv:
        return spec.q ** d
    return spec.q ** d - spec.q ** (d - dv)


def _residue_sum(spec: FieldSpec, d: int, k: int, v: Poly, N: int,
                 coprime: bool) -> ResidueElem:
    key = (spec, d, k, v, N, coprime)
    hit = _residue_cache.get(key)
    if hit is not None:
        return hit
    disk = _load_disk_cache(spec)
    disk_key = None
    if disk is not None:
        disk_key = f"{v}|{N}|{d}|{k}|{int(coprime)}"
        stored = disk.get(disk_key)
        if stored is not None:
            out = ResidueElem(v, N, Poly.from_indices(spec, stored))
            _residue_cache[key] = out
            return out

    dv = v.degree()
    if k > 0 and not coprime and d >= dv:
        raise NotInvertible(
            "positive exponent over all monics includes multiples of v; "
            "set coprimality or keep d < deg v")
    if d > N * dv:
        # every residue class mod v^N holds q^(d - N deg v) monics of degree d
        out = ResidueElem.zero(v, N)
    else:
        # v is checked and v^N computed once, here; each term is a^(-k)
        out = zero = ResidueElem.zero(v, N)
        for a in monic_polys(spec, d):
            if coprime and (a % v).is_zero():
                continue
            out = out + zero.image(a) ** -k
    _residue_cache[key] = out
    if disk is not None:
        disk[disk_key] = out.rep.coeff_indices()
        _store_disk_cache(spec, disk)
    return out


def power_sum(key: PowerSumKey, spec: FieldSpec) -> RationalFn | ResidueElem:
    """The power sum named by key, as exact RationalFn or ResidueElem."""
    if isinstance(key.carrier, Residue):
        return _residue_sum(spec, key.d, key.k, key.carrier.v, key.carrier.N,
                            key.coprimality is not None)
    return _exact_frac(spec, key.d, key.k, key.coprimality).to_ratfn()


def vanish_degree(m: int, spec: FieldSpec, cap: int) -> int:
    """Largest d <= cap with S_d(-m) != 0; raises CapTooSmall when the top
    of the range is still nonzero (maximality cannot be certified)."""
    if m < 1:
        raise ValueError("exponent must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if not _power_poly_sum(spec, cap, m).is_zero():
        raise CapTooSmall(f"S_{cap}(-{m}) != 0; raise the cap")
    for d in range(cap - 1, 0, -1):
        if not _power_poly_sum(spec, d, m).is_zero():
            return d
    return 0  # S_0(-m) = 1 never vanishes


def default_vanish_cap(m: int, spec: FieldSpec) -> int:
    return 2 * m * spec.f + 4


def _power_poly_sum(spec: FieldSpec, d: int, m: int) -> Poly:
    key = (spec, d, m)
    hit = _vanish_cache.get(key)
    if hit is None:
        acc = Poly.zero(spec)
        for a in monic_polys(spec, d):
            acc = acc + a ** m
        _vanish_cache[key] = hit = acc
    return hit


# -- optional on-disk cache (MZV_CACHE_DIR) -------------------------------------


def _cache_path(spec: FieldSpec) -> str | None:
    root = os.environ.get("MZV_CACHE_DIR")
    if not root:
        return None
    safe = spec.spec_string().replace(";", "_").replace("=", "").replace("^", "p") \
        .replace("*", "").replace("+", "_")
    return os.path.join(root, f"power_sums_{safe}.json")


def _load_disk_cache(spec: FieldSpec) -> dict | None:
    path = _cache_path(spec)
    if path is None:
        return None
    cached = _disk_cache.get(path)
    if cached is not None:
        return cached
    data = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            data = {}
    _disk_cache[path] = data
    return data


def _store_disk_cache(spec: FieldSpec, data: dict):
    path = _cache_path(spec)
    if path is None:
        return
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # one temp file per writer: concurrent writers never move each other's
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
