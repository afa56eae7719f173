"""Carlitz power sums over monic polynomials, exact and at v-adic precision.

S_d(k) sums a^(-k) over all monic a of degree d and lives in F_q(t).  At a
prime v the sums are the coprime variant S~_d(k), which skips the multiples
of v, and live in A/(v^N).  Everything is memoized per key -- the nested
zeta sums re-read these heavily.

A counting shortcut applies at finite precision: monic polynomials of degree
d >= N*deg(v) are equidistributed over the residue classes mod v^N with
q^(d - N*deg(v)) representatives each, so for d > N*deg(v) every residue
power sum is a multiple of q and hence vanishes in characteristic p.  The
shortcut is exercised against literal enumeration in the test suite.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from .errors import CapTooSmall
from .fields import FieldSpec
from .lfrac import LFrac, l_poly
from .poly import Poly, monic_polys
from .residue import ResidueElem, ResidueRing


_exact_cache: dict[tuple, LFrac] = {}
_residue_cache: dict[tuple, ResidueElem] = {}
_vanish_cache: dict[tuple, Poly] = {}
_disk_cache: dict[str, dict | None] = {}  # None: file unusable


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
    disk = _load_disk_cache(spec)
    disk_key = None
    if disk is not None:
        # the trailing 1 marks a coprime sum; keys ending in |0 (sums over
        # every monic, written by older versions) are never read
        disk_key = f"{v}|{N}|{d}|{k}|1"
        stored = disk.get(disk_key)
        if stored is not None:
            out = ring.image(Poly.from_indices(spec, stored))
            _residue_cache[key] = out
            return out

    out = ring.zero()
    # every residue class mod v^N holds q^(d - N deg v) monics of degree
    # d > N deg v, so those sums vanish
    if d <= N * v.degree():
        for a in monic_polys(spec, d):
            if not (a % v).is_zero():
                out = out + ring.image(a) ** -k
    _residue_cache[key] = out
    if disk is not None:
        disk[disk_key] = out.rep.coeff_indices()
        _store_disk_cache(spec, disk)
    return out


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
    """floor(l_q(m)/(q-1)) + 1 with l_q(m) the base-q digit sum of m: by
    Carlitz, S_d(-m) = 0 for every d > l_q(m)/(q-1) (Thakur, Function Field
    Arithmetic, 2004), so the cap is the least degree certified to vanish."""
    digits, n = 0, m
    while n:
        n, r = divmod(n, spec.q)
        digits += r
    return digits // (spec.q - 1) + 1


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
    """The cache file's entries, or None to run without a disk cache.

    A file that cannot be read, or is not a JSON object mapping keys to
    lists of F_q element indices, is left untouched: this process warns once
    and runs without it.
    """
    path = _cache_path(spec)
    if path is None:
        return None
    if path in _disk_cache:
        return _disk_cache[path]
    data = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = None
        if not _well_formed(data, spec):
            print(f"warning: ignoring unreadable or malformed cache file "
                  f"{path}; running without the disk cache", file=sys.stderr)
            data = None
    _disk_cache[path] = data
    return data


def _well_formed(data, spec: FieldSpec) -> bool:
    return isinstance(data, dict) and all(
        isinstance(rep, list)
        and all(type(a) is int and 0 <= a < spec.q for a in rep)
        for rep in data.values())


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
