"""Per-layer tracing of ffmzv from outside the package.

``Tracer.install()`` replaces ffmzv's entry points and hot kernels with
wrappers.  A module-level function is replaced in every ffmzv module that
holds it, because the modules import by name (``ffmzv.zeta._exact_frac``,
``ffmzv.search.stack_rank``, ...); a method is replaced on its class.

Every wrapper keeps a call count and a self time (its duration minus the part
covered by wrapped callees).  Wrappers marked as spans also record
(name, start, end, parent) in memory; the hot kernels only feed the
accumulators, so their time is charged to them and taken out of the
enclosing span's self time.  Nothing is recorded outside ``op()``: code the
benchmark runs between ops, such as its correctness gate, is not traced.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from ffmzv import (cli, harmonic, lfrac, linalg, poly, power_sums, ratfn,
                   relations, residue, search, zeta)

_clock = time.perf_counter


def _mul_bucket(args):
    a, b = args
    deg = a.c.shape[1] + b.c.shape[1] - 2
    if deg < 32:
        return "poly.mul.deg_lt32"
    if deg < 256:
        return "poly.mul.deg_32_255"
    return "poly.mul.deg_ge256"


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open frames: [name, start, child_s, span]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[list] = []  # [name, start, end, parent index, op kind]
        self._span_ids: list[int] = []

    # -- recording --------------------------------------------------------

    def _enter(self, name, span, kind=None):
        if span:
            parent = self._span_ids[-1] if self._span_ids else None
            self._span_ids.append(len(self.spans))
            self.spans.append([name, 0.0, 0.0, parent, kind])
        frame = [name, _clock(), 0.0, span]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = _clock()
        self.stack.pop()
        name, start, child, span = frame
        elapsed = end - start
        self.calls[name] += 1
        self.self_s[name] += elapsed - child
        if self.stack:
            self.stack[-1][2] += elapsed
        if span:
            record = self.spans[self._span_ids.pop()]
            record[1], record[2] = start, end

    @contextmanager
    def op(self, kind):
        """Root span around one benchmark op."""
        frame = self._enter("op", True, kind)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name, fn, span=False, before=None, after=None):
        """``name`` may be a function of the call's args.  ``before(args)``
        runs ahead of the call and its result goes to ``after(args, ctx)``,
        both outside the timed frame."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            ctx = before(args) if before else None
            frame = tracer._enter(name(args) if callable(name) else name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if after:
                    after(args, ctx)

        return traced

    def _count_yields(self, name, gen_fn):
        tracer = self

        def traced(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                if tracer.stack:
                    tracer.counts[name] += 1
                yield item

        return traced

    # -- installation -----------------------------------------------------

    def _cache_misses(self, counter, *caches):
        """before/after hooks counting calls that grew any of the caches."""
        def size(_args):
            return sum(len(c) for c in caches)

        def grew(args, before):
            if size(args) > before:
                self.counts[counter] += 1
        return size, grew

    def install(self):
        """Patch ffmzv in this process; meant for a fresh worker process."""
        count = self.counts
        functions = [
            # (module, attribute, metric name, span, before, after)
            (relations, "evaluate_relation", "relations.eval", True, None,
             lambda a, _: count.update({"relations.terms": len(a[0].terms)})),
            (relations, "_factor_value", "relations.factor", False,
             *self._cache_misses("relations.factor.misses", zeta._trunc_cache,
                                 relations._residue_factor_cache)),
            (zeta, "_truncated_frac", "zeta.trunc", True,
             *self._cache_misses("zeta.trunc.misses", zeta._trunc_cache)),
            (zeta, "finite_mzv", "zeta.finite", True, None, None),
            (zeta, "vadic_mzv_auto", "zeta.vadic", True, None, None),
            (zeta, "vadic_mzv", "zeta.vadic_round", True, self._vadic_round,
             None),
            (zeta, "_top_terms", "zeta.dp", False, None,
             lambda a, _: count.update({"zeta.dp.cells": a[1] * len(a[0])})),
            (power_sums, "_exact_frac", "power_sums.exact", False,
             *self._cache_misses("power_sums.exact.misses",
                                 power_sums._exact_cache)),
            (power_sums, "_residue_sum", "power_sums.residue", False,
             *self._cache_misses("power_sums.residue.misses",
                                 power_sums._residue_cache)),
            (residue, "poly_inv_mod", "residue.inv_mod", False, None, None),
            (poly, "poly_ext_gcd", "poly.ext_gcd", False, None, None),
            (search, "find_relations", "search.find_relations", True, None,
             None),
            (search, "compare_with_universal", "search.compare", True, None,
             None),
            (search, "value_matrix", "search.value_matrix", True, None,
             lambda a, _: count.update({"search.columns": len(a[0])})),
            (linalg, "stack_rank", "linalg.stack_rank", True, None, None),
            (linalg, "nullspace", "linalg.nullspace", True, None, None),
            (harmonic, "check_thmC", "harmonic.check", True, None, None),
            (harmonic, "check_thmD", "harmonic.check", True, None, None),
            (harmonic, "mht_sum", "harmonic.mht_sum", False, None, None),
            (cli, "main", "cli.main", True, None, None),
        ]
        for module, attr, name, span, before, after in functions:
            orig = getattr(module, attr)
            _replace_everywhere(orig, self.wrap(name, orig, span, before,
                                                after))
        _replace_everywhere(poly.monic_polys,
                            self._count_yields("poly.monics_enumerated",
                                               poly.monic_polys))

        methods = [
            (poly.Poly, "__mul__", _mul_bucket, None),
            (poly.Poly, "__divmod__", "poly.divmod", None),
            (poly.Poly, "__add__", "poly.addsub", None),
            (poly.Poly, "__sub__", "poly.addsub", None),
            (ratfn.RationalFn, "__init__", "ratfn.normalize", None),
            (lfrac.LFrac, "__add__", "lfrac.add", None),
            (lfrac.LFrac, "__mul__", "lfrac.mul", None),
            (linalg.FqMatrix, "rref", "linalg.rref",
             lambda a, _: count.update({"linalg.rref.cells":
                                        a[0].rows * a[0].cols})),
        ] + [(residue.ResidueElem, m, "residue.arith", None)
             for m in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__",
                       "inv", "scale_int")]
        for cls, attr, name, after in methods:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr),
                                         span=(attr == "rref"), after=after))
        return self

    def _vadic_round(self, args):
        """Counts vadic_mzv rounds made by vadic_mzv_auto, and how far each
        round's D lies past the exact bound N*deg(v) + 1."""
        if self.stack and self.stack[-1][0] == "zeta.vadic":
            v, _, cfg, _ = args
            self.counts["zeta.vadic.rounds"] += 1
            self.counts["zeta.vadic.excess_D"] += cfg.D - (cfg.N * v.degree()
                                                           + 1)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metrics, as plain numbers."""
        calls, self_s, count = self.calls, self.self_s, self.counts
        out = {}
        buckets = ("poly.mul.deg_lt32", "poly.mul.deg_32_255",
                   "poly.mul.deg_ge256")
        out["poly.mul.calls"] = sum(calls[b] for b in buckets)
        out["poly.mul.self_s"] = sum(self_s[b] for b in buckets)
        for b in ("ge256", "lt32"):
            out[f"poly.mul.calls_deg_{b}"] = calls[f"poly.mul.deg_{b}"]
            out[f"poly.mul.self_s_deg_{b}"] = self_s[f"poly.mul.deg_{b}"]
        for name in ("poly.divmod", "poly.addsub", "poly.ext_gcd"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["poly.monics_enumerated"] = count["poly.monics_enumerated"]
        for name in ("ratfn.normalize", "lfrac.add", "lfrac.mul",
                     "residue.inv_mod", "residue.arith"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in ("power_sums.exact", "power_sums.residue"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.misses"] = count[f"{name}.misses"]
            out[f"{name}.self_s"] = self_s[name]
        ps_calls = calls["power_sums.exact"] + calls["power_sums.residue"]
        ps_misses = (count["power_sums.exact.misses"]
                     + count["power_sums.residue.misses"])
        out["power_sums.hit_ratio"] = ((ps_calls - ps_misses) / ps_calls
                                       if ps_calls else 0.0)
        out["zeta.dp.calls"] = calls["zeta.dp"]
        out["zeta.dp.cells"] = count["zeta.dp.cells"]
        out["zeta.dp.self_s"] = self_s["zeta.dp"]
        out["zeta.trunc.calls"] = calls["zeta.trunc"]
        out["zeta.trunc.misses"] = count["zeta.trunc.misses"]
        auto = calls["zeta.vadic"]
        rounds = count["zeta.vadic.rounds"]
        out["zeta.vadic.calls"] = auto
        out["zeta.vadic.rounds"] = rounds / auto if auto else 0.0
        out["zeta.vadic.excess_D"] = (count["zeta.vadic.excess_D"] / rounds
                                      if rounds else 0.0)
        out["zeta.finite.calls"] = calls["zeta.finite"]
        out["zeta.finite.self_s"] = self_s["zeta.finite"]
        out["relations.eval.calls"] = calls["relations.eval"]
        out["relations.eval.self_s"] = self_s["relations.eval"]
        out["relations.terms"] = count["relations.terms"]
        out["relations.factor.calls"] = calls["relations.factor"]
        out["relations.factor.misses"] = count["relations.factor.misses"]
        out["linalg.rref.calls"] = calls["linalg.rref"]
        out["linalg.rref.cells"] = count["linalg.rref.cells"]
        out["linalg.rref.self_s"] = self_s["linalg.rref"]
        out["search.value_matrix.calls"] = calls["search.value_matrix"]
        out["search.value_matrix.self_s"] = self_s["search.value_matrix"]
        out["search.columns"] = count["search.columns"]
        out["harmonic.mht_sum.calls"] = calls["harmonic.mht_sum"]
        out["harmonic.mht_sum.self_s"] = self_s["harmonic.mht_sum"]
        out["harmonic.check.self_s"] = self_s["harmonic.check"]
        out["cli.main.calls"] = calls["cli.main"]
        out["cli.main.self_s"] = self_s["cli.main"]
        # time inside ops that no wrapped layer covers
        out["unattributed_s"] = self_s["op"]
        return out

    def dump(self, path):
        """Write the spans, and calls and self time of every wrapped name,
        as JSON."""
        layers = {name: {"calls": self.calls[name], "self_s": self.self_s[name]}
                  for name in sorted(self.calls)}
        with open(path, "w") as fh:
            json.dump({"layers": layers,
                       "counts": dict(self.counts),
                       "spans": [dict(zip(("name", "start", "end", "parent",
                                           "kind"), s))
                                 for s in self.spans]}, fh)


def _replace_everywhere(orig, wrapped):
    """Rebind every ffmzv module attribute that holds ``orig``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "ffmzv"
                                  or mod_name.startswith("ffmzv.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapped)

