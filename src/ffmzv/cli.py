"""Command-line surface: reproducible batch runs over the evaluators,
relation families, relation search, and harmonic identity checks.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 usage error,
3 unwritable output path.  Reports are byte-identical across runs for
identical arguments; every number is rendered exactly (polynomial strings,
never floats).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from functools import cache

from .errors import FFMzvError, ParseError
from .fields import FieldSpec, is_prime
from .harmonic import (GFRing, RationalRing, TruncatedPolyRing, ZModRing,
                       check_thmC, check_thmD, random_instance)
from .poly import (Poly, irreducible_polys, is_irreducible, parse_int,
                   parse_poly)
from .relations import (Thm3Config, evaluate_relation, gen_thm2, gen_thm3,
                        gen_thmA, gen_thmB)
from .search import SearchScope, compare_with_universal, find_relations
from .zeta import (Finite, TruncatedExact, TruncationConfig, Vadic,
                   exact_bound, finite_mzv, parse_composition, truncated_mzv,
                   vadic_mzv, vadic_mzv_auto)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept: one build per process,
    not one per ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="mzv",
        description="Exact zeta-value computations over F_q(t): truncated, "
                    "finite, and v-adic evaluation, relation families, "
                    "relation search, and generic harmonic-sum checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, field=True):
        if field:
            p.add_argument("--q", type=parse_int, default=2,
                           help="field size (prime power)")
            p.add_argument("--modulus", default=None,
                           help="extension modulus, e.g. 'x^2+x+1'")
        p.add_argument("--format", choices=("json", "csv", "plain"),
                       default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("compute", help="evaluate one zeta value")
    common(p)
    p.add_argument("--tuple", required=True, help="composition, e.g. '(1,2)'")
    p.add_argument("--star", action="store_true")
    p.add_argument("--v", default=None, help="monic prime, e.g. 't^2+t+1'")
    p.add_argument("--D", type=parse_int, default=None, help="truncation bound")
    p.add_argument("--N", type=parse_int, default=None, help="v-adic precision")

    p = sub.add_parser("verify", help="evaluate a relation family instance")
    common(p)
    p.add_argument("--family", required=True,
                   choices=("thm2", "thm3", "thmA", "thmB"))
    p.add_argument("--tuple", default=None)
    p.add_argument("--pairs", default=None, help="e.g. '(1:3),(2:1)'")
    p.add_argument("--star", action="store_true")
    p.add_argument("--evaluator", required=True,
                   choices=("trunc", "finite", "vadic"))
    p.add_argument("--v", default=None)
    p.add_argument("--D", type=parse_int, default=None)
    p.add_argument("--N", type=parse_int, default=None,
                   help="v-adic precision (--evaluator vadic; default 4)")

    p = sub.add_parser("search", help="relation scan at fixed precision")
    common(p)
    p.add_argument("--v", required=True)
    p.add_argument("--weight-max", type=parse_int, required=True)
    p.add_argument("--depth-max", type=parse_int, required=True)
    p.add_argument("--N", type=parse_int, required=True)
    p.add_argument("--include-negatives", action="store_true")
    p.add_argument("--all-tuples", action="store_true",
                   help="drop the q-even-only filter")

    p = sub.add_parser("harmonic", help="random harmonic-identity checks")
    common(p, field=False)
    p.add_argument("--seed", type=parse_int, default=0)
    p.add_argument("--ring", default="zmod:12",
                   help="zmod:M | polymod:P:K | rationals | gf:Q")
    p.add_argument("--checks", type=parse_int, default=20)
    p.add_argument("--doubling", action="store_true",
                   help="check the characteristic-2 doubling identity")
    p.add_argument("--index-size", type=parse_int, default=4)
    p.add_argument("--magma-size", type=parse_int, default=3)

    p = sub.add_parser("primes", help="list monic irreducibles")
    common(p)
    p.add_argument("--degree-max", type=parse_int, required=True)

    return parser


def parse_args(argv) -> argparse.Namespace:
    return _build_parser().parse_args(argv)


def _field_spec(args) -> FieldSpec:
    text = f"q={args.q}"
    if args.modulus is not None:
        text += f";modulus={args.modulus}"
    return FieldSpec.parse(text)


def _parse_prime(text: str, spec: FieldSpec) -> Poly:
    v = parse_poly(text, spec)
    if not (v.is_monic() and is_irreducible(v)):
        raise ParseError(f"{text!r} is not a monic prime")
    return v


def _parse_pairs(text: str) -> Thm3Config:
    """Comma-separated (s:k) pairs and nothing else, e.g. "(1:2),(3:2)"."""
    pairs = []
    for part in text.split(","):
        m = re.fullmatch(r"\s*\(\s*(-?[0-9]+)\s*:\s*([0-9]+)\s*\)\s*", part)
        if m is None:
            raise ParseError(f"bad (s:k) pair {part!r} in {text!r}")
        pairs.append((int(m[1]), int(m[2])))
    return Thm3Config(tuple(pairs))


def _run_compute(args, spec: FieldSpec) -> dict:
    s = parse_composition(args.tuple)
    result = {"command": "compute", "q": spec.q, "tuple": str(s),
              "star": args.star}
    passed = True
    if args.N is not None:
        if args.v is None:
            raise ParseError("--N requires --v")
        v = _parse_prime(args.v, spec)
        if args.D is None:
            report = vadic_mzv_auto(v, s, args.N, args.star, spec)
        else:
            report = vadic_mzv(v, s, TruncationConfig(args.D, args.N, args.star),
                               spec)
        result.update(evaluator="vadic", v=str(v), N=args.N, D=report.D,
                      value=str(report.value), stabilized=report.stabilized,
                      stable_from=report.stable_from)
        # a partial sum below the exact bound proves nothing about the value
        passed = report.stabilized
    elif args.v is not None:
        v = _parse_prime(args.v, spec)
        if args.D is not None:
            raise ParseError(f"--D with --v needs --N; the finite value is "
                             f"exact at D = deg(v) = {v.degree()}")
        value = finite_mzv(v, s, args.star, spec)
        result.update(evaluator="finite", v=str(v), value=str(value))
    else:
        if args.D is None:
            raise ParseError("truncated evaluation requires --D")
        value = truncated_mzv(args.D, s, args.star, spec)
        result.update(evaluator="trunc", D=args.D, value=str(value))
    result["passed"] = passed
    return result


def _run_verify(args, spec: FieldSpec) -> dict:
    if args.family in ("thm2", "thmA"):
        if args.tuple is None:
            raise ParseError(f"--family {args.family} requires --tuple")
        s = parse_composition(args.tuple)
        rel = gen_thm2(s, spec) if args.family == "thm2" else gen_thmA(s, spec)
        inp = str(s)
    else:
        if args.pairs is None:
            raise ParseError(f"--family {args.family} requires --pairs")
        cfg = _parse_pairs(args.pairs)
        rel = gen_thm3(cfg, spec) if args.family == "thm3" else gen_thmB(cfg, spec)
        inp = ",".join(f"({s}:{k})" for s, k in cfg.pairs)

    # a flag the evaluator would ignore is refused, not dropped silently
    if args.N is not None and args.evaluator != "vadic":
        raise ParseError(f"--N is only for --evaluator vadic, "
                         f"not {args.evaluator}")
    if args.evaluator == "trunc":
        if args.v is not None:
            raise ParseError("--v is not used by --evaluator trunc")
        if args.D is None:
            raise ParseError("--evaluator trunc requires --D")
        evaluator = TruncatedExact(D=args.D, star=args.star)
        # a strict node of r entries has no chain below D = r: if every
        # generator has a longer node, the value is an empty sum, a vacuous
        # Zero
        least = min((max(len(entries) for _, entries in nodes)
                     for _, nodes in rel.generators), default=0)
        if not args.star and least > args.D:
            raise ParseError(
                f"--D {args.D} is below every generator: each has a node of "
                f"more than {args.D} entries, whose chain sum is empty; the "
                f"least D at which a generator can be nonzero is {least}")
    else:
        if args.v is None:
            raise ParseError(f"--evaluator {args.evaluator} requires --v")
        v = _parse_prime(args.v, spec)
        N = 4 if args.N is None else args.N
        if args.D is not None:
            # finite and v-adic values are summed to the degree where they
            # are exact; a partial sum would be a vacuous PASS
            exact = (f"deg(v) = {v.degree()}" if args.evaluator == "finite"
                     else f"N*deg(v)+1 = {exact_bound(v, N)}")
            raise ParseError(f"--D is only for --evaluator trunc; the "
                             f"{args.evaluator} value is exact at D = {exact}")
        evaluator = (Finite(v=v, star=args.star) if args.evaluator == "finite"
                     else Vadic(v=v, N=N, star=args.star))
    value, verdict = evaluate_relation(rel, evaluator)
    return {"command": "verify", "q": spec.q, "family": args.family,
            "input": inp, "evaluator": args.evaluator, "star": args.star,
            "terms": rel.term_count(), "value": str(value),
            "verdict": str(verdict), "passed": verdict.passed}


def _run_search(args, spec: FieldSpec) -> dict:
    v = _parse_prime(args.v, spec)
    scope = SearchScope(spec=spec, v=v, weight_max=args.weight_max,
                        depth_max=args.depth_max, N=args.N,
                        q_even_only=not args.all_tuples,
                        include_negatives=args.include_negatives)
    found = find_relations(scope)
    report = compare_with_universal(found, scope)
    report["command"] = "search"
    report["passed"] = report["containment"]
    return report


_RING_ARITY = {"zmod": 1, "polymod": 2, "rationals": 0, "gf": 1}


def _make_ring(text: str):
    kind, *params = text.split(":")
    if kind not in _RING_ARITY:
        raise ParseError(f"unknown ring {text!r}")
    if len(params) != _RING_ARITY[kind]:
        raise ParseError(f"ring {kind!r} takes {_RING_ARITY[kind]} "
                         f"parameter(s): {text!r}")
    if kind == "zmod":
        return ZModRing(parse_int(params[0]))
    if kind == "polymod":
        P, K = parse_int(params[0]), parse_int(params[1])
        if not is_prime(P):
            raise ParseError(f"polymod:P:K needs a prime P, got {P}")
        return TruncatedPolyRing(P, K)
    if kind == "rationals":
        return RationalRing()
    return GFRing(FieldSpec.parse(f"q={params[0]}"))


def _run_harmonic(args) -> dict:
    ring = _make_ring(args.ring)
    # no checks, or checks over empty index or exponent sets, would be a
    # vacuous PASS
    for flag, value in (("--checks", args.checks),
                        ("--index-size", args.index_size),
                        ("--magma-size", args.magma_size)):
        if value < 1:
            raise ParseError(f"{flag} must be >= 1, got {value}")
    if not args.doubling and args.magma_size < 3:
        raise ParseError(f"--magma-size must be >= 3 without --doubling, got "
                         f"{args.magma_size}: the depth-1 signed-permutation "
                         f"identity is x - x, true for every table")
    failures = []
    for i in range(args.checks):
        seed = args.seed + i
        inst = random_instance(seed, ring, (args.index_size, args.magma_size),
                               doubling=args.doubling)
        if args.doubling:
            pairs = tuple((s, 2 + (seed + j) % 2)
                          for j, s in enumerate(inst.base))
            residual, ok = check_thmD(inst, pairs)
        else:
            residual, ok = check_thmC(inst, inst.magma[:3])
        if not ok:
            failures.append({"seed": seed, "residual": ring.to_str(residual),
                             "instance": inst.to_json(seed)})
    return {"command": "harmonic", "ring": ring.name, "checks": args.checks,
            "doubling": args.doubling, "failures": failures,
            "passed": not failures}


def _run_primes(args, spec: FieldSpec) -> dict:
    primes = []
    for d in range(1, args.degree_max + 1):
        primes.extend(str(v) for v in irreducible_polys(spec, d))
    return {"command": "primes", "q": spec.q, "degree_max": args.degree_max,
            "primes": primes, "passed": True}


def _csv_rows(result: dict) -> list[list[str]]:
    if result["command"] == "primes":
        return [["prime"]] + [[p] for p in result["primes"]]
    if result["command"] == "search":
        header = ["key", "value"]
        rows = [[k, json.dumps(result[k], sort_keys=True)
                 if isinstance(result[k], (dict, list)) else str(result[k])]
                for k in sorted(result)]
        return [header] + rows
    keys = sorted(result)
    return [keys, [json.dumps(result[k], sort_keys=True)
                   if isinstance(result[k], (dict, list)) else str(result[k])
                   for k in keys]]


def emit_report(result: dict, args: argparse.Namespace) -> int:
    """Write the report in the requested format; return the exit code."""
    if args.format == "json":
        text = json.dumps(result, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(_csv_rows(result))
        text = buf.getvalue()
    else:
        text = "".join(f"{k}: {result[k]}\n" for k in sorted(result))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return 0 if result.get("passed", True) else 1


def main(argv=None) -> int:
    try:
        args = parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "compute":
            result = _run_compute(args, _field_spec(args))
        elif args.command == "verify":
            result = _run_verify(args, _field_spec(args))
        elif args.command == "search":
            result = _run_search(args, _field_spec(args))
        elif args.command == "harmonic":
            result = _run_harmonic(args)
        else:
            result = _run_primes(args, _field_spec(args))
    except (FFMzvError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return emit_report(result, args)


if __name__ == "__main__":
    sys.exit(main())
