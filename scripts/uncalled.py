"""Print each function of src/ffmzv that no end-to-end run calls.

    python3 scripts/uncalled.py

The runs, all made in this process:

- every ``mzv`` line of the README's CLI block;
- every CLI run of ``.github/workflows/tests.yml``: each literal ``python -m
  ffmzv.cli ARGS``, and each call of a shell function whose body runs
  ``python -m ffmzv.cli [PREFIX] "$@"``, with the call's leading positional
  arguments (expected exit code, verdict, digest) dropped;
- a few more CLI runs in ``EXTRA``: the csv and plain formats, a partial
  v-adic sum, thm3, q = 3;
- one seed-0 unit of each benchmark workload (``perfbench/workloads.py``,
  read and never edited), every op run and gated and every finish gate run.

``sys.settrace`` records the code object of every Python call.  Each
function or method defined in src/ffmzv whose code never ran is printed as
``file:line qualname (n lines)``, then the totals.  A nested function is
listed, but its lines count once, in the outermost uncalled function.  An
uncalled function is a candidate for deletion, not a verdict: a test or a
script may still use it as a reference, and an error path no run reaches
may still guard one.  It takes ~25 s on a 2-vCPU VM, ~15 s of it the two
high-N searches of CI (N = 16 over t, N = 7 over t^2+t+1), traced.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ffmzv"
SUBCOMMANDS = {"compute", "verify", "search", "harmonic", "primes"}

EXTRA = [
    "compute --tuple '(1,2)' --D 3 --format csv",
    "verify --family thm2 --tuple '(1,2,3)' --evaluator finite --v t "
    "--format plain",
    "compute --tuple '(1,2)' --v t --N 3 --D 2 --star",
    "verify --family thm3 --pairs '(1:2),(3:2)' --evaluator trunc --D 3",
    "verify --family thm3 --pairs '(1:2),(3:2)' --evaluator finite --v t+1 "
    "--star",
    "compute --q 3 --tuple '(2,4)' --v t --N 2",
]


def functions() -> dict[tuple[str, int], tuple[str, int, int]]:
    """(file, first line) -> (qualname, first line, last line) of every
    function defined in src/ffmzv; the first line is that of the first
    decorator, as in the function's code object."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                name = prefix + child.name
                out[(str(path), first)] = (name, first, child.end_lineno)
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.resolve(), "")
    return out


def readme_runs() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("mzv ")]


def _cli_args(text: str) -> list[str] | None:
    """The arguments of a ``python -m ffmzv.cli`` run up to the first
    unquoted ``|``, ``)`` or ``>``; None if they come from ``"$@"``."""
    lexer = shlex.shlex(text, posix=True, punctuation_chars="|)>")
    lexer.whitespace_split = True
    args = []
    for token in lexer:
        if token[0] in "|)>":
            break
        args.append(token)
    return None if "$@" in args else args


def ci_runs() -> list[list[str]]:
    lines = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    runs, prefixes, current = [], {}, None
    for line in lines.splitlines():
        stripped = line.strip()
        m = re.match(r"(\w+)\(\) \{", stripped)
        if m:
            current = m[1]
        if current is not None:
            if "ffmzv.cli" in stripped:
                body = stripped.split("ffmzv.cli", 1)[1]
                prefixes[current] = body.split('"$@"', 1)[0].split()
            if stripped.endswith("}"):
                current = None
            continue
        if "ffmzv.cli " in stripped:
            args = _cli_args(stripped.split("ffmzv.cli ", 1)[1])
            if args is not None:
                runs.append(args)
            continue
        name, _, rest = stripped.partition(" ")
        if name in prefixes:
            args = shlex.split(rest)
            while args and not (args[0] in SUBCOMMANDS
                                or args[0].startswith("--")):
                args.pop(0)  # positional expectations of the function
            runs.append(prefixes[name] + args)
    return runs


def run_workloads() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    ops = 0
    for name in workloads.WORKLOADS:
        unit = workloads.build(name, workloads.DEFAULT_SEED)
        for op in unit.ops:
            op.check(op.run())
        for gate in unit.finish:
            gate()
        ops += len(unit.ops)
    return ops


def main() -> int:
    table = functions()
    seen = set()

    def trace(frame, event, arg):
        seen.add(frame.f_code)

    sys.path.insert(0, str(ROOT / "src"))
    cli_runs = {"README": readme_runs(), "CI": ci_runs(),
                "extra": [shlex.split(line) for line in EXTRA]}
    sys.settrace(trace)
    try:
        from ffmzv import cli
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for argv in (a for runs in cli_runs.values() for a in runs):
                cli.main(argv)
            ops = run_workloads()
    finally:
        sys.settrace(None)

    called = {(str(Path(c.co_filename).resolve()), c.co_firstlineno)
              for c in seen}
    uncalled = sorted((key, value) for key, value in table.items()
                      if key not in called)
    lines, outer = 0, ("", 0)
    for (path, _), (name, first, last) in uncalled:
        print(f"{Path(path).relative_to(ROOT)}:{first} {name} "
              f"({last - first + 1} lines)")
        if (path, first) > outer:  # not nested in the last one counted
            lines += last - first + 1
            outer = (path, last)
    print(f"{len(uncalled)} of {len(table)} functions ({lines} lines) "
          f"never called by "
          + ", ".join(f"{len(runs)} {src} CLI runs"
                      for src, runs in cli_runs.items())
          + f" and {ops} seed-0 benchmark ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
