"""Deletion mutants of ``src/bellkit/``: which statements and operands could go
without a tier-1 test failing.

A mutant is the tree with one change to one module, written back with
``ast.unparse``:

- one statement of a function body, at any depth, becomes ``pass``: every
  statement that is not a docstring and holds no ``raise``, ``return`` or
  ``yield``;
- one operand of an ``and`` or ``or`` is dropped.

Each mutant runs its module's test files (``MODULE_TESTS``) with ``-x
--hypothesis-seed=0``, so that a verdict repeats.  A failing run kills it, and
so does a run past its time limit.  A mutant that survives its test files
runs the whole tier-1 suite, and one that survives that too is looked up in
the ledger, ``tools/mutants.txt``, which lists the accepted survivors with
their reasons.  Before its mutants, each module's unmutated ``ast.unparse``
must pass its test files and tier-1, and the time of each of those two runs
sets the limit of the same run for every mutant of the module
(:func:`time_limit`).

Everything runs in copies of the whole tree in a temporary directory, one per
worker: pytest's ``pythonpath = ["src"]`` puts the tree's own ``src`` first,
so a copy of ``src`` alone would test the checkout.  The checkout is never
written.  Standard library only; not part of tier-1.  Run from the
repository root::

    python tools/mutants.py                     # every module of MODULE_TESTS
    python tools/mutants.py noise.py lhv.py     # the named modules

It prints each module's tally and every survivor, and exits 1 when a
survivor is not in the ledger.  A ledger entry is a key line,
``<module> <function>: <mutation>``, as the report prints it, followed by
indented lines that give the reason; ``#`` starts a comment line.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tools" / "mutants.txt"
# a mutant's run may take this many times the unmutated run, and at least
# MIN_LIMIT seconds: the unmutated run has the machine to itself, while the
# mutants share it between the workers
SLOWDOWN = 4
MIN_LIMIT = 20
WORKERS = 2  # tree copies, each running one pytest at a time
MODULE_TESTS = {
    "cli.py": ["tests/test_cli.py", "tests/test_golden.py"],
    "exprformat.py": ["tests/test_exprformat.py"],
    "lhv.py": ["tests/test_lhv.py"],
    "noise.py": ["tests/test_noise.py"],
    "optimize.py": ["tests/test_optimize.py"],
    "quantum.py": ["tests/test_quantum.py"],
    "scenario.py": ["tests/test_scenario.py", "tests/test_correlator_form.py"],
}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_EXITS = (ast.Raise, ast.Return, ast.Yield, ast.YieldFrom)
_COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def _is_docstring(statement: ast.stmt, owner: ast.AST, index: int) -> bool:
    return (
        index == 0
        and isinstance(owner, (ast.Module, *_SCOPES))
        and isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and isinstance(statement.value.value, str)
    )


def _deletable(statement: ast.stmt, owner: ast.AST, index: int) -> bool:
    return not (
        isinstance(statement, ast.Pass)
        or _is_docstring(statement, owner, index)
        or any(isinstance(node, _EXITS) for node in ast.walk(statement))
    )


def _sites(tree: ast.Module) -> list:
    """Every mutant of ``tree`` in source order, as (scope, mutation, apply):
    the enclosing function's dotted name, the mutation's text and a function
    that makes the change in ``tree`` in place."""
    sites = []

    def visit(node: ast.AST, scope: tuple, in_function: bool) -> None:
        name = ".".join(scope) or "<module>"
        for _, value in ast.iter_fields(node):
            children = value if isinstance(value, list) else [value]
            for index, child in enumerate(children):
                if not isinstance(child, ast.AST):
                    continue
                if in_function and isinstance(child, ast.stmt) and _deletable(child, node, index):
                    text = f"delete `{ast.unparse(child).splitlines()[0]}`"
                    delete = lambda body=value, i=index: body.__setitem__(i, ast.Pass())
                    sites.append((name, text, delete))
                if isinstance(child, ast.BoolOp):
                    whole = ast.unparse(child)
                    for i, operand in enumerate(child.values):
                        text = f"drop `{ast.unparse(operand)}` from `{whole}`"
                        sites.append((name, text, lambda op=child, i=i: op.values.pop(i)))
                inner = scope + (child.name,) if isinstance(child, _SCOPES) else scope
                visit(child, inner, in_function or isinstance(child, _FUNCTIONS))

    visit(tree, (), False)
    return sites


def mutants(module: str, source: str) -> list:
    """(key, mutated source) for every mutant of ``module``; a key that repeats
    within one function gets its occurrence number."""
    seen = Counter()
    result = []
    for index, (scope, text, _) in enumerate(_sites(ast.parse(source))):
        key = f"{module} {scope}: {text}"
        seen[key] += 1
        tree = ast.parse(source)  # a fresh tree for each change
        _sites(tree)[index][2]()
        result.append((key if seen[key] == 1 else f"{key} (#{seen[key]})", ast.unparse(tree)))
    return result


def read_ledger(path: Path = LEDGER) -> dict:
    """Ledger key -> reason."""
    entries, key = {}, None
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace():
            entries[key] = f"{entries[key]} {line.strip()}".strip()
        else:
            key = line.rstrip()
            entries[key] = ""
    return entries


def time_limit(seconds: float) -> float:
    """The limit of a mutant's run, given the unmutated run's ``seconds`` on the
    same tests."""
    return max(SLOWDOWN * seconds, MIN_LIMIT)


def _pytest(tree: Path, tests: list, timeout) -> tuple:
    """('passed' | 'failed' | 'timeout', seconds) for tier-1 or ``tests`` in
    ``tree``, stopped past ``timeout`` seconds unless that is None."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    command += ["--hypothesis-seed=0", *tests]
    # its own session, so that a timeout ends the subprocesses the tests start too
    # before the tree takes the next mutant
    start = time.monotonic()
    run = subprocess.Popen(
        command,
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = run.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        return "timeout", time.monotonic() - start
    return "passed" if code == 0 else "failed", time.monotonic() - start


def _verdict(tree: Path, module: str, source: str, limits: tuple) -> tuple:
    """('killed' | 'timeout' | 'survived', seconds of each run) for ``source`` in
    place of ``module``: its test files, then, if they pass, tier-1, each run
    stopped past its entry of ``limits``."""
    path = tree / "src" / "bellkit" / module
    original = path.read_text(encoding="utf-8")
    path.write_text(source, encoding="utf-8")
    try:
        outcome, seconds = _pytest(tree, MODULE_TESTS[module], limits[0])
        times = [seconds]
        if outcome == "passed":
            outcome, seconds = _pytest(tree, [], limits[1])
            times.append(seconds)
    finally:
        path.write_text(original, encoding="utf-8")
    return {"passed": "survived", "failed": "killed", "timeout": "timeout"}[outcome], times


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", default=list(MODULE_TESTS), metavar="MODULE")
    args = parser.parse_args(argv)
    unknown = [module for module in args.modules if module not in MODULE_TESTS]
    if unknown:
        parser.error(f"no tests mapped for {', '.join(unknown)}; known: {', '.join(MODULE_TESTS)}")
    ledger = read_ledger()
    survivors, matched = [], set()

    with tempfile.TemporaryDirectory(prefix="bellkit-mutants-") as scratch:
        trees = queue.Queue()
        for worker in range(WORKERS):
            trees.put(Path(shutil.copytree(ROOT, Path(scratch) / str(worker), ignore=_COPY_IGNORE)))

        def run(module: str, source: str, limits: tuple) -> tuple:
            tree = trees.get()
            try:
                return _verdict(tree, module, source, limits)
            finally:
                trees.put(tree)

        for module in args.modules:
            source = (ROOT / "src" / "bellkit" / module).read_text(encoding="utf-8")
            verdict, times = run(module, ast.unparse(ast.parse(source)), (None, None))
            if verdict != "survived":
                print(f"{module}: the unmutated unparse fails tier-1; stopped")
                return 1
            limits = tuple(map(time_limit, times))
            found = mutants(module, source)
            with ThreadPoolExecutor(WORKERS) as pool:
                runs = list(pool.map(lambda item: run(module, item[1], limits), found))
            verdicts = [verdict for verdict, _ in runs]
            tally = Counter(verdicts)
            killed = tally["killed"] + tally["timeout"]
            timeouts = tally["timeout"]
            print(
                f"{module}: {killed} of {len(found)} killed ({timeouts} by timeout; "
                f"limits {limits[0]:.0f} s for its tests, {limits[1]:.0f} s for tier-1)",
                flush=True,
            )
            for (key, _), verdict in zip(found, verdicts):
                if verdict == "survived":
                    matched.add(key)
                    if key not in ledger:
                        survivors.append(key)
                    note = "" if key in ledger else " (not in the ledger)"
                    print(f"  survived{note}: {key}", flush=True)

    for key in ledger:
        if key.split(" ", 1)[0] in args.modules and key not in matched:
            print(f"ledger entry no mutant survived as: {key}")
    print(f"{len(survivors)} survivors not in the ledger")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
