"""Mutation pass over one or more modules of the package.

Each mutant changes one operator or constant of a module: + and -, * and /
swapped; < and <=, > and >=, == and != swapped; a numeric constant doubled
(an int raised by 1, a zero float made 1.0); a ``not`` or a unary minus
dropped.  Every mutant is written into a temporary copy of the tree, never
into the working tree, and Tier-1 (``tests`` and ``perfbench``, the module's
own test file first) runs on it with ``-x`` under a timeout of TIMEOUT
seconds, in as many tree copies at once as the machine has cores.  A mutant
the tests pass survives; one that runs out of time counts as timed out.
Survivors reviewed as equivalent are listed with their reasons in
``equivalent_mutants.json`` next to this script, as
``{"mutant": "<key as the report prints it>", "reason": "..."}``, so the
report names only new ones; the exit status is 1 when there are any.

    python tools/mutants.py src/geoladders/ladders.py src/geoladders/analysis.py

Standard library only; it is a development tool, not a test step.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = Path(__file__).resolve().with_name("equivalent_mutants.json")
TIMEOUT = 300.0  # seconds per test run; Tier-1 takes well under a minute

_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}


def _variants(node):
    """The mutants of node itself, one per site it holds."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) \
            and type(node.op) in _SWAPS:
        new = copy.copy(node)
        new.op = _SWAPS[type(node.op)]()
        yield new
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _SWAPS:
                new = copy.copy(node)
                new.ops = [*node.ops]
                new.ops[i] = _SWAPS[type(op)]()
                yield new
    elif isinstance(node, ast.UnaryOp) \
            and isinstance(node.op, (ast.Not, ast.USub)):
        yield node.operand
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = node.value
        yield ast.Constant(value + 1 if isinstance(value, int)
                           else 2.0 * value if value else 1.0)


class _Mutate(ast.NodeTransformer):
    """Numbers the sites of a module in source order and replaces the one
    numbered target by its mutant; count ends as the number of sites."""

    def __init__(self, target: int):
        self.target, self.count, self.stack, self.found = target, 0, [], None

    def visit(self, node):
        variants = list(_variants(node))
        k = self.target - self.count
        self.count += len(variants)
        if 0 <= k < len(variants):
            self.found = _Site(node, variants[k], self.stack)
            return variants[k]
        self.stack.append(node)
        node = self.generic_visit(node)
        self.stack.pop()
        return node


class _Site:
    """Where a mutant is (the enclosing def and class names) and what it
    changes: the node itself for an operator or comparison, its parent
    expression for a constant or a dropped operator, and the parameter for
    a default value.  Made before the mutant replaces the node."""

    def __init__(self, node, new, ancestors):
        self.line, self.new = node.lineno, new
        self.scope = ".".join(a.name for a in ancestors if isinstance(
            a, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        parent, self.context, self.label = ancestors[-1], None, ""
        if isinstance(parent, ast.arguments):
            params = [*parent.posonlyargs, *parent.args]
            names = dict(zip(map(id, parent.defaults),
                             params[len(params) - len(parent.defaults):]))
            names.update(zip(map(id, parent.kw_defaults), parent.kwonlyargs))
            self.label = f"default {names[id(node)].arg}="
        elif isinstance(node, (ast.Constant, ast.UnaryOp)) \
                and isinstance(parent, ast.expr):
            self.context = parent
        self.before = ast.unparse(self.context or node)

    def key(self, module: Path) -> str:
        """The key once the mutant is in the tree."""
        after = ast.unparse(self.context or self.new)
        return (f"{module.name}::{self.scope or '<module>'}: "
                f"{self.label}{self.before} -> {after}")


def mutants(module: Path):
    """(key, line, source) of each mutant of the module; a key repeated
    within the module gets #k appended at its k-th occurrence."""
    source = module.read_text(encoding="utf-8")
    counter = _Mutate(-1)
    counter.visit(ast.parse(source))
    out, seen = [], {}
    for k in range(counter.count):
        mutate = _Mutate(k)
        tree = mutate.visit(ast.parse(source))
        key = mutate.found.key(module)
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key += f" #{seen[key]}"
        out.append((key, mutate.found.line, ast.unparse(tree)))
    return out


def _run_tests(tree: Path, module: Path) -> str:
    """'killed', 'timeout' or 'survived' for the tree as it stands."""
    own = Path("tests") / f"test_{module.stem}.py"
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *([str(own)] if (tree / own).exists() else []), "tests", "perfbench"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def _pass(module: Path, plan, trees, equivalent) -> int:
    """Run every mutant of one module; prints the survivors and a count
    line, and returns the number of survivors not listed as equivalent."""
    rel = module.relative_to(ROOT)
    # the unparsed module, unmutated, must pass: the mutants are unparsed
    # too, so they are compared with it, not with the file as written
    baseline = ast.unparse(ast.parse(module.read_text(encoding="utf-8")))
    for tree in trees:
        (tree / rel).write_text(baseline, encoding="utf-8")
    if _run_tests(trees[0], module) != "survived":
        raise SystemExit(f"{rel}: the tests fail on the unmutated module")
    free, start = queue.Queue(), time.monotonic()
    for tree in trees:
        free.put(tree)

    def run(mutant):
        key, line, source = mutant
        tree = free.get()
        try:
            (tree / rel).write_text(source, encoding="utf-8")
            return key, line, _run_tests(tree, module)
        finally:
            (tree / rel).write_text(baseline, encoding="utf-8")
            free.put(tree)

    with ThreadPoolExecutor(len(trees)) as pool:
        results = list(pool.map(run, plan))
    counts = dict.fromkeys(("killed", "timeout", "equivalent", "survived"), 0)
    for key, line, outcome in results:
        if outcome == "survived" and key in equivalent:
            outcome = "equivalent"
        elif key in equivalent:
            print(f"LISTED BUT {outcome.upper()} {rel}:{line}  {key}")
        elif outcome == "survived":
            print(f"SURVIVED {rel}:{line}  {key}")
        counts[outcome] += 1
    generated = {key for key, _, _ in plan}
    for key in equivalent:
        if key.startswith(f"{module.name}::") and key not in generated:
            print(f"LISTED BUT NOT GENERATED  {key}")
    print(f"{rel}: {len(results)} mutants, {counts['killed']} killed, "
          f"{counts['timeout']} timed out, {counts['equivalent']} listed "
          f"equivalent, {counts['survived']} survived "
          f"({time.monotonic() - start:.0f} s)", flush=True)
    return counts["survived"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("modules", nargs="+", type=Path,
                    help="module files under src/, e.g. src/geoladders/ladders.py")
    args = ap.parse_args(argv)
    equivalent = {e["mutant"]: e["reason"]
                  for e in json.loads(EQUIVALENT.read_text(encoding="utf-8"))}
    modules = [m.resolve() for m in args.modules]
    plans = {m: mutants(m) for m in modules}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        trees = [Path(tmp) / f"tree{j}" for j in range(os.cpu_count() or 1)]
        for tree in trees:
            shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", "out", "*.egg-info"))
        survivors = sum(_pass(m, plans[m], trees, equivalent)
                        for m in modules)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
