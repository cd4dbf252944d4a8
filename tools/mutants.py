"""Mutation sweep of one module of the numeric core.

    python tools/mutants.py decoder [site ...]

Each mutant makes one change to ``src/p300speller/<module>.py``: it swaps
+ and -, * and /, < and <=, > and >=, == and !=, or ``and`` and ``or``, or
adds 1 to a numeric constant.  The module's test file, ``test_acceptance.py``
and ``test_pipeline.py`` then run with ``-x``; the mutant is killed if they
fail (or run past ``TIMEOUT_S``) and survives if they pass.  Without site
numbers every site runs, in source order.  The module is rewritten in place
(as ``ast.unparse`` output, which must pass the tests unchanged) and restored
after each run, so run the sweep on a copy of the repository.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And}
TIMEOUT_S = 600
ROOT = Path(__file__).resolve().parent.parent


def sites(tree) -> list:
    """(node, slot) per site, in source order: slot is the index into a
    Compare's ops, "op" for a BinOp or BoolOp, "value" for a number."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            found.append((node, "op"))
        elif isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((node, "value"))
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset))


def mutate(node, slot) -> str:
    """Make one site's change in place, and describe it."""
    if slot == "value":
        old, node.value = node.value, node.value + 1
        return f"line {node.lineno}: {old!r} -> {node.value!r}"
    old = node.op if slot == "op" else node.ops[slot]
    new = SWAPS[type(old)]()
    if slot == "op":
        node.op = new
    else:
        node.ops[slot] = new
    return f"line {node.lineno}: {type(old).__name__} -> {type(new).__name__}"


def tests_pass(module: str) -> bool:
    tests = [f"tests/test_{module}.py", "tests/test_acceptance.py", "tests/test_pipeline.py"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *tests], cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
    return run.returncode == 0


def main(module: str, chosen: list[int]) -> None:
    path = ROOT / "src" / "p300speller" / f"{module}.py"
    source = path.read_text()
    try:
        path.write_text(ast.unparse(ast.parse(source)))
        if not tests_pass(module):
            sys.exit(f"{module}: the tests fail on the unmutated module")
        order, survivors = chosen or range(len(sites(ast.parse(source)))), 0
        for k in order:
            tree = ast.parse(source)
            what = mutate(*sites(tree)[k])
            path.write_text(ast.unparse(tree))
            try:
                verdict = "survived" if tests_pass(module) else "killed"
            except subprocess.TimeoutExpired:
                verdict = "killed (timeout)"
            survivors += verdict == "survived"
            print(f"{module} site {k}: {what}: {verdict}", flush=True)
        print(f"{module}: {survivors} of {len(order)} mutants survived")
    finally:
        path.write_text(source)


if __name__ == "__main__":
    main(sys.argv[1], [int(k) for k in sys.argv[2:]])
