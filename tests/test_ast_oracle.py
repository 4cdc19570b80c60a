"""Function records against the stdlib ``ast`` as an oracle.

On every top-level stdlib module of at most 100 KB that ``ast.parse``
accepts, ``parse_functions`` must list the same defs as the
``FunctionDef``/``AsyncFunctionDef`` nodes, in ``(lineno, col_offset)``
order, with the same names, parameter names (posonly, args, vararg,
kwonly, kwarg), parameter and return annotation flags and docstring flags,
and the same statement counters over each def's own body (nested defs
skipped, classes not):

* ``return_count``: ``Return`` nodes;
* ``branch_count``: ``If`` nodes, ``elif`` included;
* ``control_count``: ``If`` nodes whose source does not start with
  ``elif``, and ``For``, ``AsyncFor``, ``While``, ``With``, ``AsyncWith``
  and ``Try`` nodes;
* ``has_try``: any ``Try`` node;
* ``except_clauses``: per handler in source order, bare with no type,
  generic for a lone ``Exception`` or ``BaseException`` name, and
  specific otherwise.

``body_line_span`` and ``max_call_depth`` are not checked here.
"""

from __future__ import annotations

import ast
import sysconfig
from pathlib import Path

import pytest

from stylekit.syntax import ExceptKind, parse_functions

STDLIB = [p for p in sorted(Path(sysconfig.get_paths()["stdlib"]).glob("*.py"))
          if p.stat().st_size <= 100_000]


_CONTROLS = (ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try)


def oracle_counters(func: ast.AST, lines: list[str]) -> tuple:
    returns = branches = controls = 0
    has_try = False
    handlers = []
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Return):
            returns += 1
        elif isinstance(node, ast.If):
            branches += 1
            controls += not lines[node.lineno - 1][node.col_offset:].startswith("elif")
        elif isinstance(node, _CONTROLS):
            controls += 1
            has_try = has_try or isinstance(node, ast.Try)
        elif isinstance(node, ast.ExceptHandler):
            handlers.append(node)
    handlers.sort(key=lambda h: (h.lineno, h.col_offset))
    kinds = tuple(
        ExceptKind.BARE if h.type is None
        else ExceptKind.GENERIC if isinstance(h.type, ast.Name)
        and h.type.id in ("Exception", "BaseException")
        else ExceptKind.SPECIFIC
        for h in handlers
    )
    return returns, branches, controls, has_try, kinds


def oracle_records(tree: ast.Module, source: str) -> list[tuple]:
    lines = source.split("\n")
    defs = sorted(
        (node for node in ast.walk(tree)
         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))),
        key=lambda node: (node.lineno, node.col_offset),
    )
    out = []
    for node in defs:
        a = node.args
        params = [*a.posonlyargs, *a.args, *([a.vararg] if a.vararg else []),
                  *a.kwonlyargs, *([a.kwarg] if a.kwarg else [])]
        out.append((
            node.name,
            tuple((p.arg, p.annotation is not None) for p in params),
            node.returns is not None,
            ast.get_docstring(node, clean=False) is not None,
            *oracle_counters(node, lines),
        ))
    return out


def our_records(source: str) -> list[tuple]:
    return [
        (rec.name, tuple((p.name, p.has_annotation) for p in rec.params),
         rec.has_return_annotation, rec.has_docstring, rec.return_count,
         rec.branch_count, rec.control_count, rec.has_try, rec.except_clauses)
        for rec in parse_functions(source)
    ]


def test_stdlib_defs_match_ast():
    checked, diverged = 0, []
    for path in STDLIB:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        checked += 1
        if our_records(source) != oracle_records(tree, source):
            diverged.append(path.name)
    assert checked > 50
    assert diverged == []


# Shapes the stdlib has few of: a class body inside a def, inline bodies,
# ``elif`` chains, ``async`` loops and every except kind.
CASES = [
    "def f(x):\n    class C(B(x)):\n        if x:\n            y = 1\n        try:\n"
    "            pass\n        except:\n            pass\n    return C\n",
    "def f(x):\n    if x: return 1\n    elif x > 1:\n        return 2\n    else:\n"
    "        for i in x:\n            with i: pass\n    def g():\n"
    "        while True:\n            return 3\n    return g\n",
    "async def f(x):\n    async for i in x:\n        async with i: return i\n"
    "    try: pass\n    except (ValueError, Exception): pass\n"
    "    except BaseException as e: raise\n    except Exception: pass\n",
]


@pytest.mark.parametrize("source", CASES)
def test_hand_written_cases_match_ast(source):
    assert our_records(source) == oracle_records(ast.parse(source), source)
