"""Function records against the stdlib ``ast`` as an oracle.

On every top-level stdlib module of at most 100 KB that ``ast.parse``
accepts, ``parse_functions`` must list the same defs as the
``FunctionDef``/``AsyncFunctionDef`` nodes, in ``(lineno, col_offset)``
order, with the same names, parameter names (posonly, args, vararg,
kwonly, kwarg), parameter and return annotation flags and docstring flags.
"""

from __future__ import annotations

import ast
import sysconfig
from pathlib import Path

from stylekit.syntax import parse_functions

STDLIB = [p for p in sorted(Path(sysconfig.get_paths()["stdlib"]).glob("*.py"))
          if p.stat().st_size <= 100_000]


def oracle_records(tree: ast.Module) -> list[tuple]:
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
        ))
    return out


def our_records(source: str) -> list[tuple]:
    return [
        (rec.name, tuple((p.name, p.has_annotation) for p in rec.params),
         rec.has_return_annotation, rec.has_docstring)
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
        if our_records(source) != oracle_records(tree):
            diverged.append(path.name)
    assert checked > 50
    assert diverged == []
