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
  specific otherwise;
* ``body_line_span``: from the first line of the def's first body
  statement (its first decorator, if it has any) to the last line of the
  last simple statement anywhere in the body, nested defs included;
* ``max_call_depth``: the deepest ``Call`` nesting in the header's
  parameters and return annotation and in the body, nested defs skipped
  but their decorators not. A call's depth is 1 plus the deepest call in
  its arguments, not in the called expression, so ``a().b()`` has depth 1;
  an f-string is opaque.

The intended divergences listed in the ``stylekit.features`` docstring are
pinned by ``test_listed_call_depth_divergences``.
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
_COMPOUND = (*_CONTROLS, ast.If, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
             ast.Match, getattr(ast, "TryStar", ast.Try))  # ``except*`` is 3.11+


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


def oracle_span(func: ast.AST) -> int:
    simple = [node for node in ast.walk(ast.Module(body=func.body, type_ignores=[]))
              if isinstance(node, ast.stmt) and not isinstance(node, _COMPOUND)]
    first = func.body[0]  # every block bottoms out in a simple statement
    lo = min([first.lineno, *(d.lineno for d in getattr(first, "decorator_list", ()))])
    return max(node.end_lineno for node in simple) - lo + 1


def call_depth(node: ast.AST) -> int:
    if isinstance(node, ast.JoinedStr):
        return 0
    if isinstance(node, ast.Call):
        inner = max(map(call_depth, [*node.args, *node.keywords]), default=0)
        return max(1 + inner, call_depth(node.func))
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return max(map(call_depth, node.decorator_list), default=0)
    return max(map(call_depth, ast.iter_child_nodes(node)), default=0)


def oracle_call_depth(func: ast.AST) -> int:
    return max(map(call_depth, [func.args, *filter(None, [func.returns]), *func.body]))


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
            oracle_span(node),
            oracle_call_depth(node),
        ))
    return out


def our_records(source: str) -> list[tuple]:
    return [
        (rec.name, tuple((p.name, p.has_annotation) for p in rec.params),
         rec.has_return_annotation, rec.has_docstring, rec.return_count,
         rec.branch_count, rec.control_count, rec.has_try, rec.except_clauses,
         rec.body_line_span, rec.max_call_depth)
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
    # decorators open a body, and a body can end inside a nested def
    "def f():\n    @a(\n        b(c()))\n    class C(B(x), metaclass=M(y(z))):\n"
    "        def g(self, k=h(i())): pass\n    def h():\n        return (1,\n"
    "                2)\n",
    # call depth, one rule per def: through arguments and not the called
    # expression, f-strings opaque, defaults and annotations in the header
    "def f1(a=lambda: g(h())): pass\n"
    "def f2(*, b: t(u(v())) = 1): pass\n"
    "def f3() -> r(s()): pass\n"
    "def f4(): return a().b()\n"
    "def f5(): return a()[0](c(d()))\n"
    "def f6(): return (p)(q(r))\n"
    "def f7(): return f'{e(f(g()))}'.join(k(*m()))\n"
    "def f8(): return {k: v() for k, v in w(x())}\n"
    "def f9(): return j[k():l(m())]\n",
    "async def f():\n    async with a(b()) as c, d(e(f())) as g:\n"
    "        await (h)(i())\n",
]


@pytest.mark.parametrize("source", CASES)
def test_hand_written_cases_match_ast(source):
    assert our_records(source) == oracle_records(ast.parse(source), source)


# Intended divergences of ``max_call_depth`` from the oracle, each listed in
# the ``stylekit.features`` docstring: (source, ours, the oracle's).
CALL_DEPTH_DIVERGENCES = [
    # ``match`` and ``case`` are names to the lexer, so a paren after them,
    # and a class pattern, count as calls
    ("def f(x):\n    match (x):\n        case P(Q(y)):\n            pass\n", 2, 0),
    # a call on a literal, a keyword constant or a ``{...}`` display does not count
    ("def f():\n    return g('{}'(x), 1(y), None(w), {}(z))\n", 1, 2),
]


@pytest.mark.parametrize("source, ours, oracle", CALL_DEPTH_DIVERGENCES)
def test_listed_call_depth_divergences(source, ours, oracle):
    [rec] = parse_functions(source)
    func = ast.parse(source).body[0]
    assert (rec.max_call_depth, oracle_call_depth(func)) == (ours, oracle)
