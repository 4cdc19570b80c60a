#!/usr/bin/env python3
"""Regenerate the golden style vectors from hand analysis.

Each snippet below was analyzed by hand against the documented feature
definitions: identifier sets and their case categories, binary-operator
spacing, modal indent units, per-function statement counts, and duplicate
lines are all written down as literal data. This script only does the
remaining arithmetic (character counts, means, population variance) and
serializes the result, so the expected values stay independent of the
analyzer implementation.

Run from the repository root:  python3 golden/make_goldens.py
"""

import json
import string
from fractions import Fraction
from pathlib import Path

TAB = 4

NAMES = [
    "name_length", "is_snake_case", "underscore_ratio", "digit_ratio",
    "symbol_ratio", "uppercase_ratio", "lowercase_ratio", "dist_PascalCase",
    "dist_snake_case", "dist_camelCase", "dist_UPPER_CASE", "dist_private",
    "dist_dunder", "naming_consistency",
    "blank_line_count", "line_length_avg", "line_length_variance",
    "indentation_level_avg", "space_before_operator", "comment_ratio",
    "type_hint_ratio", "indentation_consistency", "space_pattern_code",
    "call_depth", "branch_count", "return_count", "arg_count", "length",
    "has_docstring", "has_try_except", "exception_score", "redundancy_ratio",
    "annotation_ratio", "control_structures",
]

CASE_CATS = ("pascal", "snake", "camel", "upper")


def expand_cols(ws):
    col = 0
    for ch in ws:
        col += TAB - (col % TAB) if ch == "\t" else 1
    return col


def mean(xs):
    return sum(xs) / len(xs) if xs else Fraction(0)


def pvar(xs):
    if not xs:
        return Fraction(0)
    m = mean(xs)
    return sum((x - m) ** 2 for x in xs) / len(xs)


def f(x):
    return float(x)


def compute(snip):
    src = snip["source"]
    lines = src.splitlines()
    nonblank = [l for l in lines if l.strip()]

    # -- naming -------------------------------------------------------------
    ids = snip["identifiers"]  # list of (text, category)
    n = len(ids)
    chars = sum(len(t) for t, _ in ids)
    letters = sum(1 for t, _ in ids for c in t if c.isalpha())
    upper = sum(1 for t, _ in ids for c in t if c.isupper())
    lower = sum(1 for t, _ in ids for c in t if c.islower())
    unders = sum(t.count("_") for t, _ in ids)
    digits = sum(1 for t, _ in ids for c in t if c.isdigit())
    punct = sum(1 for c in src if c in string.punctuation)
    non_ws = sum(1 for c in src if not c.isspace())
    dist = {c: Fraction(sum(1 for _, cat in ids if cat == c), n) if n else Fraction(0)
            for c in ("pascal", "snake", "camel", "upper", "private", "dunder")}
    naming = {
        "name_length": Fraction(chars, n) if n else Fraction(0),
        "is_snake_case": Fraction(
            sum(1 for t, _ in ids if not any(c.isupper() for c in t)), n
        ) if n else Fraction(0),
        "underscore_ratio": Fraction(unders, chars) if chars else Fraction(0),
        "digit_ratio": Fraction(digits, chars) if chars else Fraction(0),
        "symbol_ratio": Fraction(punct, non_ws) if (n and non_ws) else Fraction(0),
        "uppercase_ratio": Fraction(upper, letters) if (n and letters) else Fraction(0),
        "lowercase_ratio": Fraction(lower, letters) if (n and letters) else Fraction(0),
        "dist_PascalCase": dist["pascal"],
        "dist_snake_case": dist["snake"],
        "dist_camelCase": dist["camel"],
        "dist_UPPER_CASE": dist["upper"],
        "dist_private": dist["private"],
        "dist_dunder": dist["dunder"],
        "naming_consistency": max(dist[c] for c in CASE_CATS) if n else Fraction(0),
    }

    # -- layout ---------------------------------------------------------------
    blank = sum(1 for l in lines if not l.strip())
    lengths = [Fraction(len(l)) for l in nonblank]
    lead_cols = [expand_cols(l[: len(l) - len(l.lstrip())]) for l in nonblank]
    indented = [c for c in lead_cols if c > 0]
    ops = snip["binary_ops"]  # list of (text, preceded_by_space)
    occupied = 0
    for row in [l.expandtabs(TAB) for l in lines[:24]]:
        occupied += sum(1 for c in row[:64] if not c.isspace())
    layout = {
        "blank_line_count": Fraction(blank, len(lines)) if lines else Fraction(0),
        "line_length_avg": mean(lengths),
        "line_length_variance": pvar(lengths),
        "indentation_level_avg": mean([Fraction(c, TAB) for c in lead_cols]),
        "space_before_operator": Fraction(
            sum(1 for _, sp in ops if sp), len(ops)
        ) if ops else Fraction(0),
        "comment_ratio": Fraction(snip["comment_lines"], len(nonblank))
        if nonblank else Fraction(0),
        "type_hint_ratio": Fraction(snip["arrow_defs"], snip["defs"])
        if snip["defs"] else Fraction(0),
        "indentation_consistency": Fraction(
            snip["consistent_indented"], len(indented)
        ) if indented else Fraction(1),
        "space_pattern_code": Fraction(occupied, 24 * 64),
    }

    # -- structural -----------------------------------------------------------
    funcs = snip["functions"]  # per-function hand counts
    params = sum(fn["params"] for fn in funcs)
    annotated = sum(fn["annotated"] for fn in funcs)
    exc_total = snip["except_total"]
    structural = {
        "call_depth": mean([Fraction(fn["depth"]) for fn in funcs]),
        "branch_count": mean([Fraction(fn["branch"]) for fn in funcs]),
        "return_count": mean([Fraction(fn["ret"]) for fn in funcs]),
        "arg_count": mean([Fraction(fn["args"]) for fn in funcs]),
        "length": mean([Fraction(fn["length"]) for fn in funcs]),
        "has_docstring": mean([Fraction(fn["doc"]) for fn in funcs]),
        "has_try_except": mean([Fraction(fn["try"]) for fn in funcs]),
        "exception_score": Fraction(snip["except_specific"], exc_total)
        if exc_total else Fraction(0),
        "redundancy_ratio": Fraction(snip["dup_extra"], snip["code_lines"])
        if snip["code_lines"] else Fraction(0),
        "annotation_ratio": Fraction(annotated, params) if params else Fraction(0),
        "control_structures": mean([Fraction(fn["ctrl"]) for fn in funcs]),
    }

    raw = {}
    raw.update(naming)
    raw.update(layout)
    raw.update(structural)
    assert list(raw) == NAMES
    return {k: f(v) for k, v in raw.items()}


def fn(depth=0, branch=0, ret=0, args=0, length=1, doc=0, try_=0, ctrl=0,
       params=0, annotated=0):
    return {"depth": depth, "branch": branch, "ret": ret, "args": args,
            "length": length, "doc": doc, "try": try_, "ctrl": ctrl,
            "params": params, "annotated": annotated}


SNIPPETS = [
    {
        "name": "add_nums",
        "source": "def add_nums(a, b):\n    return a + b",
        "identifiers": [("add_nums", "snake"), ("a", "snake"), ("b", "snake")],
        "binary_ops": [("+", True)],
        "comment_lines": 0, "defs": 1, "arrow_defs": 0,
        "consistent_indented": 1,
        "functions": [fn(ret=1, args=2, length=1, params=2)],
        "except_specific": 0, "except_total": 0,
        "dup_extra": 0, "code_lines": 2,
    },
    {
        "name": "assign_only",
        "source": "x = 1",
        "identifiers": [("x", "snake")],
        "binary_ops": [("=", True)],
        "comment_lines": 0, "defs": 0, "arrow_defs": 0,
        "consistent_indented": 0,
        "functions": [fn(length=1)],
        "except_specific": 0, "except_total": 0,
        "dup_extra": 0, "code_lines": 1,
    },
    {
        "name": "naming_mix",
        "source": (
            "class DataFrame:\n"
            "    MAX_SIZE = 10\n"
            "    def getValue(self):\n"
            "        return self._cache\n"
            "\n"
            "def __init_state__():\n"
            "    _temp = MAX_SIZE"
        ),
        "identifiers": [
            ("DataFrame", "pascal"), ("MAX_SIZE", "upper"), ("getValue", "camel"),
            ("self", "snake"), ("__init_state__", "dunder"), ("_temp", "private"),
        ],
        "binary_ops": [("=", True), ("=", True)],
        "comment_lines": 0, "defs": 2, "arrow_defs": 0,
        "consistent_indented": 4,
        "functions": [fn(ret=1, length=1), fn(length=1)],
        "except_specific": 0, "except_total": 0,
        "dup_extra": 0, "code_lines": 6,
    },
    {
        "name": "digits_upper",
        "source": "X1 = 1\nY2 = X1 * 2",
        "identifiers": [("X1", "upper"), ("Y2", "upper")],
        "binary_ops": [("=", True), ("=", True), ("*", True)],
        "comment_lines": 0, "defs": 0, "arrow_defs": 0,
        "consistent_indented": 0,
        "functions": [fn(length=2)],
        "except_specific": 0, "except_total": 0,
        "dup_extra": 0, "code_lines": 2,
    },
    {
        "name": "layout_blanks",
        "source": "# header comment\na = 1\n\nb = 2  # inline note\n\n\nc = 3",
        "identifiers": [("a", "snake"), ("b", "snake"), ("c", "snake")],
        "binary_ops": [("=", True), ("=", True), ("=", True)],
        "comment_lines": 2, "defs": 0, "arrow_defs": 0,
        "consistent_indented": 0,
        "functions": [fn(length=7)],
        "except_specific": 0, "except_total": 0,
        "dup_extra": 0, "code_lines": 3,
    },
    {
        "name": "indent_mix",
        "source": "def f():\n  x = 1\n  if x:\n   y = 2\n  return x",
        "identifiers": [("f", "snake"), ("x", "snake"), ("y", "snake")],
        "binary_ops": [("=", True), ("=", True)],
        "comment_lines": 0, "defs": 1, "arrow_defs": 0,
        # modal leading-column value is 2; the 3-column line misses it
        "consistent_indented": 3,
        "functions": [fn(branch=1, ret=1, length=4, ctrl=1)],
        "except_specific": 0, "except_total": 0,
        "dup_extra": 0, "code_lines": 5,
    },
    {
        "name": "tabs_file",
        "source": "def g():\n\tif True:\n\t\treturn 2\n\treturn 1",
        "identifiers": [("g", "snake")],
        "binary_ops": [],
        "comment_lines": 0, "defs": 1, "arrow_defs": 0,
        "consistent_indented": 3,
        "functions": [fn(branch=1, ret=2, length=3, ctrl=1)],
        "except_specific": 0, "except_total": 0,
        "dup_extra": 0, "code_lines": 4,
    },
    {
        "name": "calls_deep",
        "source": "def h(n):\n    total=sum(map(abs,n))\n    return total+1",
        "identifiers": [("h", "snake"), ("n", "snake"), ("total", "snake")],
        "binary_ops": [("=", False), ("+", False)],
        "comment_lines": 0, "defs": 1, "arrow_defs": 0,
        "consistent_indented": 2,
        "functions": [fn(depth=2, ret=1, args=1, length=2, params=1)],
        "except_specific": 0, "except_total": 0,
        "dup_extra": 0, "code_lines": 3,
    },
    {
        "name": "annotated",
        "source": (
            "def scale(value: float, factor: float = 2.0) -> float:\n"
            '    """Scale a value."""\n'
            "    return value * factor"
        ),
        "identifiers": [("scale", "snake"), ("value", "snake"), ("factor", "snake")],
        "binary_ops": [("=", True), ("->", True), ("*", True)],
        "comment_lines": 0, "defs": 1, "arrow_defs": 1,
        "consistent_indented": 2,
        "functions": [fn(ret=1, args=2, length=2, doc=1, params=2, annotated=2)],
        "except_specific": 0, "except_total": 0,
        "dup_extra": 0, "code_lines": 3,
    },
    {
        "name": "try_except",
        "source": (
            "def load(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except FileNotFoundError:\n"
            "        return None\n"
            "    except Exception:\n"
            "        pass"
        ),
        "identifiers": [("load", "snake"), ("path", "snake")],
        "binary_ops": [],
        "comment_lines": 0, "defs": 1, "arrow_defs": 0,
        "consistent_indented": 6,
        "functions": [fn(depth=1, ret=2, args=1, length=6, try_=1, ctrl=1, params=1)],
        "except_specific": 1, "except_total": 2,
        "dup_extra": 0, "code_lines": 7,
    },
    {
        "name": "redundant",
        "source": "print(1)\nprint(1)\nprint(1)\nx = 2",
        "identifiers": [("x", "snake")],
        "binary_ops": [("=", True)],
        "comment_lines": 0, "defs": 0, "arrow_defs": 0,
        "consistent_indented": 0,
        "functions": [fn(depth=1, length=4)],
        "except_specific": 0, "except_total": 0,
        "dup_extra": 2, "code_lines": 4,
    },
    {
        "name": "two_funcs",
        "source": (
            "def first(a, b, c):\n"
            "    if a:\n"
            "        return b\n"
            "    return c\n"
            "\n"
            "def second():\n"
            "    for i in range(3):\n"
            "        print(i)"
        ),
        "identifiers": [
            ("first", "snake"), ("a", "snake"), ("b", "snake"), ("c", "snake"),
            ("second", "snake"), ("i", "snake"),
        ],
        "binary_ops": [],
        "comment_lines": 0, "defs": 2, "arrow_defs": 0,
        "consistent_indented": 5,
        "functions": [
            fn(branch=1, ret=2, args=3, length=3, ctrl=1, params=3),
            fn(depth=1, length=2, ctrl=1),
        ],
        "except_specific": 0, "except_total": 0,
        "dup_extra": 0, "code_lines": 7,
    },
    {
        "name": "docstring_module",
        "source": '"""Utility constants."""\n\nVERSION = "1.0"',
        "identifiers": [("VERSION", "upper")],
        "binary_ops": [("=", True)],
        "comment_lines": 0, "defs": 0, "arrow_defs": 0,
        "consistent_indented": 0,
        "functions": [fn(length=3, doc=1)],
        "except_specific": 0, "except_total": 0,
        "dup_extra": 0, "code_lines": 2,
    },
    {
        "name": "walrus_as_tabs",
        "source": (
            "import os as system\n"
            'TEXT = """\n'
            "# not a comment\n"
            '"""\n'
            "values=[1,\n"
            "        # first\n"
            "        2]\n"
            "def pick(items, key):\n"
            "\tif (found := key) in items:  # inline\n"
            "\t\treturn items[found] + 1\n"
            "\treturn f(g(h(items)))[key]"
        ),
        # ``as`` and walrus targets bind in statements that open with a
        # keyword; ``os`` is the imported module, not a binding.
        "identifiers": [
            ("system", "snake"), ("TEXT", "upper"), ("values", "snake"),
            ("pick", "snake"), ("items", "snake"), ("key", "snake"), ("found", "snake"),
        ],
        # The last two sit on tab-indented lines, where display column and
        # offset differ.
        "binary_ops": [("=", True), ("=", False), (":=", True), ("+", True)],
        # "# first" inside the brackets and the inline "# inline"; the line
        # inside the string is code.
        "comment_lines": 2, "defs": 1, "arrow_defs": 0,
        # modal leading column is 8: two spaced lines and one of two tabs;
        # the two one-tab lines (4 columns) miss it
        "consistent_indented": 3,
        # f(g(h(...))) nests three calls; the subscript after it is none
        "functions": [fn(depth=3, branch=1, ret=2, args=2, length=3, ctrl=1, params=2)],
        "except_specific": 0, "except_total": 0,
        # every line but the comment-only one, none repeated
        "dup_extra": 0, "code_lines": 10,
    },
]


def main():
    out_dir = Path(__file__).parent
    for snip in SNIPPETS:
        doc = {
            "name": snip["name"],
            "source": snip["source"],
            "raw": compute(snip),
        }
        path = out_dir / f"{snip['name']}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
