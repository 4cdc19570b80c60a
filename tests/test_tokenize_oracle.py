"""The lexer against the stdlib ``tokenize`` as an oracle.

On code that ``compile`` accepts, ``lex`` must give the token stream of
``tokenize`` mapped to stylekit tokens:

* ENCODING, NL and ENDMARKER are dropped;
* NAME is a ``Keyword`` when ``keyword.iskeyword`` says so and an
  ``Identifier`` otherwise; OP is ``Punct`` when it is in ``lexer.PUNCTS``
  and an ``Operator`` otherwise;
* NEWLINE, INDENT and DEDENT have empty text, and INDENT and DEDENT sit at
  column 0;
* columns are display columns: tabs expanded to stops of 4, counted after
  the last form feed among the line's leading blanks.

The intended divergences listed in the ``stylekit.lexer`` docstring are
mapped too, and ``test_listed_divergences`` pins each. The inputs are every
top-level stdlib module, as is and with its trailing newlines stripped, the
archetype corpus and held-out files, and texts built from the lexer
differential test's fragments. The line profile's comment flags are held to
``tokenize`` on the stdlib modules that compile and on the archetype files.
From Python 3.12 ``tokenize`` splits an f-string into parts (PEP 701), so the
oracle runs on earlier versions only.
"""

from __future__ import annotations

import io
import keyword
import sys
import sysconfig
import tokenize
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import archetype_corpus as ac
from stylekit.lexer import PUNCTS, lex, line_profile, normalize_newlines, split_lines
from text_strategies import FRAGMENTS

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="tokenize splits f-strings (PEP 701)")

STDLIB = sorted(Path(sysconfig.get_paths()["stdlib"]).glob("*.py"))

_SYNTHETIC = {tokenize.NEWLINE: "Newline", tokenize.INDENT: "Indent",
              tokenize.DEDENT: "Dedent"}


def display_col(line: str, col: int) -> int:
    """The display column of a character offset: tabs to stops of 4, counted
    after the last form feed among the line's leading blanks."""
    start = line.rfind("\f", 0, len(line) - len(line.lstrip(" \t\f"))) + 1
    return len(line[start:col].expandtabs(4))


def oracle(source: str) -> list[tuple]:
    """``tokenize`` of a source as ``(kind, text, line, col)`` stylekit
    tokens, with the listed divergences mapped."""
    text = normalize_newlines(source)
    lines = text.split("\n")
    out = []
    depth = 0
    open_line = False  # a token since the last Newline
    prev = None
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        typ, string, (line, col) = tok.type, tok.string, tok.start
        if typ == tokenize.NL and prev == tokenize.COMMENT and depth == 0:
            typ = tokenize.NEWLINE  # a comment-only line outside brackets
        prev = tok.type
        if typ in (tokenize.DEDENT, tokenize.ENDMARKER) and open_line:
            # The file ends, with no final newline, in a comment on a line
            # continued by a backslash join.
            out.append(("Newline", "", len(lines), display_col(lines[-1], len(lines[-1]))))
            open_line = False
        if typ in (tokenize.ENCODING, tokenize.NL, tokenize.ENDMARKER):
            continue
        if typ == tokenize.NEWLINE and not open_line:
            continue  # a logical line that holds only a backslash join
        if typ in _SYNTHETIC:
            kind, string = _SYNTHETIC[typ], ""
            open_line = open_line and typ != tokenize.NEWLINE
        else:
            open_line = True
            if typ == tokenize.NAME:
                kind = "Keyword" if keyword.iskeyword(string) else "Identifier"
            elif typ == tokenize.OP:
                kind = "Punct" if string in PUNCTS else "Operator"
                depth += (string in ("(", "[", "{")) - (string in (")", "]", "}"))
            else:
                kind = tokenize.tok_name[typ].capitalize()
        if typ in (tokenize.INDENT, tokenize.DEDENT):
            col = 0
        else:
            col = display_col(lines[line - 1], col)
        out.append((kind, string, line, col))
    return out


def lexed(source: str) -> list[tuple]:
    return [(t.kind.value, t.text, t.line, t.col) for t in lex(source)]


def compiles(source: str) -> bool:
    """Whether ``compile`` accepts the text the lexer sees."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # SyntaxWarning, DeprecationWarning
        try:
            compile(normalize_newlines(source), "<fragments>", "exec")
        except SyntaxError:
            return False
    return True


def test_stdlib_modules_match_tokenize():
    texts = [(p.name, p.read_text(encoding="utf-8")) for p in STDLIB]
    texts += [(name + " stripped", text.rstrip("\n")) for name, text in texts]
    checked, bad = 0, []
    for name, text in texts:
        try:
            want = oracle(text)
        except (tokenize.TokenError, SyntaxError):
            continue  # a module tokenize rejects
        checked += 1
        if lexed(text) != want:
            bad.append(name)
    assert checked > 100
    assert bad == []


def test_archetype_files_match_tokenize():
    files = ac.make_corpus(60, seed=0) + ac.make_heldout(10, seed=1)
    assert any("\t" in source for _, source, _ in files)
    assert [name for name, source, _ in files if lexed(source) != oracle(source)] == []


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join))
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@example(" \\\n\x0c")          # a blank continued last line: Dedent on the next line
@example("if x:\n  y\n  ")      # a blank last line: Dedent on it
@example("5..a\n")             # a trailing-dot float before a second dot
@example("1..real\n")
@example("1...\n")             # compile rejects it; test_lexer.py pins its tokens
def test_fragment_texts_match_tokenize(source):
    assume(compiles(source))
    assert lexed(source) == oracle(source)


@pytest.mark.parametrize("source", [
    "a  =\tb \t+  c\n",
    "x = f( y ,\t\tz )  *\t 2\n",
    "if a  and\t\tb :\n\tc =  d\n",
    "x =\x0c y\x0c \t+ z\n",
    "x = (a\t+\x0c\x0c b) . c\n",
])
def test_blank_runs_after_names_and_operators_match_tokenize(source):
    """Runs of spaces, tabs and form feeds in the middle of a line, after a
    name or an operator: the handlers that take them keep the columns."""
    assert compiles(source)
    assert lexed(source) == oracle(source)


@pytest.mark.parametrize("source, tokenize_types, lex_kinds", [
    # A comment-only line outside brackets ends with a Newline, not an NL.
    ("# c\nx\n", ["COMMENT", "NL", "NAME", "NEWLINE"],
     ["Comment", "Newline", "Identifier", "Newline"]),
    # A logical line that holds only a backslash join has no Newline.
    ("\\\n  \nx\n", ["NEWLINE", "NAME", "NEWLINE"], ["Identifier", "Newline"]),
    # A file that ends, with no final newline, in a comment on a line
    # continued by a backslash join still ends with a Newline.
    ("x\\\n# c", ["NAME", "COMMENT"], ["Identifier", "Comment", "Newline"]),
])
def test_listed_divergences(source, tokenize_types, lex_kinds):
    raw = tokenize.generate_tokens(io.StringIO(source).readline)
    assert [tokenize.tok_name[t.type] for t in raw][:-1] == tokenize_types  # no ENDMARKER
    assert [kind for kind, *_ in lexed(source)] == lex_kinds
    assert lexed(source) == oracle(source)


# Tokens that mark layout, not source text on a line.
_LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER)


def comment_flags_oracle(source: str) -> list[tuple[bool, bool]]:
    """(comment-only, inline comment) of each line by ``tokenize``: a line
    holds a comment when a COMMENT sits on it, and code when any other token
    but a layout one spans it."""
    text = normalize_newlines(source)
    comment, code = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return [(line in comment and line not in code, line in comment and line in code)
            for line in range(1, len(split_lines(text)) + 1)]


def comment_flags(source: str) -> list[tuple[bool, bool]]:
    return [(rec.is_comment_only, rec.has_inline_comment)
            for rec in line_profile(source).lines]


def test_comment_flags_match_tokenize():
    texts = [(p.name, p.read_text(encoding="utf-8")) for p in STDLIB]
    texts = [(name, text) for name, text in texts if compiles(text)]
    texts += [(name, source) for name, source, _ in
              ac.make_corpus(60, seed=0) + ac.make_heldout(10, seed=1)]
    assert len(texts) > 150
    flagged, bad = 0, []
    for name, text in texts:
        want = comment_flags_oracle(text)
        flagged += sum(flags != (False, False) for flags in want)
        if comment_flags(text) != want:
            bad.append(name)
    assert flagged > 10_000
    assert bad == []
