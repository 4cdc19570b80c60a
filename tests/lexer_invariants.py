"""Invariants of ``stylekit.lexer.lex`` that hold on any text and need no
second lexer to check.

``violations(source)`` lists, as messages, every invariant that ``lex``
breaks on one text; an empty list means it keeps them all:

* (a) **Coverage**, on the ``normalize_newlines`` text. Every character lies
  in exactly one non-synthetic token, except blanks (space, tab, form feed),
  line feeds and the backslash of a backslash-newline join. Each token's text
  is the slice at the offset its ``(line, col)`` names, on lines 1..n of
  ``split_lines``. ``(line, col)`` never decreases, and a synthetic token sits
  at most at ``(n + 1, 0)``, where ``tokenize`` puts its closing DEDENT and
  ENDMARKER.
* (b) **Strict vs lenient.** Strict mode raises a declared ``LexError`` or
  gives exactly lenient mode's tokens.
* (c) **Lenient errors.** Lenient mode raises only ``InvalidCharacter``.
* (d) **Structure.** The running count of ``Indent`` minus ``Dedent`` never
  goes negative and ends at 0; on text whose bracket tokens balance,
  ``bracket_depths`` puts the last closer at depth 0.

(a) and (d) are checked on the lenient tokens; (b) carries them over to
strict mode. For code that compiles, ``test_tokenize_oracle.py`` holds the
stream to the stdlib ``tokenize`` as well. This module imports only the
stdlib and ``stylekit.lexer``, so a bare interpreter can run it over its own
stdlib::

    import sys; sys.path[:0] = ["src", "tests"]
    from lexer_invariants import stdlib_modules, violations
    assert not [p for p in stdlib_modules() if violations(p.read_text("utf-8"))]
"""

from __future__ import annotations

import re
import sysconfig
from pathlib import Path

from stylekit.lexer import (
    TAB_WIDTH,
    InvalidCharacter,
    LexError,
    Token,
    TokenKind,
    bracket_depths,
    lex,
    normalize_newlines,
    split_lines,
)

# What may lie between two tokens: blanks, line feeds and backslash joins.
_GAP_RE = re.compile(r"(?:[ \t\f\n]|\\\n)*")
_OPENERS = ("(", "[", "{")
_CLOSERS = (")", "]", "}")


def stdlib_modules() -> list[Path]:
    """This interpreter's top-level stdlib modules, sorted."""
    return sorted(Path(sysconfig.get_paths()["stdlib"]).glob("*.py"))


def column_offset(line: str, col: int) -> int | None:
    """The offset in ``line`` of the character that starts at display column
    ``col``, or None if no character does. Tabs stop every ``TAB_WIDTH``
    columns; the count starts after the last form feed among the line's
    leading blanks."""
    start = line.rfind("\f", 0, len(line) - len(line.lstrip(" \t\f"))) + 1
    if line.find("\t", start) < 0:
        return start + col if 0 <= col < len(line) - start else None
    width = 0
    for at in range(start, len(line)):
        if width >= col:
            return at if width == col else None
        width += TAB_WIDTH - width % TAB_WIDTH if line[at] == "\t" else 1
    return None


def coverage(text: str, tokens: list[Token]) -> list[str]:
    """(a) for the tokens of newline-normalized ``text``."""
    lines = split_lines(text)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line) + 1)
    after_text = (len(lines) + 1, 0)
    problems = []
    last = (1, 0)
    end = 0  # offset after the last non-synthetic token
    for tok in tokens:
        where = (tok.line, tok.col)
        if where < last:
            problems.append(f"(a) {tok} comes before {last}")
        last = where
        if tok.is_synthetic():
            if tok.text or where > after_text:
                problems.append(f"(a) {tok} is not empty at or before {after_text}")
            continue
        at = column_offset(lines[tok.line - 1], tok.col) if 1 <= tok.line <= len(lines) else None
        if at is None:
            problems.append(f"(a) {tok} names no character of lines 1..{len(lines)}")
            continue
        at += starts[tok.line - 1]
        if not tok.text or not text.startswith(tok.text, at):
            problems.append(f"(a) {tok} is not the text at offset {at}")
        elif at < end:
            problems.append(f"(a) {tok} overlaps the token before it")
        elif not _GAP_RE.fullmatch(text, end, at):
            problems.append(f"(a) {text[end:at]!r} before {tok} lies in no token")
        end = max(end, at + len(tok.text))
    if not _GAP_RE.fullmatch(text, end):
        problems.append(f"(a) {text[end:]!r} at the end lies in no token")
    return problems


def structure(tokens: list[Token]) -> list[str]:
    """(d)."""
    problems = []
    level = depth = 0
    balanced, last_closer = True, None
    for i, tok in enumerate(tokens):
        if tok.kind is TokenKind.INDENT:
            level += 1
        elif tok.kind is TokenKind.DEDENT:
            level -= 1
            if level < 0:
                problems.append(f"(d) {tok} closes no Indent")
                level = 0
        elif tok.kind is TokenKind.PUNCT and tok.text in _OPENERS:
            depth += 1
        elif tok.kind is TokenKind.PUNCT and tok.text in _CLOSERS:
            depth -= 1
            balanced = balanced and depth >= 0
            last_closer = i
    if level:
        problems.append(f"(d) {level} Indent tokens have no Dedent")
    if balanced and depth == 0 and last_closer is not None:
        if bracket_depths(tokens)[last_closer] != 0:
            problems.append(f"(d) the last closer, {tokens[last_closer]}, is not at depth 0")
    return problems


def violations(source: str) -> list[str]:
    """Every invariant, (a) to (d), that ``lex`` breaks on ``source``."""
    try:
        lenient = lex(source, lenient=True)
    except InvalidCharacter as exc:
        lenient = exc
    except Exception as exc:  # any other class breaks (c)
        return [f"(c) lenient mode raised {exc!r}"]
    try:
        strict = lex(source)
    except LexError as exc:
        strict = exc
    except Exception as exc:  # an undeclared error breaks (b)
        return [f"(b) strict mode raised {exc!r}"]
    if isinstance(lenient, InvalidCharacter):
        return [] if isinstance(strict, LexError) else [
            f"(b) strict mode gave tokens where lenient mode raised {lenient!r}"]
    problems = [] if isinstance(strict, LexError) or strict == lenient else [
        "(b) strict mode's tokens differ from lenient mode's"]
    return problems + coverage(normalize_newlines(source), lenient) + structure(lenient)
