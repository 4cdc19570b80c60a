"""Tokenizer and line profiling for Python-style source text.

Token positions are (1-based line, 0-based column). Columns are display
columns with tabs expanded to a stop every ``TAB_WIDTH`` columns, so all
downstream indentation math shares one measurement. Spaces, tabs and form
feeds are blanks, never tokens. Each physical line counts from after the
last form feed among its leading blanks, as in ``tokenize``, also inside
brackets, after a backslash join or a string.

``Newline``, ``Indent`` and ``Dedent`` are synthetic tokens with empty
text: ``Newline`` marks the end of a logical line (physical newlines
inside brackets or after a backslash join do not produce one), and
``Indent``/``Dedent`` mark indentation changes on code lines, at column
0. Blank and comment-only lines never touch the indent stack.

On code that ``compile`` accepts, the stream equals the stdlib ``tokenize``
of Python 3.11 (``tests/test_tokenize_oracle.py``; from 3.12 it splits
f-strings, one ``String`` here), NAME split by ``keyword.iskeyword`` and OP
by ``PUNCTS``, but for these intended divergences:

* a comment-only line outside brackets ends with a ``Newline``, not NL;
* a logical line that holds only a backslash join has no ``Newline``;
* a file that ends, with no final newline, in a comment on a line
  continued by a backslash join ends with a ``Newline``; ``tokenize``
  omits it.
"""

from __future__ import annotations

import enum
import re
import string
from dataclasses import dataclass
from typing import NamedTuple

TAB_WIDTH = 4

KEYWORDS = frozenset((
    "False", "None", "True", "and", "as", "assert", "async", "await",
    "break", "class", "continue", "def", "del", "elif", "else", "except",
    "finally", "for", "from", "global", "if", "import", "in", "is",
    "lambda", "nonlocal", "not", "or", "pass", "raise", "return", "try",
    "while", "with", "yield",
))

STRING_PREFIXES = frozenset((
    "r", "b", "u", "f", "rb", "br", "rf", "fr",
))

OPERATORS = (
    "**=", "//=", ">>=", "<<=",
    "==", "!=", "<=", ">=", "->", ":=", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "@=", "**", "//", "<<", ">>",
    "+", "-", "*", "/", "%", "@", "&", "|", "^", "~", "<", ">", "=",
)

PUNCTS = ("...", "(", ")", "[", "]", "{", "}", ",", ":", ".", ";")

_PUNCT_SET = frozenset(PUNCTS)
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")

# Longest match first. No punctuation token shares a prefix with an
# operator, so this equals trying every operator before any punctuation.
# Group 1 is the token; the match goes on over the blanks after it.
_OP_OR_PUNCT_RE = re.compile("(" + "|".join(
    re.escape(tok) for tok in sorted(OPERATORS + PUNCTS, key=len, reverse=True)
) + r")[ \t\f]*")
_BLANKS_RE = re.compile(r"[ \t\f]*")
# String bodies: a backslash takes the next character (a newline too) with
# it; a one-quote body also stops at a newline, unterminated.
_STRING_BODY_RE = {
    "'": re.compile(r"(?:[^'\\\n]+|\\[\s\S]?)*"),
    '"': re.compile(r'(?:[^"\\\n]+|\\[\s\S]?)*'),
    "'''": re.compile(r"(?:[^'\\]+|\\[\s\S]?|'(?!''))*"),
    '"""': re.compile(r'(?:[^"\\]+|\\[\s\S]?|"(?!""))*'),
}

# A name in group 1, then the blanks after it.
_WORD_RE = re.compile(r"([^\W\d]\w*)[ \t\f]*", re.UNICODE)
_NUMBER_RE = re.compile(
    r"""
    0[xX][0-9a-fA-F_]+[lL]?
  | 0[oO][0-7_]+
  | 0[bB][01_]+
  | (?:\d[\d_]*)?\.\d[\d_]*(?:[eE][+-]?\d[\d_]*)?[jJ]?
  | \d[\d_]*\.(?:\d[\d_]*)?(?:[eE][+-]?\d[\d_]*)?[jJ]?
  | \d[\d_]*(?:[eE][+-]?\d[\d_]*)?[jJ]?
    """,
    re.VERBOSE,
)


class TokenKind(enum.Enum):
    IDENTIFIER = "Identifier"
    KEYWORD = "Keyword"
    NUMBER = "Number"
    STRING = "String"
    OPERATOR = "Operator"
    PUNCT = "Punct"
    COMMENT = "Comment"
    NEWLINE = "Newline"
    INDENT = "Indent"
    DEDENT = "Dedent"


# Every kind as a module global, which the scanner, ``syntax`` and ``features``
# read in their loops instead of ``TokenKind.<member>``. On Python 3.10 and
# 3.11, ``EnumType`` defines ``__getattr__``, so each read through the class
# takes CPython's slow attribute hook: about 90-110 ns against 5-7 ns for a
# global. 3.12 dropped the hook; a read through the class costs about 20 ns
# there, so the globals gain little and lose nothing.
_IDENTIFIER, _KEYWORD, _NUMBER = TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.NUMBER
_STRING, _OPERATOR, _PUNCT = TokenKind.STRING, TokenKind.OPERATOR, TokenKind.PUNCT
_COMMENT, _NEWLINE = TokenKind.COMMENT, TokenKind.NEWLINE
_INDENT, _DEDENT = TokenKind.INDENT, TokenKind.DEDENT
# A tuple, not a set: membership tests identity first and never calls the
# Python-level ``Enum.__hash__``.
_SYNTHETIC = (_NEWLINE, _INDENT, _DEDENT)


class Token(NamedTuple):
    """An immutable token. It equals only another ``Token`` of equal fields,
    never a plain tuple, and hashes as its field tuple does."""

    kind: TokenKind
    text: str
    line: int  # 1-based
    col: int   # 0-based display column (tabs expanded to TAB_WIDTH stops)

    def is_synthetic(self) -> bool:
        return self.kind in _SYNTHETIC

    def __eq__(self, other):
        return other.__class__ is Token and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not Token or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


# The scanner builds each token as ``_new(Token, fields)``, which skips the
# argument handling of ``Token(...)``: about 230 ns a token against 430 ns.
_new = tuple.__new__


class InputError(Exception):
    """Bad input, declared: the CLI exits 2 on it, and a batch job skips the
    record that raised it. Any other exception is a stylekit bug."""


class LexError(InputError):
    """Base class for tokenizer failures."""


class UnterminatedString(LexError):
    def __init__(self, line: int):
        super().__init__(f"unterminated string literal starting on line {line}")
        self.line = line

    def __reduce__(self):
        return type(self), (self.line,)


class InvalidCharacter(LexError):
    """A character ``str.isdigit`` accepts that no number can start with,
    such as a superscript ``²``."""

    def __init__(self, line: int, char: str):
        super().__init__(f"invalid character {char!r} (U+{ord(char):04X}) on line {line}")
        self.line = line
        self.char = char

    def __reduce__(self):
        return type(self), (self.line, self.char)


def normalize_newlines(source: str) -> str:
    """CRLF and lone CR become LF, and a leading BOM goes, before any analysis."""
    return source.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def split_lines(source: str) -> list[str]:
    """Physical lines of newline-normalized text, split at line feeds only,
    as token line numbers count them (``str.splitlines`` also splits at form
    feeds and other separators). A trailing newline does not add a line."""
    lines = source.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def indent_columns(ws: str) -> int:
    """Display width of a line's leading whitespace under TAB_WIDTH stops,
    counted after its last form feed: the lexer's line-local column rule."""
    return len(ws[ws.rfind("\f") + 1:].expandtabs(TAB_WIDTH))


class _Scanner:
    """One pass over newline-normalized text. Each handler takes the offset
    of a token's first character and returns the offset after it; the name
    and operator handlers return past the blanks that follow their token
    too, so most blanks take no dispatch of their own. Columns are measured
    onward from the last measured offset of the same line."""

    def __init__(self, source: str, lenient: bool):
        self.src = source
        self.n = len(source)
        self.lenient = lenient
        self.tokens: list[Token] = []
        self.indents = [0]
        # Clamped at 0, not ``bracket_depths``: it decides where logical lines end.
        self.depth = 0               # open-bracket depth
        self.line_has_token = False  # any token on the current logical line
        self.blank_tail = False      # the last statement start found only blanks
        self.line = 1
        self.mark = 0                # last measured offset on the current line
        self.mark_col = 0            # its display column
        tab = source.find("\t")     # no tab lies from ``mark`` up to here
        self.next_tab = tab if tab >= 0 else self.n

    def _col(self, pos: int) -> int:
        """Display column of ``pos``, on the current line and not before
        the last measured offset."""
        if pos <= self.next_tab:
            col = self.mark_col + pos - self.mark
        else:
            pad = self.mark_col % TAB_WIDTH
            seg = " " * pad + self.src[self.mark:pos]
            col = self.mark_col - pad + len(seg.expandtabs(TAB_WIDTH))
            tab = self.src.find("\t", pos)
            self.next_tab = tab if tab >= 0 else self.n
        self.mark, self.mark_col = pos, col
        return col

    def _emit(self, kind: TokenKind, text: str, pos: int) -> None:
        self.tokens.append(_new(Token, (kind, text, self.line, self._col(pos))))
        self.line_has_token = True

    # -- line structure ----------------------------------------------------

    def _physical_line(self, pos: int) -> int:
        """Start a physical line's columns at ``pos`` and skip its leading
        blanks; a form feed among them restarts the column."""
        end = _BLANKS_RE.match(self.src, pos).end()
        self.mark, self.mark_col = max(pos, self.src.rfind("\f", pos, end) + 1), 0
        return end

    def _line_start(self, pos: int) -> int:
        """Skip a line's indentation outside brackets; update the indent
        stack on code lines."""
        end = self._physical_line(pos)
        if end == self.n or self.src[end] in "\n#":
            self.blank_tail = end == self.n
            return end  # blank or comment-only: indentation is not evidence
        cols = self._col(end)
        while cols < self.indents[-1]:
            self.indents.pop()
            self.tokens.append(_new(Token, (_DEDENT, "", self.line, 0)))
        if cols > self.indents[-1]:
            # Deeper, or an inconsistent dedent, which opens a fresh level.
            self.indents.append(cols)
            self.tokens.append(_new(Token, (_INDENT, "", self.line, 0)))
        return end

    def _newline(self, pos: int) -> int:
        if self.depth == 0 and self.line_has_token:
            self.tokens.append(
                _new(Token, (_NEWLINE, "", self.line, self._col(pos))))
            self.line_has_token = False
        self.line += 1
        return self._line_start(pos + 1) if self.depth == 0 else self._physical_line(pos + 1)

    def _backslash(self, pos: int) -> int:
        if self.src.startswith("\n", pos + 1):
            # A backslash join: the next line continues this logical line.
            self.line += 1
            return self._physical_line(pos + 2)
        return self._op_or_punct(pos)

    def _blanks(self, pos: int) -> int:
        return _BLANKS_RE.match(self.src, pos).end()

    # -- token scanners ------------------------------------------------------

    def _comment(self, pos: int) -> int:
        end = self.src.find("\n", pos)
        if end < 0:
            end = self.n
        self._emit(_COMMENT, self.src[pos:end], pos)
        return end

    def _string(self, pos: int, start: int | None = None) -> int:
        """pos sits on the opening quote; start marks the prefix, if any."""
        src, start = self.src, pos if start is None else start
        delim = src[pos] * 3 if src.startswith(src[pos] * 3, pos) else src[pos]
        end = _STRING_BODY_RE[delim].match(src, pos + len(delim)).end()
        if src.startswith(delim, end):
            end += len(delim)
        elif not self.lenient:
            raise UnterminatedString(self.line)
        self._emit(_STRING, src[start:end], start)
        newlines = src.count("\n", pos, end)
        if newlines:
            self.line += newlines
            self._physical_line(src.rfind("\n", pos, end) + 1)
        return end

    def _word(self, pos: int) -> int:
        match = _WORD_RE.match(self.src, pos)
        text = match[1]
        end = match.end(1)
        if self.src[end:end + 1] in ("'", '"') and text.lower() in STRING_PREFIXES:
            return self._string(end, pos)
        if pos <= self.next_tab:  # ``_col``'s path for a line without tabs, inline
            col = self.mark_col + pos - self.mark
            self.mark, self.mark_col = pos, col
        else:
            col = self._col(pos)
        self.tokens.append(_new(Token, (
            _KEYWORD if text in KEYWORDS else _IDENTIFIER, text, self.line, col)))
        self.line_has_token = True
        return match.end()

    def _number(self, pos: int) -> int:
        match = _NUMBER_RE.match(self.src, pos)
        if match is None:   # "²" or ".²": a digit to str.isdigit, not to \d
            raise InvalidCharacter(self.line, self.src[pos + (self.src[pos] == ".")])
        text = match.group()
        self._emit(_NUMBER, text, pos)
        return pos + len(text)

    def _op_or_punct(self, pos: int) -> int:
        match = _OP_OR_PUNCT_RE.match(self.src, pos)
        if match is None:
            # Unknown characters are tolerated, never an error.
            self._emit(_PUNCT, self.src[pos], pos)
            return pos + 1
        text = match[1]
        if text in _OPENERS:
            self.depth += 1
        elif text in _CLOSERS:
            self.depth = max(0, self.depth - 1)
        if pos <= self.next_tab:  # ``_col``'s path for a line without tabs, inline
            col = self.mark_col + pos - self.mark
            self.mark, self.mark_col = pos, col
        else:
            col = self._col(pos)
        self.tokens.append(_new(Token, (
            _PUNCT if text in _PUNCT_SET else _OPERATOR, text, self.line, col)))
        self.line_has_token = True
        return match.end()

    def _other(self, pos: int) -> int:
        """The general rules, for a dot and for characters outside ASCII."""
        ch = self.src[pos]
        if ch.isdigit() or (ch == "." and self.src[pos + 1:pos + 2].isdigit()):
            return self._number(pos)
        if _WORD_RE.match(self.src, pos):
            return self._word(pos)
        return self._op_or_punct(pos)

    # -- main loop -----------------------------------------------------------

    def run(self) -> list[Token]:
        src, n, dispatch, other = self.src, self.n, _DISPATCH, _Scanner._other
        pos = self._line_start(0)
        while pos < n:
            pos = dispatch.get(src[pos], other)(self, pos)
        col = self._col(n)
        if self.line_has_token:
            self.tokens.append(_new(Token, (_NEWLINE, "", self.line, col)))
        # as ``tokenize``: after the last line, unless only blanks start a statement there
        dedent_line = self.line + (src[-1:] != "\n" and not self.blank_tail)
        self.tokens.extend(_new(Token, (_DEDENT, "", dedent_line, 0))
                           for _ in self.indents[1:])
        return self.tokens


# Handler by first character; characters not listed take ``_Scanner._other``.
_DISPATCH = {
    " ": _Scanner._blanks, "\t": _Scanner._blanks, "\f": _Scanner._blanks,
    "\n": _Scanner._newline, "\\": _Scanner._backslash, "#": _Scanner._comment,
    "'": _Scanner._string, '"': _Scanner._string,
    **dict.fromkeys(string.digits, _Scanner._number),
    **dict.fromkeys(string.ascii_letters + "_", _Scanner._word),
    **dict.fromkeys("".join(OPERATORS + PUNCTS).replace(".", ""), _Scanner._op_or_punct),
}


def last_line(line: int, text: str) -> int:
    """The line of the last character of a token that starts on ``line``; a
    line feed that ends it (a lenient open string's) belongs to the line it ends."""
    return line + text.count("\n", 0, len(text) - 1)


def bracket_depths(tokens: list[Token]) -> list[int]:
    """Bracket depth of each token, counted from the first one. An opener
    sits at the depth outside it, as does its closer; a stray closer takes
    the depth below zero."""
    depths = []
    depth = 0
    for tok in tokens:
        if tok.kind is _PUNCT:
            if tok.text in _OPENERS:
                depths.append(depth)
                depth += 1
                continue
            if tok.text in _CLOSERS:
                depth -= 1
        depths.append(depth)
    return depths


def lex(source: str, lenient: bool = False) -> list[Token]:
    """Tokenize source text deterministically.

    The text is read as :func:`normalize_newlines` leaves it, so a leading
    BOM goes. Comments and string literals are single tokens; operators take
    the longest match. A number takes its trailing dot even before another
    dot (``5..a`` gives ``5.``, ``.``, ``a``, as ``tokenize`` does). Unknown
    characters become ``Punct`` tokens, except that a non-decimal character
    ``str.isdigit`` accepts (``²``) raises :class:`InvalidCharacter` in both
    modes. In strict mode an unclosed string raises
    :class:`UnterminatedString`; in lenient mode it is closed at end of
    line / end of file.

    The text ends with a ``Newline`` if its last logical line has none yet,
    then a ``Dedent`` for each open ``Indent``. As in ``tokenize``, those
    ``Dedent`` tokens sit on the line after the last one, unless the text
    ends without a line feed on a line that holds only blanks at a statement
    start: then on that line. No synthetic token sits past ``(n + 1, 0)``,
    for the n lines of :func:`split_lines`; a final ``Newline`` sits there
    when the text's last line feed lies in a token or a backslash join, as
    in ``lex("def:'\\\\\\n", lenient=True)``.
    """
    return _Scanner(normalize_newlines(source), lenient).run()


class LineRecord(NamedTuple):
    """One physical line's layout facts. Like ``Token``, it equals only
    another ``LineRecord`` of equal fields and hashes as its field tuple."""

    raw_length: int
    leading_ws: str
    is_blank: bool
    is_comment_only: bool
    has_inline_comment: bool
    indent_columns: int  # display width of ``leading_ws``

    def __eq__(self, other):
        return other.__class__ is LineRecord and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not LineRecord or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


@dataclass(frozen=True)
class LineProfile:
    lines: tuple[LineRecord, ...]
    total_lines: int


def line_profile(source: str) -> LineProfile:
    """Per-line layout facts: lengths, leading whitespace, blank/comment flags.

    A trailing newline does not add a line. Comment flags come from a
    lenient token pass, so a ``#`` inside a string never counts.
    """
    source = normalize_newlines(source)
    return profile_lines(split_lines(source), lex(source, lenient=True))


def profile_lines(raw_lines: list[str], tokens: list[Token]) -> LineProfile:
    """The line profile of a text's :func:`split_lines` from its tokens."""
    comment_lines: set[int] = set()
    code_lines: set[int] = set()
    add_code = code_lines.add
    comment, string = _COMMENT, _STRING  # locals load faster in this per-token loop
    for kind, text, line, _ in tokens:
        if kind is comment:
            comment_lines.add(line)
        elif kind is string and "\n" in text:  # the only token that spans lines
            code_lines.update(range(line, last_line(line, text) + 1))
        elif kind not in _SYNTHETIC:
            add_code(line)
    comment_only = comment_lines - code_lines
    inline = comment_lines & code_lines
    records = []
    for idx, text in enumerate(raw_lines, start=1):
        rest = text.lstrip()
        leading = text[: len(text) - len(rest)]
        cols = indent_columns(leading) if "\t" in leading or "\f" in leading else len(leading)
        records.append(_new(LineRecord, (
            len(text), leading, not rest, idx in comment_only, idx in inline, cols)))
    return LineProfile(lines=tuple(records), total_lines=len(raw_lines))
