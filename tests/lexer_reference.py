"""The lexer as it was before its single-pass rewrite, kept as a test oracle.

``_Scanner`` and ``lex`` are the earlier implementation: one character at a
time, operators found by ``str.startswith`` probes. They are unchanged but
for four deliberate edits: a character that ``str.isdigit`` accepts but no
number can start with (``²``) raises ``InvalidCharacter``, where it used to
raise ``AttributeError``; and a form feed is whitespace, which among a
physical line's leading blanks restarts the column (as in ``tokenize``),
where it used to be a ``Punct`` token. That holds on every physical line,
inside brackets, after a backslash join and inside strings too. A leading
BOM goes in the shared ``normalize_newlines``. And the closing ``Dedent``
tokens of a text without a final newline sit on its last line when that
line holds only blanks at a statement start, and on the line after it
otherwise (after a backslash join too), as in ``tokenize``; they used to go
by whether the last line's column was 0. And a number's trailing dot is part
of the number before a second dot too (``5..a`` gives ``5.``, ``.``, ``a``, as
in ``tokenize``); it used to be left out.
The differential tests in
``test_lexer_differential.py`` require the production lexer to give the same
tokens, or raise the same exception class, on every input. The constants are
copied too, so that the oracle does not follow later edits to the production
lexer's tables.
"""

from __future__ import annotations

import re

from stylekit.lexer import (
    InvalidCharacter,
    Token,
    TokenKind,
    UnterminatedString,
    normalize_newlines,
)

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

# Multi-character entries must come before their prefixes (longest match).
OPERATORS = (
    "**=", "//=", ">>=", "<<=",
    "==", "!=", "<=", ">=", "->", ":=", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "@=", "**", "//", "<<", ">>",
    "+", "-", "*", "/", "%", "@", "&", "|", "^", "~", "<", ">", "=",
)

PUNCTS = ("...", "(", ")", "[", "]", "{", "}", ",", ":", ".", ";")

_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")

_IDENT_RE = re.compile(r"[^\W\d]\w*", re.UNICODE)
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


_BLANKS = (" ", "\t", "\x0c")  # changed on purpose: the form feed was not here
_SYNTHETIC = frozenset((TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.DEDENT))


class _Scanner:
    def __init__(self, source: str, lenient: bool):
        self.src = source
        self.n = len(source)
        self.lenient = lenient
        self.pos = 0
        self.line = 1
        self.col = 0
        self.tokens: list[Token] = []
        self.indents = [0]
        self.depth = 0              # open-bracket depth
        self.line_has_token = False  # any token on the current logical line
        self.continuation = False    # previous line ended with a backslash join
        self.blank_tail = False      # the last statement start found only blanks

    # -- low-level movement ------------------------------------------------

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            ch = self.src[self.pos]
            self.pos += 1
            if ch == "\n":
                self.line += 1
                self.col = 0
            elif ch == "\t":
                self.col += TAB_WIDTH - (self.col % TAB_WIDTH)
            elif ch == "\x0c":
                # changed on purpose: among a physical line's leading blanks
                # a form feed restarts the column
                line_start = self.src.rfind("\n", 0, self.pos) + 1
                blank = not self.src[line_start:self.pos].strip(" \t\x0c")
                self.col = 0 if blank else self.col + 1
            else:
                self.col += 1

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.src[i] if i < self.n else ""

    def _emit(self, kind: TokenKind, text: str, line: int, col: int) -> None:
        self.tokens.append(Token(kind, text, line, col))
        if kind not in _SYNTHETIC:
            self.line_has_token = True

    # -- line structure ----------------------------------------------------

    def _handle_line_start(self) -> None:
        """Consume leading whitespace; update the indent stack on code lines."""
        while self._peek() in _BLANKS:
            self._advance()
        ch = self._peek()
        self.blank_tail = ch == ""  # changed on purpose, see dedent_line
        if ch in ("", "\n", "#"):
            return  # blank or comment-only: indentation is not evidence
        cols = self.col
        if cols > self.indents[-1]:
            self.indents.append(cols)
            self._emit(TokenKind.INDENT, "", self.line, 0)
        elif cols < self.indents[-1]:
            while self.indents[-1] > cols:
                self.indents.pop()
                self._emit(TokenKind.DEDENT, "", self.line, 0)
            if self.indents[-1] != cols:
                # Tolerate inconsistent dedents by opening a fresh level.
                self.indents.append(cols)
                self._emit(TokenKind.INDENT, "", self.line, 0)

    def _end_physical_line(self) -> None:
        """Called with pos at a newline character."""
        if self.depth == 0:
            if self.line_has_token:
                self._emit(TokenKind.NEWLINE, "", self.line, self.col)
            self.line_has_token = False
        self._advance()

    # -- token scanners ------------------------------------------------------

    def _scan_comment(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        while self._peek() not in ("", "\n"):
            self._advance()
        self._emit(TokenKind.COMMENT, self.src[start:self.pos], line, col)

    def _scan_string(self, start: int, line: int, col: int) -> None:
        """pos sits on the opening quote; start marks the prefix, if any."""
        quote = self._peek()
        triple = self._peek(1) == quote and self._peek(2) == quote
        self._advance(3 if triple else 1)
        closer = quote * 3 if triple else quote
        while True:
            ch = self._peek()
            if ch == "":
                if self.lenient:
                    break
                raise UnterminatedString(line)
            if ch == "\\":
                if self.pos + 1 < self.n:
                    self._advance(2)
                else:
                    self._advance()
                continue
            if not triple and ch == "\n":
                if self.lenient:
                    break
                raise UnterminatedString(line)
            if ch == quote and (not triple or self.src.startswith(closer, self.pos)):
                self._advance(len(closer))
                break
            self._advance()
        self._emit(TokenKind.STRING, self.src[start:self.pos], line, col)

    def _scan_word(self) -> None:
        line, col, start = self.line, self.col, self.pos
        match = _IDENT_RE.match(self.src, self.pos)
        text = match.group(0)
        nxt = self.src[self.pos + len(text)] if self.pos + len(text) < self.n else ""
        if text.lower() in STRING_PREFIXES and nxt in ("'", '"'):
            self._advance(len(text))
            self._scan_string(start, line, col)
            return
        self._advance(len(text))
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
        self._emit(kind, text, line, col)

    def _scan_number(self) -> None:
        line, col = self.line, self.col
        match = _NUMBER_RE.match(self.src, self.pos)
        if match is None:
            # Changed on purpose: the earlier lexer raised AttributeError
            # here; both lexers now raise InvalidCharacter.
            ch = self._peek()
            raise InvalidCharacter(self.line, self._peek(1) if ch == "." else ch)
        text = match.group(0)
        self._advance(len(text))
        self._emit(TokenKind.NUMBER, text, line, col)

    def _scan_operator_or_punct(self) -> None:
        line, col = self.line, self.col
        for op in OPERATORS:
            if self.src.startswith(op, self.pos):
                # ``.`` starting a number is handled by the caller; ``...`` below.
                self._advance(len(op))
                self._emit(TokenKind.OPERATOR, op, line, col)
                return
        for p in PUNCTS:
            if self.src.startswith(p, self.pos):
                if p in _OPENERS:
                    self.depth += 1
                elif p in _CLOSERS:
                    self.depth = max(0, self.depth - 1)
                self._advance(len(p))
                self._emit(TokenKind.PUNCT, p, line, col)
                return
        # Unknown characters are tolerated, never an error.
        ch = self._peek()
        self._advance()
        self._emit(TokenKind.PUNCT, ch, line, col)

    # -- main loop -----------------------------------------------------------

    def run(self) -> list[Token]:
        at_line_start = True
        while self.pos < self.n:
            if at_line_start:
                if self.depth == 0 and not self.continuation:
                    self._handle_line_start()
                else:
                    while self._peek() in _BLANKS:
                        self._advance()
                self.continuation = False
                at_line_start = False
                continue
            ch = self._peek()
            if ch == "\n":
                self._end_physical_line()
                at_line_start = True
            elif ch in _BLANKS:
                self._advance()
            elif ch == "\\" and self._peek(1) == "\n":
                self._advance(2)
                if self.depth == 0:
                    self.continuation = True
                at_line_start = True
            elif ch == "#":
                self._scan_comment()
            elif ch in ("'", '"'):
                self._scan_string(self.pos, self.line, self.col)
            elif ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
                self._scan_number()
            elif _IDENT_RE.match(self.src, self.pos):
                self._scan_word()
            else:
                self._scan_operator_or_punct()
        if self.line_has_token:
            self._emit(TokenKind.NEWLINE, "", self.line, self.col)
        # changed on purpose: as in ``tokenize``, the line after a last line
        # that holds anything but blanks at a statement start
        dedent_line = self.line + (self.src[-1:] != "\n" and not self.blank_tail)
        while self.indents[-1] > 0:
            self.indents.pop()
            self._emit(TokenKind.DEDENT, "", dedent_line, 0)
        return self.tokens


def lex(source: str, lenient: bool = False) -> list[Token]:
    """Tokenize source text deterministically.

    Comments and string literals are single tokens; operators take the
    longest match. Unknown characters become ``Punct`` tokens. In strict
    mode an unclosed string raises :class:`UnterminatedString`; in lenient
    mode it is closed at end of line / end of file.
    """
    return _Scanner(normalize_newlines(source), lenient).run()
