"""Indentation-block parsing and function-level static measurements.

The parser is statement-oriented: it groups tokens into logical lines,
nests them by indent depth, and recognizes the compound statements needed
for structural style features (``def``, ``class``, branches, loops,
``with``, ``try``). Anything else is carried as an opaque statement, so
unusual constructs degrade gracefully instead of failing.

The result is one flat list of :class:`Stmt` in source order, not a tree:
each header knows where its block ends and each statement its enclosing
header, so every consumer is a loop over the list (or a slice of it) and
no nesting depth can exhaust the interpreter's stack.

A :class:`SourceDoc` is one source analysed once, for every consumer: a
single lex and one split into lines, with the line profile, statement
list, function records (keyed by their ``def`` statement) and operator
spacing built from them. One doc serves both modes.
``lenient`` only changes how the lexer treats an unterminated string and
how the parser treats a header with no colon or a malformed ``def``
header, so a strict lex or parse that succeeds equals the lenient one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .lexer import (_BLANKS_RE, _CLOSERS, _COMMENT, _DEDENT, _IDENTIFIER, _INDENT, _KEYWORD,
                    _NEWLINE, _NUMBER, _OPENERS, _OPERATOR, _PUNCT, _STRING, TAB_WIDTH, InputError,
                    LineProfile, Token, bracket_depths, last_line, lex, normalize_newlines,
                    profile_lines, split_lines)

_BLOCK_KEYWORDS = frozenset((
    "def", "class", "if", "elif", "else", "for", "while", "with",
    "try", "except", "finally",
))


class ExceptKind(enum.Enum):
    BARE = "Bare"
    GENERIC = "GenericException"
    SPECIFIC = "Specific"


# ``except Exception`` / ``except BaseException`` count as generic; any
# narrower (or tuple) handler counts as specific.
_GENERIC_EXC_NAMES = frozenset(("Exception", "BaseException"))


@dataclass(frozen=True)
class Param:
    name: str
    has_annotation: bool


@dataclass(frozen=True)
class FunctionInfo:
    name: str
    params: tuple[Param, ...]
    has_return_annotation: bool
    body_line_span: int
    return_count: int
    branch_count: int
    control_count: int
    max_call_depth: int
    has_docstring: bool
    has_try: bool
    except_clauses: tuple[ExceptKind, ...]
    is_method: bool


class SyntaxUnsupported(InputError):
    def __init__(self, line: int, construct: str):
        super().__init__(f"line {line}: unsupported or malformed {construct}")
        self.line = line
        self.construct = construct

    def __reduce__(self):
        return type(self), (self.line, self.construct)


@dataclass
class Stmt:
    """One statement of a source's flat, source-ordered statement list: a
    logical line, or a piece of one after splitting at a compound header's
    colon and at top-level semicolons.

    ``kind`` is a compound header's keyword (``def``, ``if``, ...) and
    ``None`` for a simple statement. A header's block is
    ``stmts[i + 1:end]``; a simple statement has ``end == i + 1``.
    ``parent`` is the index of the enclosing header, -1 at module level.
    """
    tokens: list[Token]
    line_start: int
    line_end: int
    kind: str | None = None
    parent: int = -1
    end: int = 0


def _logical_lines(tokens: list[Token]) -> list[tuple[int, Stmt]]:
    """Group a token stream into (indent_level, statement) pairs.

    Comments are dropped; statements made only of comments disappear.
    """
    out: list[tuple[int, Stmt]] = []
    level = 0
    current: list[Token] = []
    append = current.append
    # Locals: in a loop over every token they still load ~5 % faster than globals.
    newline, comment, indent, dedent = _NEWLINE, _COMMENT, _INDENT, _DEDENT
    for tok in tokens:
        kind = tok[0]
        if kind is newline:
            if current:
                out.append((level, _make_stmt(current)))
                current = []
                append = current.append
        elif kind is comment:
            continue
        elif kind is indent:
            level += 1
        elif kind is dedent:
            level = max(0, level - 1)
        else:
            append(tok)
    if current:
        out.append((level, _make_stmt(current)))
    return out


def _make_stmt(tokens: list[Token], kind: str | None = None) -> Stmt:
    last = tokens[-1]
    return Stmt(tokens, tokens[0].line, last_line(last.line, last.text), kind)


def _split_on(tokens: list[Token], text: str) -> list[list[Token]]:
    """Split at depth-0 occurrences of a Punct token; drops the separators."""
    parts: list[list[Token]] = [[]]
    for tok, depth in zip(tokens, bracket_depths(tokens)):
        if depth == 0 and tok.kind is _PUNCT and tok.text == text:
            parts.append([])
        else:
            parts[-1].append(tok)
    return [p for p in parts if p]


def _compound_kind(stmt: Stmt) -> str | None:
    toks = stmt.tokens
    first = toks[0]
    if first.kind is not _KEYWORD:
        return None
    if first.text == "async" and len(toks) > 1 and toks[1].text in ("def", "for", "with"):
        return toks[1].text
    if first.text in _BLOCK_KEYWORDS:
        return first.text
    return None


def _last_top_level_colon(tokens: list[Token]) -> int | None:
    found = None
    for i, (tok, depth) in enumerate(zip(tokens, bracket_depths(tokens))):
        if depth == 0 and tok.kind is _PUNCT and tok.text == ":":
            found = i
    return found


@dataclass(frozen=True)
class SourceDoc:
    """Newline-normalized ``text`` and its single lex; build with :meth:`of`.
    Its lines, profile, statements, function records and operator spacing are
    built on first use and kept; a strict doc's parse may raise SyntaxUnsupported."""
    text: str
    lenient: bool
    tokens: list[Token]

    @classmethod
    def of(cls, source: str, lenient: bool = False) -> SourceDoc:
        text = normalize_newlines(source)
        return cls(text, lenient, lex(text, lenient=lenient))

    @cached_property
    def texts(self) -> list[str]:  # non-synthetic tokens, comments included
        return [text for _, text, _, _ in self.tokens if text]  # only synthetic ones are empty

    @cached_property
    def lines(self) -> list[str]:  # physical lines, split at line feeds only
        return split_lines(self.text)

    @cached_property
    def profile(self) -> LineProfile:
        return profile_lines(self.lines, self.tokens)

    @cached_property
    def stmts(self) -> list[Stmt]:
        return _parse(self.tokens, self.lenient)

    @cached_property
    def defs(self) -> dict[int, FunctionInfo]:
        """Each ``def``'s record, keyed by the index of its statement in ``stmts``."""
        return _collect_defs(self.stmts, self.lenient)

    @cached_property
    def functions(self) -> list[FunctionInfo]:
        """One record per ``def`` in source order (nested defs included)."""
        return list(self.defs.values())

    @cached_property
    def operators(self) -> dict[int, bool]:
        """Whether a space stands before each binary operator, by token index."""
        return {i: _char_before(self.lines[tok.line - 1], tok.col) == " "
                for i, tok in iter_binary_operators(self.tokens)}


def parse_module(source: str, lenient: bool = False) -> list[Stmt]:
    """Parse source into its flat statement list, in source order."""
    return SourceDoc.of(source, lenient).stmts


def _parse(tokens: list[Token], lenient: bool) -> list[Stmt]:
    """Nest logical lines by indent level into a flat statement list.

    A header's block is the run of statements at or deeper than its first
    statement, if that one is deeper than the header; an inline body is
    split at top-level semicolons. A statement shallower than the first
    line ends all nesting: it and every later one stay flat at module level.
    """
    lines = _logical_lines(tokens)
    out: list[Stmt] = []
    base = lines[0][0] if lines else 0  # the module block's level
    stack: list[tuple[int, int]] = []  # open blocks: (header index, level)
    pending = None  # (index, level) of a header whose block may follow

    def emit(stmt: Stmt, parent: int) -> int:
        stmt.parent, stmt.end = parent, len(out) + 1
        out.append(stmt)
        return len(out) - 1

    for n, (level, stmt) in enumerate(lines):
        if pending is not None and level > pending[1]:
            stack.append((pending[0], level))
        pending = None
        while stack and level < stack[-1][1]:
            out[stack.pop()[0]].end = len(out)
        if level < base:
            # The level bookkeeping went sideways; keep the leftovers as
            # flat statements rather than dropping them.
            for _, rest in lines[n:]:
                emit(rest, -1)
            return out
        parent = stack[-1][0] if stack else -1
        kind = _compound_kind(stmt)
        colon = None if kind is None else _last_top_level_colon(stmt.tokens)
        if colon is None:
            if kind is not None and not lenient:
                raise SyntaxUnsupported(stmt.line_start, f"{kind} header")
            emit(stmt, parent)
            continue
        head = emit(_make_stmt(stmt.tokens[: colon + 1], kind), parent)
        inline = stmt.tokens[colon + 1 :]
        if inline:
            for part in _split_on(inline, ";"):
                emit(_make_stmt(part), head)
            out[head].end = len(out)
        else:
            pending = (head, level)
    for head, _ in stack:
        out[head].end = len(out)
    return out


def _body_lines(stmts: list[Stmt], head: int) -> tuple[int, int] | None:
    """Line range of a header's block, from the child holding its first
    simple statement to its last simple statement; ``None`` when the block
    holds no simple statement."""
    body = range(head + 1, stmts[head].end)
    first = next((i for i in body if stmts[i].kind is None), None)
    if first is None:
        return None
    last = next(i for i in reversed(body) if stmts[i].kind is None)
    while stmts[first].parent != head:
        first = stmts[first].parent
    return stmts[first].line_start, stmts[last].line_end


# -- header extraction ------------------------------------------------------


def _def_name_and_params(header: Stmt):
    toks = header.tokens
    i = 0
    if toks[i].text == "async":
        i += 1
    assert toks[i].text == "def"
    i += 1
    if i >= len(toks) or toks[i].kind is not _IDENTIFIER:
        raise SyntaxUnsupported(header.line_start, "def header")
    name = toks[i].text
    i += 1
    if i >= len(toks) or toks[i].text != "(":
        raise SyntaxUnsupported(header.line_start, "def header")
    depths = bracket_depths(toks)
    close = next((j for j in range(i + 1, len(toks)) if depths[j] == 0), None)
    if close is None:
        raise SyntaxUnsupported(header.line_start, "def header")
    params = _parse_params(toks[i + 1 : close])
    has_return_annotation = any(
        t.kind is _OPERATOR and t.text == "->" for t in toks[close + 1 :]
    )
    return name, params, has_return_annotation


def _parse_params(tokens: list[Token]) -> tuple[Param, ...]:
    params = []
    for chunk in _split_on(tokens, ","):
        toks = chunk
        while toks and toks[0].kind is _OPERATOR and toks[0].text in ("*", "**"):
            toks = toks[1:]
        if not toks or toks[0].kind is _OPERATOR and toks[0].text == "/":
            continue  # bare * or / marker
        name_tok = next((t for t in toks if t.kind is _IDENTIFIER), None)
        if name_tok is None:
            continue
        has_annotation = False
        for tok, depth in zip(toks, bracket_depths(toks)):
            if depth == 0 and tok.kind is _OPERATOR and tok.text == "=":
                break
            if depth == 0 and tok.kind is _PUNCT and tok.text == ":":
                has_annotation = True
                break
        params.append(Param(name=name_tok.text, has_annotation=has_annotation))
    return tuple(params)


def _classify_except(header: Stmt) -> ExceptKind:
    toks = header.tokens[1:]  # drop ``except``
    if toks and toks[-1].kind is _PUNCT and toks[-1].text == ":":
        toks = toks[:-1]
    for i, tok in enumerate(toks):
        if tok.kind is _KEYWORD and tok.text == "as":
            toks = toks[:i]
            break
    toks = [t for t in toks if t.kind is not _OPERATOR or t.text != "*"]
    if not toks:
        return ExceptKind.BARE
    if len(toks) == 1 and toks[0].text in _GENERIC_EXC_NAMES:
        return ExceptKind.GENERIC
    return ExceptKind.SPECIFIC


# -- per-function measurement -------------------------------------------------


def _call_depth(tokens: list[Token]) -> int:
    """Nesting depth of call expressions within one statement."""
    best = calls = 0  # ``calls``: open call parens
    # A stack, not ``bracket_depths``: the depth counts open call parens only.
    stack: list[bool] = []  # True for call-parens
    prev = None
    header_paren = 2 + (tokens[0].text == "async")  # ``def f(`` opens no call
    for i, tok in enumerate(tokens):
        if tok[0] is _PUNCT:
            text = tok[1]
            if text in _OPENERS:
                is_call = text == "(" and prev is not None and (
                    (prev.kind is _IDENTIFIER
                     and not (i == header_paren and tokens[i - 2].text in ("def", "class")))
                    or (prev.kind is _PUNCT and prev.text in (")", "]"))
                )
                stack.append(is_call)
                if is_call:
                    calls += 1
                    best = max(best, calls)
            elif text in _CLOSERS and stack:
                calls -= stack.pop()
        prev = tok
    return best


def _function_info(stmts: list[Stmt], lo: int, hi: int, name: str,
                   params: tuple[Param, ...], has_return_annotation: bool,
                   span: int, is_method: bool, header_depth: int) -> FunctionInfo:
    """The record of a function whose statements are ``stmts[lo:hi]``,
    nested ``def`` blocks skipped."""
    returns = branches = controls = 0
    call_depth = header_depth
    has_try = False
    except_clauses = []
    i = lo
    while i < hi:
        stmt = stmts[i]
        kind = stmt.kind
        if kind == "def":
            i = stmt.end  # the nested function owns its own statements
            continue
        if kind in ("if", "elif"):
            branches += 1
        if kind in ("if", "for", "while", "with", "try"):
            controls += 1
        if kind == "try":
            has_try = True
        elif kind == "except":
            except_clauses.append(_classify_except(stmt))
        elif kind is None:
            first = stmt.tokens[0]
            if first.kind is _KEYWORD and first.text == "return":
                returns += 1
        call_depth = max(call_depth, _call_depth(stmt.tokens))
        i += 1
    return FunctionInfo(
        name=name,
        params=params,
        has_return_annotation=has_return_annotation,
        body_line_span=span,
        return_count=returns,
        branch_count=branches,
        control_count=controls,
        max_call_depth=call_depth,
        # headers open with a keyword, so only a simple statement can match
        has_docstring=lo < hi and stmts[lo].tokens[0].kind is _STRING,
        has_try=has_try,
        except_clauses=tuple(except_clauses),
        is_method=is_method,
    )


def _collect_defs(stmts: list[Stmt], lenient: bool) -> dict[int, FunctionInfo]:
    records = {}
    for i, stmt in enumerate(stmts):
        if stmt.kind != "def":
            continue
        try:
            name, params, has_ret = _def_name_and_params(stmt)
        except SyntaxUnsupported:
            if not lenient:
                raise
            continue
        lines = _body_lines(stmts, i)
        lo, hi = lines or (stmt.line_start, stmt.line_start)  # empty block
        scope = stmt.parent  # the nearest enclosing def or class
        while scope >= 0 and stmts[scope].kind not in ("def", "class"):
            scope = stmts[scope].parent
        is_method = (scope >= 0 and stmts[scope].kind == "class") or (
            bool(params) and params[0].name in ("self", "cls")
        )
        records[i] = _function_info(stmts, i + 1, stmt.end, name, params, has_ret,
                                    hi - lo + 1, is_method, _call_depth(stmt.tokens))
    return records


# Every operator but ``~`` counts for the spacing feature; ``+ - * ** @``
# are skipped in unary positions (start of expression or after another
# operator/opener).
_MAYBE_UNARY = frozenset(("+", "-", "*", "**", "@"))


def iter_binary_operators(tokens: list[Token]):
    """Yield (index, token) of each Operator token standing in binary position."""
    # Locals, as in ``_logical_lines``.
    operator, newline, indent, dedent = _OPERATOR, _NEWLINE, _INDENT, _DEDENT
    prev = None
    for i, tok in enumerate(tokens):
        kind = tok[0]
        if kind is operator:
            text = tok[1]
            if text in _MAYBE_UNARY:
                if prev is not None and (
                    prev.kind in (_IDENTIFIER, _NUMBER, _STRING)
                    or (prev.kind is _PUNCT and prev.text in _CLOSERS)
                ):
                    yield i, tok
            elif text != "~":
                yield i, tok
        elif kind is newline:
            prev = None
            continue
        elif kind is indent or kind is dedent:
            continue
        prev = tok


def _char_before(line_text: str, col: int) -> str:
    """Raw character left of a display column (counted as the lexer does), or ''."""
    if "\t" not in line_text and "\f" not in line_text:
        return line_text[col - 1] if 0 < col < len(line_text) else ""  # column == offset
    start = line_text.rfind("\f", 0, _BLANKS_RE.match(line_text).end()) + 1
    ec = 0
    for idx, ch in enumerate(line_text[start:], start):
        if ec == col:
            return line_text[idx - 1] if idx > 0 else ""
        ec += TAB_WIDTH - (ec % TAB_WIDTH) if ch == "\t" else 1
    return ""


def parse_functions(source: str, lenient: bool = False) -> list[FunctionInfo]:
    """One record per ``def`` in source order (nested defs included).

    Strict mode raises :class:`SyntaxUnsupported` on malformed headers;
    lenient mode skips the offender and keeps going.
    """
    return SourceDoc.of(source, lenient).functions


def _pseudo_function(stmts: list[Stmt], total_lines: int) -> FunctionInfo:
    """Whole-file record used when a file defines no functions."""
    return _function_info(stmts, 0, len(stmts), "<module>", (), False,
                          max(total_lines, 1), False, 0)


@dataclass(frozen=True)
class BlockSpan:
    """Body line range of a def or loop, for sub-snippet extraction."""
    kind: str
    body_start: int
    body_end: int


def block_spans(source: str) -> list[BlockSpan]:
    return list(_iter_spans(SourceDoc.of(source, lenient=True).stmts))


def _iter_spans(stmts: list[Stmt]):
    for i, stmt in enumerate(stmts):
        if stmt.kind in ("def", "for", "while"):
            lines = _body_lines(stmts, i)
            if lines is not None:
                yield BlockSpan(stmt.kind, *lines)
