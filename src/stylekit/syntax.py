"""Indentation-block parsing and function-level static measurements.

The parser is statement-oriented: it groups tokens into logical lines,
nests them by indent depth, and recognizes the compound statements needed
for structural style features (``def``, ``class``, branches, loops,
``with``, ``try``). Anything else is carried as an opaque statement, so
unusual constructs degrade gracefully instead of failing.

A :class:`SourceDoc` is one source analysed once, for every consumer: a
single lex and one split into lines, with the line profile, block tree
and function records built from them. One doc serves both modes.
``lenient`` only changes how the lexer treats an unterminated string and
how the parser treats a header with no colon or a malformed ``def``
header, so a strict lex or parse that succeeds equals the lenient one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from .lexer import (_CLOSERS, _OPENERS, LineProfile, Token, TokenKind, bracket_depths,
                    lex, normalize_newlines, profile_lines, split_lines)

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


class SyntaxUnsupported(Exception):
    def __init__(self, line: int, construct: str):
        super().__init__(f"line {line}: unsupported or malformed {construct}")
        self.line = line
        self.construct = construct


@dataclass
class Stmt:
    """One simple statement: a logical line, or a piece of one after
    splitting at top-level semicolons / a compound header's colon."""
    tokens: list[Token]
    line_start: int
    line_end: int


@dataclass
class Node:
    """A compound statement and its block, or the whole module."""
    kind: str
    header: Stmt | None
    children: list = field(default_factory=list)  # Stmt | Node

    def line_range(self) -> tuple[int, int]:
        lo, hi = None, None
        for child in self.children:
            if isinstance(child, Node):
                c_lo, c_hi = child.line_range()
                if c_lo is None:
                    continue
                if child.header is not None:
                    c_lo = min(c_lo, child.header.line_start)
                    c_hi = max(c_hi, child.header.line_end)
            else:
                c_lo, c_hi = child.line_start, child.line_end
            lo = c_lo if lo is None else min(lo, c_lo)
            hi = c_hi if hi is None else max(hi, c_hi)
        return lo, hi


def _logical_lines(tokens: list[Token]) -> list[tuple[int, Stmt]]:
    """Group a token stream into (indent_level, statement) pairs.

    Comments are dropped; statements made only of comments disappear.
    """
    out: list[tuple[int, Stmt]] = []
    level = 0
    current: list[Token] = []
    for tok in tokens:
        if tok.kind is TokenKind.INDENT:
            level += 1
        elif tok.kind is TokenKind.DEDENT:
            level = max(0, level - 1)
        elif tok.kind is TokenKind.NEWLINE:
            if current:
                out.append((level, _make_stmt(current)))
                current = []
        elif tok.kind is TokenKind.COMMENT:
            continue
        else:
            current.append(tok)
    if current:
        out.append((level, _make_stmt(current)))
    return out


def _make_stmt(tokens: list[Token]) -> Stmt:
    last = tokens[-1]
    return Stmt(
        tokens=tokens,
        line_start=tokens[0].line,
        line_end=last.line + last.text.count("\n"),
    )


def _split_on(tokens: list[Token], text: str) -> list[list[Token]]:
    """Split at depth-0 occurrences of a Punct token; drops the separators."""
    parts: list[list[Token]] = [[]]
    for tok, depth in zip(tokens, bracket_depths(tokens)):
        if depth == 0 and tok.kind is TokenKind.PUNCT and tok.text == text:
            parts.append([])
        else:
            parts[-1].append(tok)
    return [p for p in parts if p]


def _compound_kind(stmt: Stmt) -> str | None:
    toks = stmt.tokens
    first = toks[0]
    if first.kind is not TokenKind.KEYWORD:
        return None
    if first.text == "async" and len(toks) > 1 and toks[1].text in ("def", "for", "with"):
        return toks[1].text
    if first.text in _BLOCK_KEYWORDS:
        return first.text
    return None


def _last_top_level_colon(tokens: list[Token]) -> int | None:
    found = None
    for i, (tok, depth) in enumerate(zip(tokens, bracket_depths(tokens))):
        if depth == 0 and tok.kind is TokenKind.PUNCT and tok.text == ":":
            found = i
    return found


@dataclass(frozen=True)
class SourceDoc:
    """Newline-normalized ``text`` and its single lex; build with :meth:`of`.
    The lines, profile, block tree and function records are built on first
    use and kept; a strict doc's parse may raise SyntaxUnsupported."""
    text: str
    lenient: bool
    tokens: list[Token]

    @classmethod
    def of(cls, source: str, lenient: bool = False) -> SourceDoc:
        text = normalize_newlines(source)
        return cls(text, lenient, lex(text, lenient=lenient))

    @cached_property
    def texts(self) -> list[str]:  # non-synthetic tokens, comments included
        return [t.text for t in self.tokens if not t.is_synthetic()]

    @cached_property
    def lines(self) -> list[str]:  # physical lines, split at line feeds only
        return split_lines(self.text)

    @cached_property
    def profile(self) -> LineProfile:
        return profile_lines(self.lines, self.tokens)

    @cached_property
    def module(self) -> Node:
        stmts = _logical_lines(self.tokens)
        module = Node(kind="module", header=None)
        module.children, idx = _parse_block(stmts, 0, -1, self.lenient)
        # Any residue means the level bookkeeping went sideways; treat the
        # leftovers as flat statements rather than dropping them.
        module.children.extend(stmt for _, stmt in stmts[idx:])
        return module

    @cached_property
    def functions(self) -> list[FunctionInfo]:
        """One record per ``def`` in source order (nested defs included)."""
        records: list[FunctionInfo] = []
        _collect_defs(self.module, False, records, self.lenient)
        return records


def parse_module(source: str, lenient: bool = False) -> Node:
    """Parse source into a block tree rooted at a ``module`` node."""
    return SourceDoc.of(source, lenient).module


def _parse_block(stmts, idx, parent_level, lenient):
    children: list = []
    if idx >= len(stmts) or stmts[idx][0] <= parent_level:
        return children, idx
    block_level = stmts[idx][0]
    while idx < len(stmts) and stmts[idx][0] >= block_level:
        node_or_stmt, idx = _parse_one(stmts, idx, lenient)
        children.append(node_or_stmt)
    return children, idx


def _parse_one(stmts, idx, lenient):
    level, stmt = stmts[idx]
    kind = _compound_kind(stmt)
    if kind is None:
        return stmt, idx + 1
    colon = _last_top_level_colon(stmt.tokens)
    if colon is None:
        if not lenient:
            raise SyntaxUnsupported(stmt.line_start, f"{kind} header")
        return stmt, idx + 1
    header_tokens = stmt.tokens[: colon + 1]
    inline = stmt.tokens[colon + 1 :]
    node = Node(kind=kind, header=_make_stmt(header_tokens))
    if inline:
        node.children = [_make_stmt(part) for part in _split_on(inline, ";")]
        return node, idx + 1
    node.children, idx = _parse_block(stmts, idx + 1, level, lenient)
    return node, idx


# -- header extraction ------------------------------------------------------


def _def_name_and_params(header: Stmt):
    toks = header.tokens
    i = 0
    if toks[i].text == "async":
        i += 1
    assert toks[i].text == "def"
    i += 1
    if i >= len(toks) or toks[i].kind is not TokenKind.IDENTIFIER:
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
        t.kind is TokenKind.OPERATOR and t.text == "->" for t in toks[close + 1 :]
    )
    return name, params, has_return_annotation


def _parse_params(tokens: list[Token]) -> tuple[Param, ...]:
    params = []
    for chunk in _split_on(tokens, ","):
        toks = chunk
        while toks and toks[0].kind is TokenKind.OPERATOR and toks[0].text in ("*", "**"):
            toks = toks[1:]
        if not toks or toks[0].kind is TokenKind.OPERATOR and toks[0].text == "/":
            continue  # bare * or / marker
        name_tok = next((t for t in toks if t.kind is TokenKind.IDENTIFIER), None)
        if name_tok is None:
            continue
        has_annotation = False
        for tok, depth in zip(toks, bracket_depths(toks)):
            if depth == 0 and tok.kind is TokenKind.OPERATOR and tok.text == "=":
                break
            if depth == 0 and tok.kind is TokenKind.PUNCT and tok.text == ":":
                has_annotation = True
                break
        params.append(Param(name=name_tok.text, has_annotation=has_annotation))
    return tuple(params)


def _classify_except(header: Stmt) -> ExceptKind:
    toks = header.tokens[1:]  # drop ``except``
    if toks and toks[-1].kind is TokenKind.PUNCT and toks[-1].text == ":":
        toks = toks[:-1]
    for i, tok in enumerate(toks):
        if tok.kind is TokenKind.KEYWORD and tok.text == "as":
            toks = toks[:i]
            break
    toks = [t for t in toks if t.kind is not TokenKind.OPERATOR or t.text != "*"]
    if not toks:
        return ExceptKind.BARE
    if len(toks) == 1 and toks[0].text in _GENERIC_EXC_NAMES:
        return ExceptKind.GENERIC
    return ExceptKind.SPECIFIC


# -- per-function measurement -------------------------------------------------


@dataclass
class _BlockStats:
    return_count: int = 0
    branch_count: int = 0
    control_count: int = 0
    max_call_depth: int = 0
    has_try: bool = False
    except_clauses: list[ExceptKind] = field(default_factory=list)


def _name_paren_index(tokens: list[Token]) -> int | None:
    """Index of the paren opening a def/class header's name list, if any."""
    i = 0
    if i < len(tokens) and tokens[i].text == "async":
        i += 1
    if i >= len(tokens) or tokens[i].text not in ("def", "class"):
        return None
    i += 1
    if i < len(tokens) and tokens[i].kind is TokenKind.IDENTIFIER:
        i += 1
    if i < len(tokens) and tokens[i].kind is TokenKind.PUNCT and tokens[i].text == "(":
        return i
    return None


def _call_depth(tokens: list[Token]) -> int:
    """Nesting depth of call expressions within one statement."""
    best = 0
    # A stack, not ``bracket_depths``: the depth counts open call parens only.
    stack: list[bool] = []  # True for call-parens
    prev = None
    header_paren = _name_paren_index(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind is TokenKind.PUNCT and tok.text in _OPENERS:
            is_call = (
                tok.text == "("
                and i != header_paren
                and prev is not None
                and (
                    prev.kind is TokenKind.IDENTIFIER
                    or (prev.kind is TokenKind.PUNCT and prev.text in (")", "]"))
                )
            )
            stack.append(is_call)
            best = max(best, sum(stack))
        elif tok.kind is TokenKind.PUNCT and tok.text in _CLOSERS:
            if stack:
                stack.pop()
        prev = tok
    return best


def _measure_block(node: Node, stats: _BlockStats) -> None:
    """Accumulate statement counts, stopping at nested ``def`` boundaries."""
    for child in node.children:
        if isinstance(child, Node):
            if child.kind == "def":
                continue  # the nested function owns its own statements
            if child.kind == "if":
                stats.branch_count += 1
                stats.control_count += 1
            elif child.kind == "elif":
                stats.branch_count += 1
            elif child.kind in ("for", "while", "with", "try"):
                stats.control_count += 1
                if child.kind == "try":
                    stats.has_try = True
            elif child.kind == "except":
                stats.except_clauses.append(_classify_except(child.header))
            if child.header is not None:
                stats.max_call_depth = max(
                    stats.max_call_depth, _call_depth(child.header.tokens)
                )
            _measure_block(child, stats)
        else:
            first = child.tokens[0]
            if first.kind is TokenKind.KEYWORD and first.text == "return":
                stats.return_count += 1
            stats.max_call_depth = max(stats.max_call_depth, _call_depth(child.tokens))


def _first_statement_is_string(node: Node) -> bool:
    for child in node.children:
        if isinstance(child, Stmt):
            return child.tokens[0].kind is TokenKind.STRING
        return False
    return False


def _collect_defs(node: Node, scope_is_class: bool, out: list, lenient: bool) -> None:
    for child in node.children:
        if not isinstance(child, Node):
            continue
        if child.kind == "def":
            try:
                name, params, has_ret = _def_name_and_params(child.header)
            except SyntaxUnsupported:
                if not lenient:
                    raise
                _collect_defs(child, False, out, lenient)
                continue
            stats = _BlockStats()
            stats.max_call_depth = _call_depth(child.header.tokens)
            _measure_block(child, stats)
            lo, hi = child.line_range()
            if lo is None:  # header with an empty block
                lo = hi = child.header.line_start
            span = hi - lo + 1
            is_method = scope_is_class or (
                bool(params) and params[0].name in ("self", "cls")
            )
            out.append(FunctionInfo(
                name=name,
                params=params,
                has_return_annotation=has_ret,
                body_line_span=span,
                return_count=stats.return_count,
                branch_count=stats.branch_count,
                control_count=stats.control_count,
                max_call_depth=stats.max_call_depth,
                has_docstring=_first_statement_is_string(child),
                has_try=stats.has_try,
                except_clauses=tuple(stats.except_clauses),
                is_method=is_method,
            ))
            _collect_defs(child, False, out, lenient)
        elif child.kind == "class":
            _collect_defs(child, True, out, lenient)
        else:
            _collect_defs(child, scope_is_class, out, lenient)


def parse_functions(source: str, lenient: bool = False) -> list[FunctionInfo]:
    """One record per ``def`` in source order (nested defs included).

    Strict mode raises :class:`SyntaxUnsupported` on malformed headers;
    lenient mode skips the offender and keeps going.
    """
    return SourceDoc.of(source, lenient).functions


def module_pseudo_function(source: str, total_lines: int) -> FunctionInfo:
    """Whole-file record used when a file defines no functions."""
    return _pseudo_function(SourceDoc.of(source, lenient=True).module, total_lines)


def _pseudo_function(module: Node, total_lines: int) -> FunctionInfo:
    stats = _BlockStats()
    _measure_block(module, stats)
    return FunctionInfo(
        name="<module>",
        params=(),
        has_return_annotation=False,
        body_line_span=max(total_lines, 1),
        return_count=stats.return_count,
        branch_count=stats.branch_count,
        control_count=stats.control_count,
        max_call_depth=stats.max_call_depth,
        has_docstring=_first_statement_is_string(module),
        has_try=stats.has_try,
        except_clauses=tuple(stats.except_clauses),
        is_method=False,
    )


@dataclass(frozen=True)
class BlockSpan:
    """Body line range of a def or loop, for sub-snippet extraction."""
    kind: str
    header_line: int
    body_start: int
    body_end: int


def block_spans(source: str) -> list[BlockSpan]:
    return list(_iter_spans(SourceDoc.of(source, lenient=True).module))


def _iter_spans(node: Node):
    for child in node.children:
        if not isinstance(child, Node):
            continue
        if child.kind in ("def", "for", "while"):
            lo, hi = child.line_range()
            if lo is not None:
                yield BlockSpan(
                    kind=child.kind,
                    header_line=child.header.line_start,
                    body_start=lo,
                    body_end=hi,
                )
        yield from _iter_spans(child)
