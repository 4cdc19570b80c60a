"""The 34-dimensional explicit style vector.

Feature registry order is fixed: naming features occupy indices 0..13,
spacing/layout features 14..22, structural features 23..33. The registry,
the normalization caps, and the ``SCHEMA`` tag version together; any
change to one of them is a schema change.

Definitions that the one-line feature names leave open are pinned here:

* Identifiers are collected at definition and binding sites (function and
  class names, parameters, assignment/loop/``as`` targets), one entry per
  distinct name.
* Boolean-sounding features are fractions in [0, 1] so they aggregate
  over whole files.
* ``symbol_ratio`` is punctuation density over the whole source; valid
  identifiers contain no symbols, so a per-identifier reading would be
  degenerate.
* ``type_hint_ratio`` is the return-annotation share of functions, while
  ``annotation_ratio`` is the parameter-annotation share; the two cover
  different annotation sites.
* ``exception_score`` is 0.0 when no except clause exists: the feature
  measures demonstrated specificity.
* ``naming_consistency`` is the modal share among the four case-style
  categories.
* ``space_pattern_code`` collapses a 24x64 binary occupancy matrix (first
  24 lines, first 64 display columns, 1 where a non-whitespace character
  sits) to its density.

``analyze`` reads one :class:`~stylekit.syntax.SourceDoc` per source, and
each feature group takes that doc, so all three share a single lex, line
split and parse. A ``def``'s parameter names come from the doc's ``defs``,
as do ``type_hint_ratio`` and the structural group, so a header that lenient
parsing skips counts in none of them. Layout reads operator spacing from
``operators`` and comment lines from the line profile. Identifiers, the line
profile and the module pseudo-function read the doc in its own mode, strict
included: a strict lex or parse that succeeds equals the lenient one.

The function records are held to the stdlib ``ast`` on valid code
(``tests/test_ast_oracle.py``). ``body_line_span`` runs from the first line
of a def's first body statement (its first decorator, if any) to the last
line of the body's last simple statement, nested defs included; no
divergence is known. ``max_call_depth`` counts call nesting through
arguments only, so ``a().b()`` has depth 1, and an f-string is one token,
so calls in its fields do not count. Its intended divergences, both from
reading tokens rather than a tree:

* a paren right after the soft keywords ``match`` and ``case``, and a class
  pattern such as ``case P(x):``, count as calls;
* a call directly on a literal, a keyword constant or a ``{...}`` display
  (``"{}"(x)``, ``1(x)``, ``None(x)``, ``{}(x)``) does not count; each would
  fail at run time.

v2 candidates, defects whose fix changes ``s2c-style-v1`` and the goldens:

* ``indentation_consistency`` takes the modal indent column as the unit, so a
  consistent class whose method bodies hold most lines scores 4/7 (a test pins it).
"""

from __future__ import annotations

import enum
import gc
import io
import json
import re
import string
import threading
from collections import Counter
from dataclasses import dataclass
from statistics import fmean

from .lexer import (_IDENTIFIER, _KEYWORD, _OPERATOR, _PUNCT, TAB_WIDTH, InputError, Token,
                    bracket_depths, normalize_newlines, split_lines)
from .syntax import ExceptKind, FunctionInfo, SourceDoc, Stmt, _pseudo_function

SCHEMA = "s2c-style-v1"

REGISTRY = (
    # naming (Table-1 order)
    "name_length", "is_snake_case", "underscore_ratio", "digit_ratio",
    "symbol_ratio", "uppercase_ratio", "lowercase_ratio", "dist_PascalCase",
    "dist_snake_case", "dist_camelCase", "dist_UPPER_CASE", "dist_private",
    "dist_dunder", "naming_consistency",
    # spacing / layout (Table-3 order)
    "blank_line_count", "line_length_avg", "line_length_variance",
    "indentation_level_avg", "space_before_operator", "comment_ratio",
    "type_hint_ratio", "indentation_consistency", "space_pattern_code",
    # structural (Table-2 order)
    "call_depth", "branch_count", "return_count", "arg_count", "length",
    "has_docstring", "has_try_except", "exception_score", "redundancy_ratio",
    "annotation_ratio", "control_structures",
)

NAMING_SLICE = slice(0, 14)
LAYOUT_SLICE = slice(14, 23)
STRUCTURAL_SLICE = slice(23, 34)

# Unbounded features map through x -> min(x / cap, 1); ratios pass through.
NORMALIZATION_CAPS = {
    "name_length": 30.0,
    "line_length_avg": 120.0,
    "line_length_variance": 1600.0,
    "indentation_level_avg": 8.0,
    "call_depth": 8.0,
    "branch_count": 10.0,
    "return_count": 10.0,
    "arg_count": 10.0,
    "length": 100.0,
    "control_structures": 20.0,
}

# Each feature's cap in registry order, None for a ratio.
_CAPS = tuple(map(NORMALIZATION_CAPS.get, REGISTRY))

SPACE_PATTERN_ROWS = 24
SPACE_PATTERN_COLS = 64


class EmptySource(InputError, ValueError):
    """Raised when a source is empty after stripping whitespace."""


class SchemaMismatch(InputError, ValueError):
    pass


class NameCategory(enum.Enum):
    DUNDER = "Dunder"
    PRIVATE = "Private"
    UPPER_CASE = "UpperCase"
    PASCAL_CASE = "PascalCase"
    CAMEL_CASE = "CamelCase"
    SNAKE_CASE = "SnakeCase"
    OTHER = "Other"


@dataclass(frozen=True)
class IdentifierRecord:
    text: str
    category: NameCategory


@dataclass(frozen=True)
class _Vector:
    """34 feature values in registry order."""
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(REGISTRY):
            raise ValueError(f"expected {len(REGISTRY)} features, got {len(self.values)}")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(REGISTRY, self.values))


@dataclass(frozen=True)
class StyleVectorRaw(_Vector):
    """Feature values in natural units (chars, counts, ratios)."""
    warnings: tuple[str, ...] = ()
    schema: str = SCHEMA

    def __getitem__(self, name: str) -> float:
        return self.values[REGISTRY.index(name)]


@dataclass(frozen=True)
class StyleVector(_Vector):
    """Normalized style vector; every component lies in [0, 1]."""
    schema: str = SCHEMA


_UPPER_RE = re.compile(r"[A-Z][A-Z0-9_]*\Z")
_PASCAL_RE = re.compile(r"[A-Z][A-Za-z0-9]*\Z")
_CAMEL_RE = re.compile(r"[a-z][A-Za-z0-9]*\Z")
_SNAKE_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


def classify_identifier(name: str) -> IdentifierRecord:
    """Assign the single category of a name, by precedence.

    Dunder > Private > UPPER_CASE > PascalCase > camelCase > snake_case >
    Other. A single lowercase word counts as snake_case.
    """
    if name.startswith("__") and name.endswith("__") and len(name) > 4:
        cat = NameCategory.DUNDER
    elif name.startswith("_"):
        cat = NameCategory.PRIVATE
    elif _UPPER_RE.match(name):
        cat = NameCategory.UPPER_CASE
    elif _PASCAL_RE.match(name) and any(c.islower() for c in name):
        cat = NameCategory.PASCAL_CASE
    elif _CAMEL_RE.match(name) and any(c.isupper() for c in name):
        cat = NameCategory.CAMEL_CASE
    elif _SNAKE_RE.match(name):
        cat = NameCategory.SNAKE_CASE
    else:
        cat = NameCategory.OTHER
    return IdentifierRecord(text=name, category=cat)


# -- identifier extraction ----------------------------------------------------


def _adjacent_ok(tokens: list[Token], i: int) -> bool:
    """Reject attribute/subscript/call positions around ``tokens[i]``."""
    prev = tokens[i - 1] if i > 0 else None
    nxt = tokens[i + 1] if i + 1 < len(tokens) else None
    if prev is not None and prev.kind is _PUNCT and prev.text == ".":
        return False
    if nxt is not None and nxt.kind is _PUNCT and nxt.text in (".", "[", "("):
        return False
    return True


def _binding_names_in_stmt(stmt: Stmt) -> list[str]:
    toks = stmt.tokens
    names: list[str] = []
    # Only the operator, keyword or punct token has the text ``:=``, ``as``,
    # ``=`` or ``:``, so a text test stands for a kind test.
    texts = [tok[1] for tok in toks]
    depths = None  # the bracket depths, computed when a scan needs them

    # walrus targets at any depth
    if ":=" in texts:
        for i, tok in enumerate(toks[:-1]):
            if tok.kind is _IDENTIFIER and texts[i + 1] == ":=":
                names.append(tok.text)

    # ``as`` targets (imports, with, except)
    if "as" in texts:
        depths = bracket_depths(toks)
        for i, text in enumerate(texts):
            if text != "as":
                continue
            j = i + 1
            while j < len(toks):
                t = toks[j]
                if t.kind is _IDENTIFIER and _adjacent_ok(toks, j):
                    names.append(t.text)
                elif t.kind is _KEYWORD or (
                    t.kind is _PUNCT and t.text == ":" and depths[j] == 0
                ):
                    break
                j += 1

    first = toks[0]
    if first.kind is _KEYWORD:
        if first.text == "for" or (first.text == "async" and len(toks) > 1
                                   and toks[1].text == "for"):
            start = 1 if first.text == "for" else 2
            for j in range(start, len(toks)):
                t = toks[j]
                if t.kind is _KEYWORD and t.text == "in":
                    break
                if t.kind is _IDENTIFIER and _adjacent_ok(toks, j):
                    names.append(t.text)
        return names

    # augmented assignment target
    if (len(toks) >= 2 and first.kind is _IDENTIFIER
            and toks[1].kind is _OPERATOR
            and toks[1].text.endswith("=")
            and toks[1].text not in ("==", "!=", "<=", ">=")
            and len(toks[1].text) > 1):
        names.append(first.text)
        return names

    # plain / annotated / chained assignment targets
    if "=" not in texts:
        return names
    if depths is None:
        depths = bracket_depths(toks)
    last_eq = None
    first_colon = None
    for i, text in enumerate(texts):
        if depths[i] != 0:
            continue
        if text == "=":
            last_eq = i
        elif text == ":" and first_colon is None:
            first_colon = i
    if last_eq is not None:
        stop = last_eq if first_colon is None else min(last_eq, first_colon)
        for j in range(stop):
            t = toks[j]
            if (depths[j] == 0 and t.kind is _IDENTIFIER
                    and _adjacent_ok(toks, j)):
                names.append(t.text)
    return names


def extract_identifiers(source: str) -> list[IdentifierRecord]:
    """Distinct binding-site names in first-appearance order."""
    return _identifiers(SourceDoc.of(source, lenient=True))


def _identifiers(doc: SourceDoc) -> list[IdentifierRecord]:
    names: list[str] = []
    defs = doc.defs
    for n, stmt in enumerate(doc.stmts):
        if stmt.kind not in ("def", "class"):
            names.extend(_binding_names_in_stmt(stmt))
            continue
        toks = stmt.tokens
        i = 1 if toks[0].text in ("def", "class") else 2
        if i < len(toks) and toks[i].kind is _IDENTIFIER:
            names.append(toks[i].text)
        if n in defs:  # a header that lenient parsing skips has no record
            names.extend(p.name for p in defs[n].params)
    return [classify_identifier(name) for name in dict.fromkeys(names)]


# -- feature groups -----------------------------------------------------------


# The ASCII characters each ``str.isX`` test accepts, and string.punctuation, as bytes.
_ASCII = bytes(range(128))
_ALPHA, _UPPER, _LOWER, _DIGIT, _SPACE = (bytes(c for c in _ASCII if test(chr(c))) for test in (
    str.isalpha, str.isupper, str.islower, str.isdigit, str.isspace))
_PUNCTUATION = string.punctuation.encode()
# The 19 characters outside ASCII that ``str.isspace`` accepts, in UTF-8.
_WIDE_SPACES = tuple(map(str.encode, "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
                                     "\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"))


def _count(data: bytes, chars: bytes) -> int:
    """How many bytes of ``data`` are among ``chars``."""
    return len(data) - len(data.translate(None, chars))


def naming_features(identifiers: list[IdentifierRecord], source: str) -> list[float]:
    """The 14 naming features; all zeros for an empty identifier set. ASCII
    characters are counted as UTF-8 bytes (a lone surrogate passes), the
    others, most often none, by ``str`` methods."""
    n = len(identifiers)
    if n == 0:
        return [0.0] * 14
    texts = [r.text for r in identifiers]
    joined = "".join(texts)
    chars = len(joined)
    names = joined.encode("utf-8", "surrogatepass")
    wide = names.translate(None, _ASCII).decode("utf-8", "surrogatepass")
    letters = _count(names, _ALPHA) + sum(map(str.isalpha, wide))
    cats = [r.category for r in identifiers]
    dists = [cats.count(cat) / n for cat in (  # the dist_* features, in registry order
        NameCategory.PASCAL_CASE, NameCategory.SNAKE_CASE, NameCategory.CAMEL_CASE,
        NameCategory.UPPER_CASE, NameCategory.PRIVATE, NameCategory.DUNDER)]
    data = source.encode("utf-8", "surrogatepass")
    non_ws = (len(source) - _count(data, _SPACE)
              - sum(map(data.translate(None, _ASCII).count, _WIDE_SPACES)))
    return [
        chars / n,
        sum(1 for t in texts if not any(map(str.isupper, t))) / n,
        joined.count("_") / chars,
        (_count(names, _DIGIT) + sum(map(str.isdigit, wide))) / chars,
        _count(data, _PUNCTUATION) / non_ws if non_ws else 0.0,
        (_count(names, _UPPER) + sum(map(str.isupper, wide))) / letters if letters else 0.0,
        (_count(names, _LOWER) + sum(map(str.islower, wide))) / letters if letters else 0.0,
        *dists,
        max(dists[:4]),  # the four case styles
    ]


def space_pattern(source: str) -> float:
    """Occupancy density of the 24x64 binary line-column matrix."""
    return _space_pattern(split_lines(normalize_newlines(source)))


def _space_pattern(lines: list[str]) -> float:
    """``space_pattern`` of a text's :func:`split_lines`."""
    occupied = 0
    for line in lines[:SPACE_PATTERN_ROWS]:
        # str.split cuts at exactly the characters str.isspace accepts
        occupied += sum(map(len, line.expandtabs(TAB_WIDTH)[:SPACE_PATTERN_COLS].split()))
    return occupied / (SPACE_PATTERN_ROWS * SPACE_PATTERN_COLS)


def layout_features(doc: SourceDoc) -> list[float]:
    """The 9 spacing/layout features, in registry order."""
    profile = doc.profile
    lines = profile.lines
    total = profile.total_lines
    nonblank = [rec for rec in lines if not rec.is_blank]
    blank_ratio = (total - len(nonblank)) / total if total else 0.0
    lengths = [rec.raw_length for rec in nonblank]
    avg_len = fmean(lengths) if lengths else 0.0
    var_len = (
        fmean([(x - avg_len) ** 2 for x in lengths]) if lengths else 0.0
    )
    levels = [rec.indent_columns / TAB_WIDTH for rec in nonblank]
    indent_avg = fmean(levels) if levels else 0.0

    operators = doc.operators
    space_before = sum(operators.values()) / len(operators) if operators else 0.0

    comment_ratio = (
        sum(1 for rec in nonblank if rec.is_comment_only or rec.has_inline_comment)
        / len(nonblank) if nonblank else 0.0
    )

    functions = doc.functions
    hint_ratio = (
        sum(1 for rec in functions if rec.has_return_annotation) / len(functions)
        if functions else 0.0
    )

    indented = [rec for rec in nonblank if rec.indent_columns > 0]
    if indented:
        counts = Counter(rec.indent_columns for rec in indented)
        top = max(counts.values())
        unit = min(c for c, k in counts.items() if k == top)
        consistent = sum(
            1 for rec in indented
            if rec.indent_columns % unit == 0
            and not (rec.leading_ws.strip(" ") and rec.leading_ws.strip("\t"))
        )
        indent_consistency = consistent / len(indented)
    else:
        indent_consistency = 1.0

    return [
        blank_ratio, avg_len, var_len, indent_avg, space_before,
        comment_ratio, hint_ratio, indent_consistency,
        _space_pattern(doc.lines),
    ]


def structural_features(doc: SourceDoc) -> list[float]:
    """The 11 structural features, in registry order.

    Each count is a mean over functions; a file without functions is
    measured as one whole-file pseudo-function. ``exception_score``,
    ``redundancy_ratio`` and ``annotation_ratio`` pool over the file.
    """
    profile = doc.profile
    functions = doc.functions
    if not functions:
        functions = [_pseudo_function(doc.stmts, profile.total_lines)]

    def effective_params(rec: FunctionInfo):
        params = list(rec.params)
        if rec.is_method and params and params[0].name in ("self", "cls"):
            params = params[1:]
        return params

    per_func_params = [effective_params(rec) for rec in functions]
    all_params = [p for ps in per_func_params for p in ps]
    clauses = [c for rec in functions for c in rec.except_clauses]
    code_lines = [" ".join(text.split()) for rec, text in zip(profile.lines, doc.lines)
                  if not (rec.is_blank or rec.is_comment_only)]

    n = len(functions)
    return [
        fmean([rec.max_call_depth for rec in functions]),
        fmean([rec.branch_count for rec in functions]),
        fmean([rec.return_count for rec in functions]),
        fmean([len(ps) for ps in per_func_params]),
        fmean([rec.body_line_span for rec in functions]),
        sum(1 for rec in functions if rec.has_docstring) / n,
        sum(1 for rec in functions if rec.has_try) / n,
        clauses.count(ExceptKind.SPECIFIC) / len(clauses) if clauses else 0.0,
        (len(code_lines) - len(set(code_lines))) / len(code_lines) if code_lines else 0.0,
        sum(1 for p in all_params if p.has_annotation) / len(all_params)
        if all_params else 0.0,
        fmean([rec.control_count for rec in functions]),
    ]


class _CollectorPause:
    """Turns the cyclic garbage collector off while any thread is inside it.

    The first thread in records whether the collector was on, and the last
    one out turns it back on only if it was. The count is kept under a lock:
    a thread that read the collector as off because another thread's pause
    had turned it off would otherwise never turn it back on.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inside = 0
        self._was_enabled = False

    def __enter__(self):
        with self._lock:
            if not self._inside:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._inside += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._inside -= 1
            if not self._inside and self._was_enabled:
                gc.enable()


_COLLECTOR_PAUSE = _CollectorPause()


def analyze(source: str, lenient: bool = False) -> StyleVectorRaw:
    """Compute the full 34-feature raw style vector for one source text.

    Strict by default: lexer errors propagate and malformed ``def``
    headers raise. Lenient mode tokenizes through problems and keeps
    whatever parses.

    The cyclic garbage collector is off for the length of the call and is
    turned back on at the end, raising or not, only if it was on at entry;
    when calls overlap in several threads, it comes back on as the last one
    returns. Every token stays tracked by the collector (``Token`` is a
    ``NamedTuple`` subclass holding an enum member), so a large file would
    trigger many collections that find nothing: the doc and everything built
    from it form no reference cycle and die by reference count when the call
    returns. The pause is process-wide. A thread that turns the collector off
    while ``analyze`` runs in another thread finds it on again once that call
    returns.
    """
    with _COLLECTOR_PAUSE:
        return analyze_doc(SourceDoc.of(source, lenient))


def analyze_doc(doc: SourceDoc) -> StyleVectorRaw:
    """``analyze`` of an already built doc, in the doc's mode."""
    if not doc.text.strip():
        raise EmptySource("source is empty after stripping whitespace")
    identifiers = _identifiers(doc)
    warnings = () if identifiers else ("empty-identifier-set",)
    values = (
        naming_features(identifiers, doc.text)
        + layout_features(doc)
        + structural_features(doc)
    )
    return StyleVectorRaw(values=tuple(values), warnings=warnings)


def normalize(raw: StyleVectorRaw | StyleVector) -> StyleVector:
    """Map a raw vector into [0, 1]^34; already-normalized vectors pass through."""
    if isinstance(raw, StyleVector):
        return raw
    # The clamp is ``min(max(v, 0.0), 1.0)``, -0.0 and NaN included, without two calls.
    return StyleVector(values=tuple([
        0.0 if (v := value if cap is None else value / cap) < 0.0 else 1.0 if v > 1.0 else v
        for value, cap in zip(raw.values, _CAPS)
    ]), schema=raw.schema)


# -- serialization ------------------------------------------------------------


def to_json_document(raw: StyleVectorRaw, vec: StyleVector | None = None) -> dict:
    """The s2c-style-v1 JSON document with fixed key order."""
    if vec is None:
        vec = normalize(raw)
    return {
        "schema": SCHEMA,
        "raw": raw.as_dict(),
        "normalized": list(vec.values),
    }


def to_json(raw: StyleVectorRaw, vec: StyleVector | None = None) -> str:
    return json.dumps(to_json_document(raw, vec))


def to_csv(raw: StyleVectorRaw, vec: StyleVector | None = None) -> str:
    """CSV with the registry header row, one row each for raw/normalized."""
    if vec is None:
        vec = normalize(raw)
    buf = io.StringIO()
    buf.write("kind," + ",".join(REGISTRY) + "\r\n")
    buf.write("raw," + ",".join(repr(v) for v in raw.values) + "\r\n")
    buf.write("normalized," + ",".join(repr(v) for v in vec.values) + "\r\n")
    return buf.getvalue()
