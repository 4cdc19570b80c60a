from __future__ import annotations

import json
import math
import sys

import pytest

import archetype_corpus as ac
from stylekit import lexer, syntax
from stylekit.cli import main
from stylekit.contrastive import extract_snippets
from stylekit.corpus import from_sources, precompute_styles
from stylekit.features import REGISTRY, analyze, extract_identifiers
from stylekit.lexer import line_profile
from stylekit.metrics import score
from stylekit.syntax import (
    ExceptKind,
    SourceDoc,
    SyntaxUnsupported,
    _pseudo_function,
    block_spans,
    parse_functions,
    parse_module,
)


def test_basic_function_record():
    recs = parse_functions("def f(a, b):\n    return a + b")
    assert len(recs) == 1
    rec = recs[0]
    assert rec.name == "f"
    assert [p.name for p in rec.params] == ["a", "b"]
    assert not any(p.has_annotation for p in rec.params)
    assert rec.return_count == 1
    assert rec.branch_count == 0
    assert rec.body_line_span == 1
    assert not rec.has_docstring
    assert not rec.is_method


def test_docstring_detection():
    recs = parse_functions('def g():\n    """doc"""\n    pass')
    assert recs[0].has_docstring


def test_no_functions():
    assert parse_functions("x = 3") == []
    # A line shallower than the first ends all nesting: the rest stays flat
    # statements, so this def is no function and binds no name.
    shallow = "  x = 1\ndef f():\n    return 1\n"
    assert parse_functions(shallow) == []
    assert [r.text for r in extract_identifiers(shallow)] == ["x"]


def test_nested_defs_are_separate_records():
    src = (
        "def outer():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner()\n"
    )
    recs = parse_functions(src)
    assert [r.name for r in recs] == ["outer", "inner"]
    outer, inner = recs
    # inner's return belongs to inner; outer keeps its own
    assert inner.return_count == 1
    assert outer.return_count == 1
    # outer's span covers the nested def lines
    assert outer.body_line_span == 3
    assert inner.body_line_span == 1


def test_method_detection_by_class_and_by_self():
    src = (
        "class C:\n"
        "    def m(self, x):\n"
        "        return x\n"
        "\n"
        "def free(self):\n"
        "    return self\n"
        "\n"
        "def plain(a):\n"
        "    return a\n"
    )
    recs = {r.name: r for r in parse_functions(src)}
    assert recs["m"].is_method
    assert recs["free"].is_method  # first param named self
    assert not recs["plain"].is_method


def test_async_def():
    recs = parse_functions("async def fetch(url):\n    return url")
    assert recs[0].name == "fetch"


def test_annotations():
    recs = parse_functions("def f(a: int, b, *args, c: str = 'x') -> bool:\n    return True")
    rec = recs[0]
    assert [p.name for p in rec.params] == ["a", "b", "args", "c"]
    assert [p.has_annotation for p in rec.params] == [True, False, False, True]
    assert rec.has_return_annotation


def test_default_without_annotation():
    rec = parse_functions("def f(a=1):\n    pass")[0]
    assert rec.params == rec.params  # smoke
    assert not rec.params[0].has_annotation


def test_branch_and_control_counts():
    src = (
        "def f(x):\n"
        "    if x > 0:\n"
        "        return 1\n"
        "    elif x < 0:\n"
        "        return -1\n"
        "    else:\n"
        "        for i in range(3):\n"
        "            pass\n"
        "    while x:\n"
        "        x -= 1\n"
        "    with open('f') as fh:\n"
        "        fh.read()\n"
        "    return 0\n"
    )
    rec = parse_functions(src)[0]
    assert rec.branch_count == 2   # if + elif
    assert rec.control_count == 4  # if, for, while, with
    assert rec.return_count == 3


def test_except_classification():
    src = (
        "def f():\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError:\n"
        "        pass\n"
        "    except (KeyError, OSError) as e:\n"
        "        pass\n"
        "    except Exception:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n"
    )
    rec = parse_functions(src)[0]
    assert rec.has_try
    assert rec.except_clauses == (
        ExceptKind.SPECIFIC,
        ExceptKind.SPECIFIC,
        ExceptKind.GENERIC,
        ExceptKind.BARE,
    )


def test_except_clauses_imply_try():
    rec = parse_functions("def f():\n    try:\n        pass\n    except:\n        pass")[0]
    assert rec.except_clauses and rec.has_try


def test_call_depth_nested_vs_sequential():
    nested = parse_functions("def f(x):\n    return a(b(c(x)))")[0]
    assert nested.max_call_depth == 3
    sequential = parse_functions("def f(p):\n    return open(p).read()")[0]
    assert sequential.max_call_depth == 1
    none = parse_functions("def f():\n    return 1")[0]
    assert none.max_call_depth == 0
    # the paren after a def or class name opens no call; one in a default
    # or a base does, and a def inside brackets is no header
    default = parse_functions("async def f(a=g(h(1))): return a")[0]
    assert default.max_call_depth == 2
    base = parse_functions("def f():\n    class C(B(x)):\n        pass\n")[0]
    assert base.max_call_depth == 1
    stmts = SourceDoc.of("print(def f(x))\n", lenient=True).stmts
    assert _pseudo_function(stmts, 1).max_call_depth == 2


def test_call_depth_subscript_call():
    rec = parse_functions("def f(t):\n    return t[0](g(t))")[0]
    assert rec.max_call_depth == 2


@pytest.mark.parametrize("lead", ["\x0c", "\ufeff"])
def test_form_feed_or_bom_before_def(lead):
    src = lead + "def f(a):\n    return a\n"
    for lenient in (False, True):
        assert [rec.name for rec in parse_functions(src, lenient)] == ["f"]


def test_span_includes_blank_lines_inside_body():
    src = "def f():\n    a = 1\n\n    return a\n"
    assert parse_functions(src)[0].body_line_span == 3
    # a header with an empty block counts in no range
    assert parse_functions("def f():\n    if x:\n    y = 1\n")[0].body_line_span == 1


def test_inline_body():
    rec = parse_functions("def f(): return 1")[0]
    assert rec.body_line_span == 1
    assert rec.return_count == 1


def test_inline_compound_statement():
    rec = parse_functions("def f(x):\n    if x: return 1\n    return 0")[0]
    assert rec.return_count == 2
    assert rec.branch_count == 1


def test_strict_mode_raises_on_malformed_header():
    with pytest.raises(SyntaxUnsupported) as exc:
        parse_functions("def f(:\n    pass")
    assert exc.value.line == 1


def test_lenient_mode_keeps_earlier_records():
    src = (
        "def good():\n"
        "    return 1\n"
        "def (broken:\n"
        "    pass\n"
    )
    recs = parse_functions(src, lenient=True)
    assert [r.name for r in recs] == ["good"]


def test_one_record_per_def_keyword():
    src = (
        "def a():\n    pass\n"
        "class K:\n"
        "    def b(self):\n        pass\n"
        "    def c(self):\n        pass\n"
        "def d():\n"
        "    def e():\n        pass\n"
    )
    recs = parse_functions(src)
    assert len(recs) == src.count("def ")


def test_pure_function_same_input_same_records():
    src = "def f(a):\n    if a:\n        return a\n    return 0\n"
    assert parse_functions(src) == parse_functions(src)


def test_decorators_recorded_but_not_analyzed():
    src = "@wraps(fn)\ndef f():\n    return 1\n"
    recs = parse_functions(src)
    assert [r.name for r in recs] == ["f"]


def test_module_pseudo_function():
    src = "x = 1\nif x:\n    print(x)\n"
    rec = _pseudo_function(SourceDoc.of(src, lenient=True).stmts, 3)
    assert rec.name == "<module>"
    assert rec.branch_count == 1
    assert rec.control_count == 1
    assert rec.max_call_depth == 1
    assert rec.body_line_span == 3
    assert rec.params == ()


def test_module_docstring():
    src = '"""doc"""\nx = 1\n'
    rec = _pseudo_function(SourceDoc.of(src, lenient=True).stmts, 2)
    assert rec.has_docstring


def test_block_spans_for_snippets():
    src = (
        "def f():\n"
        "    a = 1\n"
        "    return a\n"
        "\n"
        "for i in range(3):\n"
        "    print(i)\n"
        "    print(i * 2)\n"
    )
    spans = block_spans(src)
    by_kind = {s.kind: s for s in spans}
    assert by_kind["def"].body_start == 2 and by_kind["def"].body_end == 3
    assert by_kind["for"].body_start == 6 and by_kind["for"].body_end == 7
    # a header with an empty block counts in no range
    for src, lines in [("def f():\n    if x:\n    y = 1\n", (3, 3)),
                       ("def f():\n    x = 1\n    if y:\n", (2, 2))]:
        assert [(s.kind, s.body_start, s.body_end) for s in block_spans(src)] == [
            ("def", *lines)]


@pytest.mark.parametrize("src", ["def:'\\\n", "'''abc\n", "for x in y: '''abc\n"])
def test_a_string_that_takes_the_final_line_feed_ends_on_the_last_line(src):
    # A lenient unterminated string swallows the line feed that ends the
    # text. That line feed ends line 1, so no statement or body reaches line 2.
    headed = src.startswith(("def", "for"))
    assert [(s.line_start, s.line_end) for s in parse_module(src, lenient=True)] == [
        (1, 1)] * (1 + headed)
    assert [(s.body_start, s.body_end) for s in block_spans(src)] == [(1, 1)] * headed
    assert len(line_profile(src).lines) == 1


# -- one analysis per source --------------------------------------------------


def patch_every_binding(monkeypatch, original, replacement):
    """Replace ``original`` wherever a stylekit module binds it."""
    for name, module in list(sys.modules.items()):
        if name == "stylekit" or name.startswith("stylekit."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


@pytest.fixture
def lexed(monkeypatch):
    """Sources passed to ``lex``, counted at every binding in the package."""
    calls: list[str] = []
    original = lexer.lex

    def counting(source, lenient=False):
        calls.append(source)
        return original(source, lenient=lenient)

    patch_every_binding(monkeypatch, original, counting)
    return calls


LEX_SRC = (
    "# leading comment block\n# second line\n# third line\n"
    "def f(a, b):\n    total = a + b\n    for i in range(b):\n"
    "        total += i\n        total *= 2\n        total -= 1\n"
    "    return total\n"
)


@pytest.mark.parametrize("lenient", [False, True])
def test_analyze_lexes_once(lexed, lenient):
    analyze(LEX_SRC, lenient=lenient)
    assert lexed == [LEX_SRC]


def test_score_lexes_each_side_once(lexed):
    other = LEX_SRC.replace("total", "acc")
    score(LEX_SRC, other)
    assert sorted(lexed) == sorted([LEX_SRC, other])


def test_extract_snippets_lexes_once(lexed):
    assert len(extract_snippets(LEX_SRC)) == 3
    assert lexed == [LEX_SRC]


def test_strict_doc_equals_lenient_doc_when_strict_succeeds():
    for _, source, _ in ac.make_corpus(30, seed=2):
        strict, lenient = SourceDoc.of(source), SourceDoc.of(source, lenient=True)
        assert strict.tokens == lenient.tokens
        assert strict.stmts == lenient.stmts
        assert strict.functions == lenient.functions
        assert strict.profile == lenient.profile == line_profile(source)


def test_strict_doc_raises_where_lenient_doc_skips():
    source = "def f(x)\n    return x\n"
    with pytest.raises(SyntaxUnsupported):
        SourceDoc.of(source).functions
    assert SourceDoc.of(source, lenient=True).functions == []


@pytest.mark.parametrize("lenient", [False, True])
def test_analyze_parses_each_def_header_once(monkeypatch, lenient):
    source = ("def f(a):\n    def g(b):\n        return b\n    return g(a)\n"
              "\ndef h(c, d):\n    return c\n")
    calls = []
    original = syntax._def_name_and_params

    def counting(header):
        calls.append(header.line_start)
        return original(header)

    patch_every_binding(monkeypatch, original, counting)
    analyze(source, lenient=lenient)
    assert calls == [1, 2, 6]
    doc = SourceDoc.of(source, lenient)
    assert [(doc.stmts[i].line_start, rec.name) for i, rec in doc.defs.items()] == [
        (1, "f"), (2, "g"), (6, "h")]
    assert doc.functions == list(doc.defs.values())


def test_operators_by_token_index():
    # ``-`` after ``=`` is unary and ``~`` never counts; ``*`` has no space before it.
    doc = SourceDoc.of("x = -a + b*c\ny = ~x\n")
    assert doc.operators == {1: True, 4: True, 6: False, 10: True}


def test_a_def_header_malformed_after_its_colon():
    # The header has a top-level colon, so it parses as a ``def`` statement,
    # and only the record fails: strict analysis raises, lenient skips it.
    source = "def f:\n    return 1\ndef g(a, b):\n    return a\n"
    with pytest.raises(SyntaxUnsupported) as caught:
        analyze(source)
    assert str(caught.value) == "line 1: unsupported or malformed def header"
    assert [r.text for r in extract_identifiers(source)] == ["f", "g", "a", "b"]
    assert [rec.name for rec in parse_functions(source, lenient=True)] == ["g"]


# -- deep nesting -------------------------------------------------------------


DEEP = ("def f(a):\n"
        + "".join("    " * (i + 1) + f"if a{i}:\n" for i in range(1000))
        + "    " * 1001 + "return a\n")


@pytest.mark.parametrize("lenient", [False, True])
def test_deep_nesting_analyzes(lenient):
    values = analyze(DEEP, lenient=lenient).values
    assert len(values) == len(REGISTRY) == 34
    assert all(math.isfinite(v) for v in values)


def test_deep_nesting_function_record():
    [rec] = parse_functions(DEEP)
    assert (rec.name, rec.branch_count, rec.return_count) == ("f", 1000, 1)
    assert rec.body_line_span == 1001


def test_deep_nesting_precomputes_and_runs_in_the_cli(tmp_path, capsys):
    out = precompute_styles(from_sources([("deep", DEEP), ("flat", "x = 1\n")]))
    assert out.manifest.style_errors == {}
    assert all(r.style_vec is not None for r in out.records)
    path = tmp_path / "deep.py"
    path.write_text(DEEP, encoding="utf-8")
    assert main(["analyze", str(path), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["raw"]) == 34
