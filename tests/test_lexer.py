from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import archetype_corpus as ac
from lexer_invariants import stdlib_modules, violations
from stylekit import features, lexer, metrics, syntax
from stylekit.lexer import (
    InvalidCharacter,
    Token,
    TokenKind,
    UnterminatedString,
    bracket_depths,
    indent_columns,
    lex,
    line_profile,
)
from text_strategies import source_texts


def kinds(tokens):
    return [t.kind for t in tokens]


def texts(tokens):
    return [t.text for t in tokens if not t.is_synthetic()]


def test_simple_assignment():
    toks = lex("a = 1")
    assert kinds(toks) == [
        TokenKind.IDENTIFIER, TokenKind.OPERATOR, TokenKind.NUMBER, TokenKind.NEWLINE,
    ]
    assert texts(toks) == ["a", "=", "1"]


def test_empty_source_is_empty_stream():
    assert lex("") == []


def test_augmented_operator_is_single_token():
    toks = lex("x+=2 # hi")
    assert texts(toks) == ["x", "+=", "2", "# hi"]
    assert [t.kind for t in toks if t.text == "+="] == [TokenKind.OPERATOR]
    assert toks[-2].kind is TokenKind.COMMENT


@pytest.mark.parametrize("src,expected", [
    ("a==b", ["a", "==", "b"]),
    ("a**=2", ["a", "**=", "2"]),
    ("x//y", ["x", "//", "y"]),
    ("f(*args, **kw)", ["f", "(", "*", "args", ",", "**", "kw", ")"]),
    ("a->b", ["a", "->", "b"]),
    ("n:=3", ["n", ":=", "3"]),
])
def test_longest_match(src, expected):
    assert texts(lex(src)) == expected


def test_string_is_single_token():
    toks = lex('x = "hello world"')
    assert texts(toks) == ["x", "=", '"hello world"']


def test_triple_quoted_string_spans_lines():
    src = 'x = """one\ntwo"""\ny = 2'
    toks = [t for t in lex(src) if t.kind is TokenKind.STRING]
    assert len(toks) == 1
    assert toks[0].text == '"""one\ntwo"""'
    assert toks[0].line == 1


def test_prefixed_strings():
    for src in ("r'a\\b'", "f'v={x}'", "b'abc'", "rb'\\x00'"):
        toks = lex(src)
        assert toks[0].kind is TokenKind.STRING
        assert toks[0].text == src


@pytest.mark.parametrize("src, expected", [
    ('rb "x"', [(TokenKind.IDENTIFIER, "rb", 0), (TokenKind.STRING, '"x"', 3)]),
    ("rb\t'x'", [(TokenKind.IDENTIFIER, "rb", 0), (TokenKind.STRING, "'x'", 4)]),
    ("x'a'", [(TokenKind.IDENTIFIER, "x", 0), (TokenKind.STRING, "'a'", 1)]),
])
def test_a_name_before_a_string_is_no_prefix(src, expected):
    """Only a prefix right before its quote opens a string: after blanks, or
    when the name is no prefix, the name and the string are two tokens."""
    assert [(t.kind, t.text, t.col) for t in lex(src) if not t.is_synthetic()] == expected


def test_unterminated_string_raises_with_line():
    with pytest.raises(UnterminatedString) as exc:
        lex('a = 1\nb = "oops')
    assert exc.value.line == 2


@pytest.mark.parametrize("src, expected", [
    ('b = "oops', [("b", 1, 0), ("=", 1, 2), ('"oops', 1, 4), ("", 1, 9)]),
    # one quote: closed before the line feed, which ends the logical line
    ("s = 'a\nt", [("s", 1, 0), ("=", 1, 2), ("'a", 1, 4), ("", 1, 6), ("t", 2, 0), ("", 2, 1)]),
    # three quotes: closed at the end of the text
    ("s = '''a\nt", [("s", 1, 0), ("=", 1, 2), ("'''a\nt", 1, 4), ("", 2, 1)]),
    # a backslash takes the last line feed, so the Newline sits at (n + 1, 0)
    ("def:'\\\n", [("def", 1, 0), (":", 1, 3), ("'\\\n", 1, 4), ("", 2, 0)]),
])
def test_lenient_mode_closes_unterminated_string(src, expected):
    toks = lex(src, lenient=True)
    assert [(t.text, t.line, t.col) for t in toks] == expected
    assert toks[2].kind is TokenKind.STRING


def test_unknown_character_becomes_punct():
    toks = lex("a ? b")
    assert [t.kind for t in toks if t.text == "?"] == [TokenKind.PUNCT]


def test_non_decimal_digit_is_invalid_character():
    # str.isdigit() accepts "²" but no number literal can start with it.
    for lenient in (False, True):
        with pytest.raises(InvalidCharacter) as exc:
            lex("x = 1\ny = ²", lenient=lenient)
        assert (exc.value.line, exc.value.char) == (2, "²")
    with pytest.raises(InvalidCharacter):
        lex("z = .²")
    assert texts(lex("x² = ٣")) == ["x²", "=", "٣"]


def test_tab_expands_to_four_columns():
    toks = lex("\tx=1")
    x = next(t for t in toks if t.text == "x")
    assert x.col == 4


@pytest.mark.parametrize("src, dedent_line", [
    ("if a:\n    b = 1\nc = 2", 3),
    # a closing Dedent sits on the line after the last one...
    ("if a:\n  b\n", 3),
    ("if a:\n  b", 3),
    ("if a:\n  b \\\n  ", 4),  # after a backslash join too
    # ...unless only blanks start a statement on a last line without a line feed
    ("if a:\n  b\n  ", 3),
])
def test_indent_dedent_pairing(src, dedent_line):
    toks = lex(src)
    assert [(t.line, t.col) for t in toks if t.kind is TokenKind.INDENT] == [(2, 0)]
    assert [(t.line, t.col) for t in toks if t.kind is TokenKind.DEDENT] == [(dedent_line, 0)]


def test_blank_and_comment_lines_do_not_dedent():
    src = "def f():\n    a = 1\n\n    # note\n# outdented\n      # deeper\n    return a\n"
    ks = kinds(lex(src))
    assert ks.count(TokenKind.INDENT) == 1
    assert ks.count(TokenKind.DEDENT) == 1


def test_newline_inside_brackets_is_not_logical():
    src = "f(1,\n  2)"
    toks = lex(src)
    assert kinds(toks).count(TokenKind.NEWLINE) == 1
    assert kinds(toks).count(TokenKind.INDENT) == 0


def test_backslash_join_is_one_logical_line():
    src = "x = 1 + \\\n    2"
    toks = lex(src)
    assert kinds(toks).count(TokenKind.NEWLINE) == 1
    assert kinds(toks).count(TokenKind.INDENT) == 0


def test_crlf_normalized():
    assert texts(lex("a = 1\r\nb = 2")) == texts(lex("a = 1\nb = 2"))


def test_positions_monotonic():
    src = "def f(a):\n    if a:\n        return a\n    return 0\n"
    toks = lex(src)
    pairs = [(t.line, t.col) for t in toks]
    assert pairs == sorted(pairs)


def test_keywords_vs_identifiers():
    toks = lex("for item in items: pass")
    by_text = {t.text: t.kind for t in toks if not t.is_synthetic()}
    assert by_text["for"] is TokenKind.KEYWORD
    assert by_text["item"] is TokenKind.IDENTIFIER
    assert by_text["in"] is TokenKind.KEYWORD
    assert by_text["pass"] is TokenKind.KEYWORD


@pytest.mark.parametrize("lit", ["0x1F", "0b1010", "0o17", "1_000", "3.14", ".5", "1e-3", "2j"])
def test_number_literals(lit):
    toks = lex(f"x = {lit}")
    assert toks[2].kind is TokenKind.NUMBER
    assert toks[2].text == lit


@pytest.mark.parametrize("src,expected", [
    ("5..a", ["5.", ".", "a"]),
    ("1..real", ["1.", ".", "real"]),
    ("1...", ["1.", ".", "."]),  # as tokenize splits it; compile rejects the text
    ("1....", ["1.", "..."]),
])
def test_trailing_dot_number_before_more_dots(src, expected):
    assert texts(lex(src)) == expected
    assert lex(src)[0].kind is TokenKind.NUMBER


SAMPLES = [
    "a = 1",
    "x+=2 # hi",
    "def f(a, b):\n    return a + b",
    "class C:\n    def m(self):\n        return self.x\n",
    'def g():\n    """doc"""\n    for i in range(3):\n        print(i)\n',
    "if a:\n\tb = 1\nelse:\n\tb = 2\n",
    "data = {\n    'k': [1, 2],\n}\n",
    "try:\n    pass\nexcept ValueError:\n    raise\n",
    "# leading comment\n\nx = 'multi\\nline'\ny = \"\"\"a\nb\"\"\"\n",
    "total = sum(\n    v\n    for v in vals\n)\n",
    "a = 1\rb = 2\r\nc = 3\n",          # CR and CRLF line ends
    "if a:\n \x0c \x0c  b = 1\n",       # the column restarts at the last form feed
    "x = 'open\n\ty\tz = '''\nend",     # a tab after a name; open strings
]


@pytest.mark.parametrize("src", SAMPLES)
def test_lexer_invariants_hold_on_samples(src):
    assert violations(src) == []


@given(source_texts())
@settings(max_examples=1000, deadline=None)
# A lenient string left open to the end of a text that ends in a line feed
# takes that line feed, so the closing Newline sits at (n + 1, 0).
@example("def:'\\\n")
def test_lexer_invariants_hold_on_generated_text(src):
    assert violations(src) == []


def test_lexer_invariants_hold_on_the_archetype_corpus():
    assert [name for name, src, _ in ac.make_corpus(60, seed=0) if violations(src)] == []


def test_lexer_invariants_hold_on_stdlib_modules():
    modules = stdlib_modules()
    assert len(modules) > 50
    sample = random.Random(0).sample(modules, 40)
    assert {p.name: v for p in sample if (v := violations(p.read_text(encoding="utf-8")))} == {}


@given(st.text(alphabet="abc_ (),:=+#'\n\t0123456789", max_size=80))
@settings(max_examples=300, deadline=None)
def test_lex_total_and_deterministic(src):
    try:
        first = lex(src)
    except UnterminatedString:
        return
    assert first == lex(src)
    pairs = [(t.line, t.col) for t in first]
    assert pairs == sorted(pairs)


def test_line_profile_counts():
    prof = line_profile("a=1\n\nb=2")
    assert prof.total_lines == 3
    assert prof.lines[1].is_blank
    assert not prof.lines[0].is_blank


def test_line_profile_trailing_newline():
    assert line_profile("a=1\n").total_lines == 1
    assert line_profile("").total_lines == 0


def test_line_profile_counts_lines_as_tokens_do():
    # A form feed is a line break to str.splitlines, not to the lexer.
    source = "a = 1\x0cb = 2\n# note\nc = 3\n"
    prof = line_profile(source)
    assert prof.total_lines == 3
    assert [rec.is_comment_only for rec in prof.lines] == [False, True, False]
    assert prof.lines[0].raw_length == len("a = 1\x0cb = 2")
    assert [t.line for t in lex(source) if t.kind is TokenKind.COMMENT] == [2]


def test_form_feed_is_whitespace_that_restarts_the_column():
    toks = lex("\x0cdef f():\n  \x0c\tx = 1\x0c+ 2\n")
    assert [(t.text, t.line, t.col) for t in toks if not t.is_synthetic()] == [
        ("def", 1, 0), ("f", 1, 4), ("(", 1, 5), (")", 1, 6), (":", 1, 7),
        ("x", 2, 4), ("=", 2, 6), ("1", 2, 8), ("+", 2, 10), ("2", 2, 12),
    ]
    assert kinds(toks).count(TokenKind.INDENT) == 1
    # the line profile measures indentation as the tokens do
    assert indent_columns("  \x0c\t") == 4
    assert line_profile("if a:\n \x0c  b = 1\n").lines[1].indent_columns == 2


@pytest.mark.parametrize("src, line, col", [
    ("x = (a\n\x0c + b)\n", 2, 1),       # inside brackets
    ("x = a \\\n\x0c+ b\n", 2, 0),       # after a backslash join
    ("s = '''a\n \x0c''' + b\n", 2, 4),  # on the last line of a string
    ("x = a \x0c+ b\n", 1, 7),           # not leading: one column
])
def test_form_feed_restarts_the_column_on_every_physical_line(src, line, col):
    assert [(t.line, t.col) for t in lex(src) if t.text == "+"] == [(line, col)]


def test_blanks_after_names_and_operators_count_form_feeds_as_one_column():
    # "a" at 0; " \t" reach the stop at 4 and "\x0c" takes one column, so "="
    # sits at 5; " \x0c" reach 8 and "\t" the stop at 12.
    toks = lex("a \t\x0c= \x0c\tb")
    assert [(t.text, t.col) for t in toks if not t.is_synthetic()] == [
        ("a", 0), ("=", 5), ("b", 12)]


def test_leading_bom_is_dropped():
    source = "x = 1  # c\n"
    assert lex("\ufeff" + source) == lex(source)
    assert line_profile("\ufeff" + source) == line_profile(source)
    assert texts(lex("x = \ufeff")) == ["x", "=", "\ufeff"]  # only a leading one


def test_line_profile_leading_ws_verbatim():
    prof = line_profile("    x=1")
    assert prof.lines[0].leading_ws == "    "
    prof = line_profile("\tx=1")
    assert prof.lines[0].leading_ws == "\t"
    assert prof.lines[0].indent_columns == 4


def test_line_profile_comment_flags():
    prof = line_profile("# only\nx = 1  # inline\ny = 2\ns = '# not a comment'")
    assert prof.lines[0].is_comment_only
    assert prof.lines[1].has_inline_comment
    assert not prof.lines[2].has_inline_comment
    assert not prof.lines[3].is_comment_only
    assert not prof.lines[3].has_inline_comment


def test_line_profile_string_spanning_lines_is_code():
    prof = line_profile('s = """\n# inside\n"""')
    assert not prof.lines[1].is_comment_only


def comment_flags_by_definition(source: str) -> list[tuple[bool, bool]]:
    """(comment-only, inline comment) of each line from the lenient tokens: a
    line holds code when a real token other than a comment covers it, a
    string every line it spans (a line feed that ends it, a lenient open
    string's, belongs to the line it ends)."""
    text = lexer.normalize_newlines(source)
    comment, code = set(), set()
    for tok in lex(text, lenient=True):
        if tok.kind is TokenKind.COMMENT:
            comment.add(tok.line)
        elif not tok.is_synthetic():
            code.update(range(tok.line, tok.line + tok.text[:-1].count("\n") + 1))
    return [(line in comment and line not in code, line in comment and line in code)
            for line in range(1, len(lexer.split_lines(text)) + 1)]


# Where the tokenize oracle cannot reach: text that does not compile, and any
# Python from 3.12.
@given(source_texts())
@settings(max_examples=1000, deadline=None)
@example('s = """a\nb"""  # c\n')          # after a triple-quoted string closing on its line
@example("x = (\n    # c\n    1,  # d\n)\n")  # comment-only lines inside brackets
@example("x = 1 + \\\n    # c\ny = \\\n  2  # d\n")  # comments after backslash joins
@example("x = 1\n# c")                    # a comment on a last line with no line feed
@example("x = 1  # c")
@example("\x0c# c\nx = 1\x0c# d\n")       # form feeds before comments
@example("s = 'abc\n# c\n")               # a lenient unterminated string, then a comment line
def test_comment_flags_follow_their_definition(source):
    try:
        profile = line_profile(source)
    except InvalidCharacter:  # "²", the one error of lenient mode
        return
    flags = [(rec.is_comment_only, rec.has_inline_comment) for rec in profile.lines]
    assert flags == comment_flags_by_definition(source)


def test_indent_columns_tab_stops():
    assert indent_columns("\t") == 4
    assert indent_columns("  \t") == 4
    assert indent_columns("    \t") == 8
    assert indent_columns("  ") == 2


def test_bracket_depths_opener_and_closer_sit_outside():
    toks = [t for t in lex("f(a[1], {b})") if not t.is_synthetic()]
    #        f  (  a  [  1  ]  ,  {  b  }  )
    assert bracket_depths(toks) == [0, 0, 1, 1, 2, 1, 1, 1, 2, 1, 0]
    toks = lex("s = '(' + ')'  # [\n")  # brackets in strings and comments
    assert bracket_depths(toks) == [0] * len(toks)


def test_bracket_depths_stray_closer_goes_below_zero():
    toks = [t for t in lex("x = 1); y = (2") if not t.is_synthetic()]
    #        x  =  1  )   ;   y   =   (   2
    assert bracket_depths(toks) == [0, 0, 0, -1, -1, -1, -1, -1, 0]


def test_token_value_semantics():
    tok = lex("x = 1\n")[0]
    fields = (TokenKind.IDENTIFIER, "x", 1, 0)
    assert repr(tok) == "Token(kind=<TokenKind.IDENTIFIER: 'Identifier'>, text='x', line=1, col=0)"
    assert tok == Token(*fields) and not tok != Token(*fields)
    assert tok != Token(TokenKind.IDENTIFIER, "x", 1, 1)
    assert hash(tok) == hash(Token(*fields)) == hash(fields)
    # Equal hashes, but a token never equals the plain tuple of its fields.
    assert tok != fields and fields != tok
    assert not tok == fields and not fields == tok
    assert len({tok, fields}) == 2
    with pytest.raises(AttributeError):
        tok.text = "y"
    assert tok.is_synthetic() is False and lex("x\n")[-1].is_synthetic() is True


def kind_reads_in_functions(module) -> list[str]:
    """``module.function:line`` of each ``TokenKind.<NAME>`` read in a function
    or lambda body; reads at module or class level are not listed."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    where = {}
    for fn in ast.walk(tree):  # outer before inner, so a nested function names its own reads
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for stmt in fn.body if isinstance(fn.body, list) else [fn.body]:
                for node in ast.walk(stmt):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                            and isinstance(node.value, ast.Name) and node.value.id == "TokenKind"):
                        where[node.lineno, node.col_offset] = getattr(fn, "name", "<lambda>")
    short = module.__name__.rpartition(".")[2]
    return [f"{short}.{name}:{line}" for (line, _), name in sorted(where.items())]


def test_analysis_code_reads_token_kinds_from_module_globals():
    # On Python 3.10 and 3.11 each ``TokenKind.<NAME>`` read goes through
    # ``EnumType.__getattr__``, many times slower than a global, and these
    # modules run their reads once per token or statement.
    assert [read for module in (lexer, syntax, features, metrics)
            for read in kind_reads_in_functions(module)] == []
    for kind in TokenKind:
        alias = "_" + kind.name
        assert getattr(lexer, alias) is kind
        for module in (syntax, features):
            assert getattr(module, alias, kind) is kind
    assert lexer._SYNTHETIC == (TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.DEDENT)
