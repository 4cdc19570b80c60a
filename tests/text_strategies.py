"""Hypothesis strategies for source text, shared by the property tests.

``FRAGMENTS`` are pieces that steer the lexer into its edge cases;
``source_texts`` mixes them with arbitrary Unicode and with whole code
lines, so a property also reaches the parser and the snippet extractor.
"""

from __future__ import annotations

from hypothesis import strategies as st

# Pieces that exercise the scanner's edge cases: tabs against the 4-column
# stops, backslash joins, every quote form and string prefix, brackets
# across lines, comments, a BOM, a form feed, CR line ends, numbers next to
# dots, and non-ASCII letters and digits.
FRAGMENTS = (
    "a", "b1", "_x", "def", "if", "rb", "f", "Br", "é", "²", "٣",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\\\n", "\\",
    "'", '"', "'''", '"""', "(", ")", "[", "]", "{", "}",
    "#", "# c", "\ufeff", "\x0c", ".", "...", "5", ".5", "1e3", "0x1f", "3j",
    ":", "=", "==", "**=", "->", ":=", ",", ";", "!", "$", "-",
)

# Whole lines and indents: headers with blocks, bodies long enough to be
# snippets, comment runs, and a string left open at the end of the text.
CODE_PIECES = (
    "def f(a, b: int = 1) -> int:\n", "async def g(*args, **kw):\n", "class C(B):\n",
    "for i in range(n):\n", "while x:\n", "if a:\n", "else:\n", "try:\n",
    "except Exception as e:\n", "with open(p) as fh:\n", "    ", "\t", "\n",
    "x = y + 1\n", "return f(g(x))\n", "pass\n", "# note\n", "'''doc'''\n",
    "Value_2 = CONST\n", "def:", "'\\", "'''open",
)


def source_texts() -> st.SearchStrategy[str]:
    """Arbitrary text, lexer fragments, or code pieces, joined."""
    return st.one_of(
        st.text(max_size=60),
        st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join),
        st.lists(st.sampled_from(CODE_PIECES + FRAGMENTS), max_size=30).map("".join),
    )
