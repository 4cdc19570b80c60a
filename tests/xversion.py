"""One fingerprint of the analyzer's outputs, equal on every supported Python.

Run from the repository root with any interpreter, numpy or not:

    PYTHONPATH=src python3 tests/xversion.py

It prints one sha256 over, for each text, the tokens and the raw and
normalized style vectors in strict and lenient mode (or the error each
raised), and over the ``score`` report of each pair of consecutive texts.
The texts are the sources of ``golden/*.json``, then ``TEXTS`` texts that
``random.Random(0)`` joins from ``PIECES``. It uses only the stdlib and the
analyzer modules, not ``text_strategies`` (which imports Hypothesis), so a
bare interpreter runs it. ``EXPECTED`` is the hash on Python 3.10 to 3.13;
``tests/test_features.py`` and CI's step without numpy assert it. Every
value is written with ``ascii``, so no text's form depends on the Unicode
version's printable set.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from stylekit.features import analyze, normalize
from stylekit.lexer import InputError, lex
from stylekit.metrics import score

EXPECTED = "14754ffb5a1535a95a94c4ccd9ad7a07a986790644ffd9b4ea7f730f1cbc1be3"
TEXTS = 2000
GOLDEN = Path(__file__).resolve().parent.parent / "golden"

# Lexer edge cases, whole code lines, and characters outside ASCII: spaces
# that only ``str.isspace`` knows (U+00A0, U+0085, U+2028, U+3000), a
# letter, a titlecase letter, a non-ASCII digit and a lone surrogate.
PIECES = (
    "a", "b1", "_x", "Cls", "camelCase", "UPPER_2", "__init__", "def", "if", "rb", "f",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\\\n", "\\", "\x0c", "\ufeff",
    "'", '"', "'''", '"""', "(", ")", "[", "]", "{", "}", "#", "# c\n",
    ".", "...", "5", ".5", "1e3", "0x1f", "3j", "²",
    ":", "=", "==", "**=", "->", ":=", ",", ";", "!", "$", "-", "+",
    "\xa0", "\x85", "\u2028", "\u3000", "\xe9", "\u01c5", "\u0663", "\ud800",
    "def f(a, b: int = 1) -> int:\n", "class C(B):\n", "    ", "x = y + 1\n",
    "return f(g(x))\n", "try:\n", "except ValueError as e:\n", "'''doc'''\n",
    "for i in range(n):\n", "    pass\n",
)


def texts() -> list[str]:
    golden = [json.loads(path.read_text())["source"] for path in sorted(GOLDEN.glob("*.json"))]
    rng = random.Random(0)
    return golden + ["".join(rng.choice(PIECES) for _ in range(rng.randint(0, 40)))
                     for _ in range(TEXTS)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:  # a declared error is an output too
        return type(exc).__name__, str(exc)


def _analysis(text: str, lenient: bool):
    raw = analyze(text, lenient=lenient)
    return raw.values, raw.warnings, normalize(raw).values


def _report(candidate: str, reference: str) -> dict:
    return score(candidate, reference).as_dict()


def _tokens(text: str, lenient: bool):
    return [(tok.kind.value, tok.text, tok.line, tok.col) for tok in lex(text, lenient)]


def fingerprint() -> str:
    digest = hashlib.sha256()
    sources = texts()
    for text in sources:
        for lenient in (False, True):
            digest.update(ascii(_outcome(_tokens, text, lenient)).encode())
            digest.update(ascii(_outcome(_analysis, text, lenient)).encode())
    for candidate, reference in zip(sources, sources[1:]):
        digest.update(ascii(_outcome(_report, candidate, reference)).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(fingerprint())
