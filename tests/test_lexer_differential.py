"""The single-pass lexer against the earlier one-character-at-a-time lexer.

``lexer_reference`` holds the earlier implementation unchanged. On every
input both must give the same ``(kind, text, line, col)`` stream, or raise
the same exception class, in strict and in lenient mode.
"""

from __future__ import annotations

import os
import sysconfig
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import archetype_corpus as ac
import lexer_reference
from stylekit.lexer import lex
from text_strategies import FRAGMENTS

STDLIB = sorted(Path(sysconfig.get_paths()["stdlib"]).glob("*.py"))


def outcome(fn, source: str, lenient: bool):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in fn(source, lenient=lenient)]
    except Exception as exc:  # the oracle's failures are behaviour too
        return type(exc)


def mismatched_modes(source: str) -> list[bool]:
    return [
        lenient for lenient in (False, True)
        if outcome(lex, source, lenient) != outcome(lexer_reference.lex, source, lenient)
    ]


def test_archetype_corpus_matches_reference():
    files = ac.make_corpus(60, seed=0)
    assert [name for name, source, _ in files if mismatched_modes(source)] == []


def test_stdlib_sources_match_reference():
    assert len(STDLIB) > 50
    bad = [os.path.basename(p) for p in STDLIB
           if mismatched_modes(p.read_text(encoding="utf-8"))]
    assert bad == []


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
@settings(max_examples=1000, deadline=None)
def test_random_text_matches_reference(source):
    assert mismatched_modes(source) == []
