"""Every entry point that takes text is total: on any text it returns
finite values (in [0, 1] where normalized) or raises a declared
``InputError``, in strict and in lenient mode. Batch inputs hold the
``InputError`` of a text in its place instead of raising it, and every
error stylekit declares survives ``pickle``, as a forked child sends a
batch's inputs."""

from __future__ import annotations

import importlib
import math
import pickle
import pkgutil

import numpy as np
import pytest
from hypothesis import example, given, settings

import stylekit
from stylekit import contrastive
from stylekit.features import analyze, normalize, space_pattern
from stylekit.lexer import InputError, normalize_newlines, split_lines
from stylekit.metrics import score
from stylekit.nn import CodeTower
from stylekit.syntax import parse_functions
from text_strategies import source_texts

TOWER = CodeTower(seed=0, vocab=64, embed_dim=4, hidden_dim=4, out_dim=4)
OTHER = "def g(x):\n    y = x + 1\n    return y\n"


def outcome(fn, *args):
    """``fn(*args)``, or None if it raised an ``InputError``; any other
    exception fails the test."""
    try:
        return fn(*args)
    except InputError:
        return None


def finite(values, unit: bool = False) -> bool:
    return all(math.isfinite(v) and (not unit or 0.0 <= v <= 1.0) for v in map(float, values))


@given(source_texts())
@settings(max_examples=200, deadline=None)
@example("def:'\\\n")        # a string left open by a backslash takes the final line feed
@example("def f(): '''x\n")
@example("\ufeff\ufeffx = 1\n")  # still starts with U+FEFF once its BOM goes
def test_every_text_entry_point_is_total(text):
    lines = len(split_lines(normalize_newlines(text)))
    snippets = outcome(contrastive.extract_snippets, text)
    assert snippets is None or all(
        sum(1 for line in s.split("\n") if line.strip()) >= contrastive.MIN_SNIPPET_LINES
        for s in snippets)
    for lenient in (False, True):
        records = outcome(parse_functions, text, lenient)
        assert records is None or all(1 <= r.body_line_span <= max(lines, 1) for r in records)
        raw = outcome(analyze, text, lenient)
        assert raw is None or (finite(raw.values) and finite(normalize(raw).values, unit=True))
        assert raw is None or raw.as_dict()["space_pattern_code"] == space_pattern(text)
    for candidate, reference in ((text, OTHER), (OTHER, text)):
        report = outcome(score, candidate, reference)
        assert report is None or (finite([report.style_loss]) and finite(
            [report.css, report.bleu4, *(getattr(getattr(report, name), field)
                                         for name in ("rouge1", "rouge2", "rougeL")
                                         for field in ("precision", "recall", "f1"))],
            unit=True))

    ids, slot = contrastive.code_inputs(TOWER, [text, OTHER, text])
    assert slot == [0, 1, 0] or (text == OTHER and slot == [0, 0, 0])
    got = ids[0]
    if not isinstance(got, InputError):
        assert got.dtype == np.int64 and got.size and np.all((got >= 0) & (got < TOWER.vocab))
        assert finite(TOWER.embed_rows([got]).ravel())
    row = contrastive.style_inputs([text, OTHER])[0]
    assert isinstance(row, InputError) or (row.shape == (34,) and finite(row, unit=True))


# Constructor arguments of the errors whose ``__init__`` takes its own; any
# other error takes a message.
ERROR_ARGS = {
    "UnterminatedString": (3,),
    "InvalidCharacter": (1, "\u00b2"),
    "SyntaxUnsupported": (2, "def header"),
    "MalformedRecord": (4, "id must be a string"),
    "NonFiniteLoss": (1, 2, 1e30),
    "NonFiniteGradient": ("emb",),
}


def declared_errors():
    for info in pkgutil.iter_modules(stylekit.__path__):
        module = importlib.import_module(f"stylekit.{info.name}")
        yield from (cls for cls in vars(module).values()
                    if isinstance(cls, type) and issubclass(cls, BaseException)
                    and cls.__module__ == module.__name__)


@pytest.mark.parametrize("cls", declared_errors(), ids=lambda cls: cls.__name__)
def test_every_declared_error_survives_pickle(cls):
    own_init = any("__init__" in vars(c) for c in cls.__mro__
                   if c.__module__.startswith("stylekit"))
    exc = cls(*ERROR_ARGS[cls.__name__]) if own_init else cls("a message")
    back = pickle.loads(pickle.dumps(exc))
    assert (type(back), str(back), back.args, vars(back)) == (cls, str(exc), exc.args, vars(exc))
