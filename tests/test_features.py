from __future__ import annotations

import gc
import json
import string
import sys
import sysconfig
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xversion
from stylekit import features
from stylekit.features import (
    NAMING_SLICE,
    LAYOUT_SLICE,
    STRUCTURAL_SLICE,
    NORMALIZATION_CAPS,
    REGISTRY,
    EmptySource,
    NameCategory,
    StyleVector,
    StyleVectorRaw,
    analyze,
    classify_identifier,
    extract_identifiers,
    naming_features,
    layout_features,
    normalize,
    space_pattern,
    structural_features,
    to_csv,
    to_json,
    to_json_document,
)
from stylekit.lexer import InputError
from stylekit.syntax import SourceDoc, parse_functions

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
GOLDEN_DOCS = [
    json.loads(p.read_text()) for p in sorted(GOLDEN_DIR.glob("*.json"))
]


def test_registry_shape():
    assert len(REGISTRY) == 34
    assert len(REGISTRY[NAMING_SLICE]) == 14
    assert len(REGISTRY[LAYOUT_SLICE]) == 9
    assert len(REGISTRY[STRUCTURAL_SLICE]) == 11
    assert len(set(REGISTRY)) == 34


@pytest.mark.parametrize("name,expected", [
    ("__init__", NameCategory.DUNDER),
    ("__init_state__", NameCategory.DUNDER),
    ("_private", NameCategory.PRIVATE),
    ("__mangled", NameCategory.PRIVATE),
    ("MAX_SIZE", NameCategory.UPPER_CASE),
    ("X1", NameCategory.UPPER_CASE),
    ("A", NameCategory.UPPER_CASE),
    ("DataFrame", NameCategory.PASCAL_CASE),
    ("getValue", NameCategory.CAMEL_CASE),
    ("my_var", NameCategory.SNAKE_CASE),
    ("x", NameCategory.SNAKE_CASE),
    ("var2", NameCategory.SNAKE_CASE),
    ("mixed_Case", NameCategory.OTHER),
    ("Pascal_Snake", NameCategory.OTHER),
])
def test_classify_identifier(name, expected):
    assert classify_identifier(name).category is expected


def test_categories_disjoint_by_precedence():
    # every identifier gets exactly one category (total function)
    for name in ("__a__", "_b", "C", "Cd", "dC", "d_e", "d", "9bad" , "A_b"):
        rec = classify_identifier(name)
        assert isinstance(rec.category, NameCategory)


def test_naming_features_hand_example():
    ids = [classify_identifier(n) for n in ("add_nums", "a", "b")]
    feats = naming_features(ids, "def add_nums(a, b):\n    return a + b")
    named = dict(zip(REGISTRY[NAMING_SLICE], feats))
    assert named["name_length"] == pytest.approx(10 / 3)
    assert named["underscore_ratio"] == pytest.approx(0.1)
    assert named["dist_snake_case"] == 1.0
    assert named["naming_consistency"] == 1.0


def test_naming_features_empty_set_is_zero():
    assert naming_features([], "x = 1") == [0.0] * 14


def test_analyze_records_empty_identifier_warning():
    raw = analyze("1 + 1")
    assert raw.warnings == ("empty-identifier-set",)
    assert raw.values[NAMING_SLICE] == (0.0,) * 14


def test_naming_features_digit_example():
    feats = naming_features([classify_identifier("X1")], "X1")
    named = dict(zip(REGISTRY[NAMING_SLICE], feats))
    assert named["digit_ratio"] == 0.5
    assert named["uppercase_ratio"] == 1.0


def naming_reference(identifiers, source):
    """The 14 naming features from ``str`` methods alone."""
    n = len(identifiers)
    if n == 0:
        return [0.0] * 14
    joined = "".join(r.text for r in identifiers)
    letters = sum(map(str.isalpha, joined))
    non_ws = sum(map(len, source.split()))
    punct = len(source) - len(source.translate(str.maketrans("", "", string.punctuation)))
    dists = [sum(r.category is cat for r in identifiers) / n for cat in (
        NameCategory.PASCAL_CASE, NameCategory.SNAKE_CASE, NameCategory.CAMEL_CASE,
        NameCategory.UPPER_CASE, NameCategory.PRIVATE, NameCategory.DUNDER)]
    return [
        len(joined) / n,
        sum(not any(map(str.isupper, r.text)) for r in identifiers) / n,
        joined.count("_") / len(joined),
        sum(map(str.isdigit, joined)) / len(joined),
        punct / non_ws if non_ws else 0.0,
        sum(map(str.isupper, joined)) / letters if letters else 0.0,
        sum(map(str.islower, joined)) / letters if letters else 0.0,
        *dists,
        max(dists[:4]),
    ]


# Every character outside ASCII that str.isspace accepts, letters of three
# cases, a digit that is not ASCII, a full-width comma and a lone surrogate.
WIDE_SPACES = [c for c in map(chr, range(128, sys.maxunicode + 1)) if c.isspace()]
MIXED_CHARS = st.one_of(
    st.characters(max_codepoint=127),
    st.sampled_from(WIDE_SPACES + ["é", "ǅ", "٣", "𝔘", "，", "\ud800"]),
)
MIXED_TEXT = st.lists(MIXED_CHARS, max_size=40).map("".join)


def test_every_wide_space_is_counted():
    assert len(WIDE_SPACES) == 19
    assert [c.encode() for c in WIDE_SPACES] == list(features._WIDE_SPACES)


@given(st.lists(st.lists(MIXED_CHARS, min_size=1, max_size=12).map("".join), max_size=6),
       MIXED_TEXT)
@settings(max_examples=500, deadline=None)
def test_naming_features_count_as_str_methods_do(names, source):
    identifiers = [classify_identifier(name) for name in names]
    assert naming_features(identifiers, source) == naming_reference(identifiers, source)


def test_a_lone_surrogate_analyses():
    assert len(analyze("x = '\ud800'\n", lenient=True).values) == 34


def test_layout_hand_example():
    src = "def f(a, b):\n    return a + b"
    feats = layout_features(SourceDoc.of(src))
    named = dict(zip(REGISTRY[LAYOUT_SLICE], feats))
    assert named["blank_line_count"] == 0.0
    assert named["indentation_level_avg"] == 0.5
    assert named["space_before_operator"] == 1.0


def test_layout_all_blank_source():
    src = "\n\n  \n"
    feats = layout_features(SourceDoc.of(src))
    named = dict(zip(REGISTRY[LAYOUT_SLICE], feats))
    assert named["blank_line_count"] == 1.0
    assert named["line_length_avg"] == 0.0


def test_indentation_consistency_modal_unit():
    # 2-space file with one 3-space line: (k-1)/k over k indented lines
    src = "def f():\n  x = 1\n  if x:\n   y = 2\n  return x"
    feats = layout_features(SourceDoc.of(src))
    named = dict(zip(REGISTRY[LAYOUT_SLICE], feats))
    assert named["indentation_consistency"] == pytest.approx(3 / 4)


@pytest.mark.parametrize("unit", ["    ", "  "])
def test_indentation_consistency_of_a_consistent_class_pins_a_v1_defect(unit):
    # The modal indent column is taken as the unit, and here it is the
    # method bodies' 2 units: the def lines and the nested line fail it, so
    # 4 of 7 indented lines count. A v2 candidate (see features.py).
    src = ("class A:\n    def f(self, x):\n        y = x\n        if y:\n"
           "            y += 1\n        return y\n\n    def g(self):\n        return 0\n")
    feats = layout_features(SourceDoc.of(src.replace("    ", unit)))
    named = dict(zip(REGISTRY[LAYOUT_SLICE], feats))
    assert named["indentation_consistency"] == pytest.approx(4 / 7)


def test_indentation_consistency_mixed_ws_kind():
    # a line indented with a tab next to space lines: tab expands to 4 so
    # the column matches, and each line uses a single whitespace kind
    src = "def f():\n    a = 1\n\tb = 2"
    feats = layout_features(SourceDoc.of(src))
    named = dict(zip(REGISTRY[LAYOUT_SLICE], feats))
    assert named["indentation_consistency"] == 1.0


def test_space_before_operator_unary_excluded():
    src = "x = -1\ny = x - 1"
    feats = layout_features(SourceDoc.of(src))
    named = dict(zip(REGISTRY[LAYOUT_SLICE], feats))
    # counted: both =, the binary -; the unary minus is not an operand op
    assert named["space_before_operator"] == 1.0


def test_space_before_operator_no_space():
    src = "x=1"
    feats = layout_features(SourceDoc.of(src))
    named = dict(zip(REGISTRY[LAYOUT_SLICE], feats))
    assert named["space_before_operator"] == 0.0


@pytest.mark.parametrize("src, expected", [
    ("\x0cx = a + b\n", 1.0),
    ("if 1:\n    \x0cy = a + b\n", 1.0),
    ("x = (a\n\x0c + b)\n", 1.0),      # a form feed inside brackets
    ("x = (a\n\x0c+ b)\n", 0.5),
    ("x = a \\\n\x0c+ b\n", 0.5),      # after a backslash join
    ("s = '''a\n\x0c''' + b\n", 1.0),  # on the last line of a string
])
def test_space_before_operator_after_a_form_feed(src, expected):
    # the lexer's columns restart after a form feed among a line's leading
    # blanks, and the character before an operator is read the same way
    named = dict(zip(REGISTRY[LAYOUT_SLICE], layout_features(SourceDoc.of(src))))
    assert named["space_before_operator"] == expected


def test_type_hint_ratio():
    src = "def a() -> int:\n    return 1\n\ndef b():\n    return 2"
    feats = layout_features(SourceDoc.of(src))
    named = dict(zip(REGISTRY[LAYOUT_SLICE], feats))
    assert named["type_hint_ratio"] == 0.5
    src = "async def f(x) -> int:\n    return x\n# def g() -> None\n"
    assert analyze(src)["type_hint_ratio"] == 1.0


def test_type_hint_ratio_reads_the_parsed_defs():
    # Lenient parsing skips a def header with no colon, so it counts in
    # neither side of the ratio, as in parse_functions.
    src = "def f(x) -> int\n    return x\n"
    assert parse_functions(src, lenient=True) == []
    assert analyze(src, lenient=True)["type_hint_ratio"] == 0.0


def test_space_pattern_examples():
    assert space_pattern("") == 0.0
    assert space_pattern("x" * 64) == pytest.approx(1 / 24)
    saturated = "\n".join("x" * 64 for _ in range(24))
    assert space_pattern(saturated) == 1.0
    # characters beyond 64 columns / 24 rows are ignored
    assert space_pattern("x" * 200) == pytest.approx(1 / 24)
    tall = "\n".join("x" * 64 for _ in range(40))
    assert space_pattern(tall) == 1.0


def test_structural_hand_example():
    src = "def f(a, b):\n    return a + b"
    feats = structural_features(SourceDoc.of(src))
    named = dict(zip(REGISTRY[STRUCTURAL_SLICE], feats))
    assert named["arg_count"] == 2.0
    assert named["return_count"] == 1.0
    assert named["length"] == 1.0
    assert named["control_structures"] == 0.0


def test_exception_score_examples():
    specific = "def f():\n    try:\n        pass\n    except ValueError:\n        pass"
    feats = structural_features(SourceDoc.of(specific))
    assert dict(zip(REGISTRY[STRUCTURAL_SLICE], feats))["exception_score"] == 1.0
    bare = "def f():\n    try:\n        pass\n    except:\n        pass"
    feats = structural_features(SourceDoc.of(bare))
    assert dict(zip(REGISTRY[STRUCTURAL_SLICE], feats))["exception_score"] == 0.0


def test_redundancy_hand_example():
    feats = structural_features(SourceDoc.of("x = 1\nx = 1"))
    named = dict(zip(REGISTRY[STRUCTURAL_SLICE], feats))
    assert named["redundancy_ratio"] == 0.5


def test_redundancy_collapses_internal_whitespace():
    feats = structural_features(SourceDoc.of("x  =  1\nx = 1"))
    named = dict(zip(REGISTRY[STRUCTURAL_SLICE], feats))
    assert named["redundancy_ratio"] == 0.5


def test_self_excluded_from_arg_count():
    src = "class C:\n    def m(self, a, b):\n        return a\n"
    feats = structural_features(SourceDoc.of(src))
    named = dict(zip(REGISTRY[STRUCTURAL_SLICE], feats))
    assert named["arg_count"] == 2.0


@pytest.mark.parametrize("doc", GOLDEN_DOCS, ids=[d["name"] for d in GOLDEN_DOCS])
def test_golden_vectors(doc):
    raw = analyze(doc["source"])
    got = raw.as_dict()
    for name in REGISTRY:
        assert got[name] == pytest.approx(doc["raw"][name], abs=1e-9), name


def test_cross_version_fingerprint():
    """Tokens, vectors and score reports of the goldens and 2,000 edge-case
    texts hash alike on Python 3.10 to 3.13 (``tests/xversion.py``)."""
    assert xversion.fingerprint() == xversion.EXPECTED


def test_analyze_rejects_empty():
    with pytest.raises(EmptySource):
        analyze("   \n  ")


def test_analyze_deterministic():
    src = GOLDEN_DOCS[0]["source"]
    assert to_json(analyze(src)) == to_json(analyze(src))


def test_normalize_examples():
    raw = analyze("def add_nums(a, b):\n    return a + b")
    vec = normalize(raw)
    named = dict(zip(REGISTRY, vec.values))
    assert named["name_length"] == pytest.approx((10 / 3) / 30)
    assert all(0.0 <= v <= 1.0 for v in vec.values)


def test_normalize_clamps():
    values = list(analyze("x = 1").values)
    values[REGISTRY.index("length")] = 250.0
    vec = normalize(StyleVectorRaw(values=tuple(values)))
    assert vec.as_dict()["length"] == 1.0


def test_normalize_idempotent():
    raw = analyze("x = 1")
    once = normalize(raw)
    assert normalize(once) == once


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=34, max_size=34))
@settings(max_examples=200, deadline=None)
def test_normalize_bounds_property(values):
    vec = normalize(StyleVectorRaw(values=tuple(values)))
    assert all(0.0 <= v <= 1.0 for v in vec.values)
    # ratio features (no cap) pass through when already within bounds
    for name, x, y in zip(REGISTRY, values, vec.values):
        if name not in NORMALIZATION_CAPS and x <= 1.0:
            assert y == x


def test_rename_changes_only_naming_block():
    a = analyze("def f():\n    value = 1\n    return value")
    b = analyze("def f():\n    vblue = 1\n    return vblue")
    assert a.values[LAYOUT_SLICE] == b.values[LAYOUT_SLICE]
    assert a.values[STRUCTURAL_SLICE] == b.values[STRUCTURAL_SLICE]


def test_appending_blank_lines_changes_only_layout_block():
    src = "def f(a):\n    return a"
    a = analyze(src)
    b = analyze(src + "\n\n\n\n")
    assert a.values[NAMING_SLICE] == b.values[NAMING_SLICE]
    assert a.values[STRUCTURAL_SLICE][:4] == b.values[STRUCTURAL_SLICE][:4]
    assert a.values[LAYOUT_SLICE] != b.values[LAYOUT_SLICE]


def test_reindent_doubles_indentation_average():
    two = "def f(a):\n  if a:\n    return a\n  return 0"
    four = "def f(a):\n    if a:\n        return a\n    return 0"
    a, b = analyze(two), analyze(four)
    assert a.values[NAMING_SLICE] == b.values[NAMING_SLICE]
    ia = dict(zip(REGISTRY, a.values))["indentation_level_avg"]
    ib = dict(zip(REGISTRY, b.values))["indentation_level_avg"]
    assert ib == pytest.approx(2 * ia)


def test_function_order_permutation_invariant():
    f1 = "def alpha(a):\n    return a + 1\n"
    f2 = "def beta(b, c):\n    if b:\n        return c\n    return b\n"
    a = analyze(f1 + "\n" + f2)
    b = analyze(f2 + "\n" + f1)
    assert a.values == b.values


def test_extract_identifiers_sites():
    src = (
        "import os as path_mod\n"
        "from x import y as alias\n"
        "CONST = 1\n"
        "a, b = 1, 2\n"
        "c += 1\n"
        "obj.attr = 3\n"
        "d[0] = 4\n"
        "for i in range(3):\n"
        "    with open('f') as fh:\n"
        "        pass\n"
        "try:\n"
        "    pass\n"
        "except ValueError as err:\n"
        "    pass\n"
        "class Klass:\n"
        "    def meth(self, arg):\n"
        "        total = (n := arg)\n"
    )
    names = {r.text for r in extract_identifiers(src)}
    assert {"path_mod", "alias", "CONST", "a", "b", "c", "i", "fh", "err",
            "Klass", "meth", "self", "arg", "total", "n"} <= names
    # uses, attribute targets and subscript bases are not bindings
    assert "os" not in names
    assert "attr" not in names
    assert "d" not in names
    assert "range" not in names


def test_stray_closer_hides_later_targets_as_in_the_parser():
    # After a stray closer the rest of the statement is below depth 0, so
    # ``y`` is no top-level target; the parser does not split that line at
    # the ``;`` either.
    assert [r.text for r in extract_identifiers("x = 1); y = 2\nz = (3\n")] == ["x", "z"]
    assert extract_identifiers("a) = 1\n") == []


def test_duplicate_identifiers_counted_once():
    ids = extract_identifiers("x = 1\nx = 2\nx = 3")
    assert [r.text for r in ids] == ["x"]


def test_json_document_shape():
    doc = to_json_document(analyze("x = 1"))
    assert list(doc.keys()) == ["schema", "raw", "normalized"]
    assert doc["schema"] == "s2c-style-v1"
    assert list(doc["raw"].keys()) == list(REGISTRY)
    assert len(doc["normalized"]) == 34


def test_csv_has_registry_header():
    text = to_csv(analyze("x = 1"))
    lines = text.strip().splitlines()
    assert lines[0] == "kind," + ",".join(REGISTRY)
    assert lines[1].startswith("raw,")
    assert lines[2].startswith("normalized,")


# ``analyze`` pauses the cyclic collector. One input that analyses in both
# modes, then one for each way it raises: InvalidCharacter in both modes,
# UnterminatedString and SyntaxUnsupported when strict, EmptySource in both.
PAUSE_INPUTS = ["def f(a):\n    return a\n", "x = ²\n", "s = 'abc\n", "   \n",
                "if x\n    y\n"]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
@pytest.mark.parametrize("source", PAUSE_INPUTS)
def test_analyze_leaves_the_collector_as_it_found_it(source, lenient, enabled):
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        try:
            analyze(source, lenient=lenient)
        except InputError:
            pass
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


# Twenty stdlib modules of at least 2 KB.
STDLIB_SOURCES = [p.read_text(encoding="utf-8")
                  for p in sorted(Path(sysconfig.get_paths()["stdlib"]).glob("*.py"))
                  if p.stat().st_size >= 2_000][:20]


def test_analyze_runs_no_collection():
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(record)
    try:
        analyze(max(STDLIB_SOURCES, key=len))
    finally:
        gc.callbacks.remove(record)
        if not was_enabled:
            gc.disable()
    assert collections == []


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
def test_analyze_leaves_no_reference_cycles(lenient):
    """What makes the pause free: nothing ``analyze`` allocates needs the
    collector, because none of it forms a reference cycle."""
    sources = [doc["source"] for doc in GOLDEN_DOCS] + STDLIB_SOURCES
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for source in sources:
            analyze(source, lenient=lenient)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_analyze_in_threads_turns_the_collector_back_on():
    """Eight threads, more than the cores, analyse the goldens at once and
    switch often. Overlapping pauses must still end with the collector on,
    and every vector must equal the serial one."""
    sources = [doc["source"] for doc in GOLDEN_DOCS]
    serial = [analyze(source, lenient=lenient) for source in sources for lenient in (False, True)]
    results = {}

    def work(i):
        results[i] = [[analyze(source, lenient=lenient) for source in sources
                       for lenient in (False, True)] for _ in range(3)]

    was_enabled = gc.isenabled()
    interval = sys.getswitchinterval()
    gc.enable()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 5.0
        for thread in threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0.0))
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        if not was_enabled:
            gc.disable()
    assert sorted(results) == list(range(8))
    assert all(runs == [serial] * 3 for runs in results.values())


def test_overlapping_pauses_turn_the_collector_back_on(monkeypatch):
    """The interleaving that a pause without a lock gets wrong. B reads the
    collector as off while A is inside; A leaves and turns it on; B turns it
    off and, having found it off, leaves it off. Each step waits at most
    0.2 s for the one before it, so under the lock the waits time out."""
    a_inside, b_read, a_left = threading.Event(), threading.Event(), threading.Event()

    class Collector:
        def isenabled(self):
            enabled = gc.isenabled()
            if threading.current_thread().name == "B":
                b_read.set()
                a_left.wait(0.2)
            return enabled

        def disable(self):
            gc.disable()
            if threading.current_thread().name == "A":
                a_inside.set()
                b_read.wait(0.2)

        def enable(self):
            gc.enable()
            if threading.current_thread().name == "A":
                a_left.set()

    def run_b():
        a_inside.wait(5.0)
        analyze("y = 2\n")

    was_enabled = gc.isenabled()
    gc.enable()
    monkeypatch.setattr(features, "gc", Collector())
    try:
        threads = [threading.Thread(target=analyze, args=("x = 1\n",), name="A"),
                   threading.Thread(target=run_b, name="B")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled()
    finally:
        gc.enable() if was_enabled else gc.disable()
