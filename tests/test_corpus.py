from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

from stylekit import corpus
from stylekit.corpus import (
    CorpusFile,
    MalformedRecord,
    Manifest,
    RatioError,
    from_sources,
    ingest,
    load_jsonl,
    precompute_styles,
    save_jsonl,
    split,
    token_count,
)
from stylekit.features import analyze, normalize


def write_jsonl(path, docs):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")


def record_doc(i, code2, code1="x = 1"):
    return {"id": f"r{i}", "code1": code1, "code2": code2}


def source_of_tokens(n):
    # each identifier is one lexer token; spaces and the newline are not
    return " ".join(f"t{i}" for i in range(n))


def test_token_count_excludes_synthetic_tokens():
    assert token_count("a = 1") == 3
    # def f ( ) : return 1 #c -> eight tokens, comment included
    assert token_count("def f():\n    return 1  # c") == 8
    assert token_count(source_of_tokens(378)) == 378


def test_boundary_378_kept_379_dropped(tmp_path):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [
        record_doc(0, source_of_tokens(378)),
        record_doc(1, source_of_tokens(379)),
    ])
    corp = ingest(path)
    assert [r.id for r in corp.records] == ["r0"]
    assert corp.manifest.counts["dropped_len"] == 1


def test_dedup_keeps_first_occurrence(tmp_path):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [
        record_doc(0, "a = 1\nb = 2"),
        record_doc(1, "a = 1\nb = 2"),
        record_doc(2, "a = 1\nb = 2  "),  # trailing whitespace stripped
        record_doc(3, "c = 3"),
    ])
    corp = ingest(path)
    assert [r.id for r in corp.records] == ["r0", "r3"]
    assert corp.manifest.counts["dropped_dupe"] == 2


def test_code1_duplicates_are_legitimate(tmp_path):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [
        {"id": "a", "code1": "same = 1", "code2": "styled_a = 1"},
        {"id": "b", "code1": "same = 1", "code2": "styledB = 1"},
    ])
    corp = ingest(path)
    assert len(corp.records) == 2


def test_malformed_strict_raises(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"id": "a", "code1": "x"}\n')  # code2 missing
    with pytest.raises(MalformedRecord):
        ingest(path)


def test_malformed_lenient_counted(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text(
        'not json at all\n'
        + json.dumps(record_doc(1, "a = 1")) + "\n"
        + '{"id": "x"}\n'
        + json.dumps(record_doc(3, "b = 2", code1="y = ²")) + "\n"
    )
    corp = ingest(path, lenient=True)
    assert len(corp.records) == 1
    assert corp.manifest.counts["dropped_malformed"] == 3


def test_record_the_lexer_rejects_is_malformed_in_strict_mode(tmp_path):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [record_doc(0, "a = 1"), record_doc(1, "b = 2", code1="y = ²")])
    with pytest.raises(MalformedRecord) as info:
        ingest(path)
    assert info.value.line == 2
    assert info.value.reason.startswith("InvalidCharacter: ")


@pytest.mark.parametrize("value", [5, ["y = 2"], {"src": "y = 2"}, True])
def test_non_string_code_is_malformed(tmp_path, value):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [record_doc(0, "a = 1"), {"id": "b", "code1": value, "code2": "y = 2\n"},
                       {"id": "c", "code1": "z = 3\n", "code2": value}, record_doc(3, "d = 4")])
    corp = ingest(path, lenient=True)
    assert [r.id for r in corp.records] == ["r0", "r3"]
    c = corp.manifest.counts
    assert (c["input"], c["kept"], c["dropped_malformed"]) == (4, 2, 2)
    assert c["kept"] + c["dropped_dupe"] + c["dropped_len"] + c["dropped_malformed"] == c["input"]
    with pytest.raises(MalformedRecord) as info:
        ingest(path)
    assert (info.value.line, info.value.reason) == (2, "code1/code2 must be strings")


def test_bom_prefixed_inputs_lose_only_the_bom(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text("\ufeff" + json.dumps(record_doc(0, "a = 1")) + "\n"
                    + json.dumps(record_doc(1, "b = 2")) + "\n", encoding="utf-8")
    corp = ingest(path)
    assert [(r.id, r.code2) for r in corp.records] == [("r0", "a = 1"), ("r1", "b = 2")]

    saved = tmp_path / "saved.jsonl"
    save_jsonl(corp, saved)
    saved.write_text("\ufeff" + saved.read_text(encoding="utf-8"), encoding="utf-8")
    assert [r.id for r in load_jsonl(saved).records] == ["r0", "r1"]

    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("\ufeffa = 1\n", encoding="utf-8")
    assert [r.code2 for r in ingest(tmp_path / "pkg").records] == ["a = 1\n"]
    assert [r.code2 for r in ingest(tmp_path / "pkg" / "a.py").records] == ["a = 1\n"]


def with_style_vec(vec):
    return json.dumps(record_doc(1, "y = 2") | {"style_vec": vec})


@pytest.mark.parametrize("line, reason", [
    ("[1, 2]", "record is not an object"),
    ('{"id": "r1", "code1"', "bad JSON: "),
    ('{"code1": "x = 1", "code2": "y = 2"}', "missing 'id'"),
    ('{"id": "r1", "code2": "y = 2"}', "missing 'code1'"),
    ('{"id": "r1", "code1": "x = 1"}', "missing 'code2'"),
    pytest.param('{"id": "r0", "code1": "x = 1", "code2": "y = 2"}', "duplicate id 'r0'",
                 id="id_repeated"),
    pytest.param('{"id": null, "code1": "x = 1", "code2": "y = 2"}', "id must be a string",
                 id="id_null"),
    pytest.param('{"id": 7, "code1": "x = 1", "code2": "y = 2"}', "id must be a string",
                 id="id_int"),
    pytest.param('{"id": "r1", "code1": 5, "code2": "y = 2"}', "code1/code2 must be strings",
                 id="code1_int"),
    pytest.param('{"id": "r1", "code1": "x = 1", "code2": ["y = 2"]}',
                 "code1/code2 must be strings", id="code2_list"),
    *(pytest.param(with_style_vec(vec), "style_vec must be 34 numbers in [0, 1]",
                   id=f"style_vec_{name}")
      for name, vec in [("strings", ["0.5"] * 34), ("nan", [float("nan")] * 34),
                        ("bools", [True] * 34), ("above_one", [1.5] * 34),
                        ("short", [0.5] * 33), ("not_a_list", 5)]),
])
def test_load_jsonl_names_a_malformed_line(tmp_path, line, reason):
    path = tmp_path / "saved.jsonl"
    path.write_text(json.dumps(record_doc(0, "a = 1")) + "\n\n" + line + "\n",
                    encoding="utf-8")
    with pytest.raises(MalformedRecord) as info:
        load_jsonl(path)
    assert info.value.line == 3 and info.value.reason.startswith(reason)


def test_manifest_reconciles(tmp_path):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [
        record_doc(0, "a = 1"),
        record_doc(1, "a = 1"),                 # dupe
        record_doc(2, source_of_tokens(400)),   # oversized
        record_doc(3, "b = 2"),
    ])
    (tmp_path / "extra.jsonl").write_text("broken\n")
    corp = ingest([path, tmp_path / "extra.jsonl"], lenient=True)
    c = corp.manifest.counts
    assert c["input"] == 5
    assert c["kept"] + c["dropped_dupe"] + c["dropped_len"] + c["dropped_malformed"] == c["input"]
    assert c["kept"] == 2


def test_empty_input_is_valid(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text("")
    corp = ingest(path)
    assert corp.records == []
    assert corp.manifest.counts["input"] == 0


def test_ingest_directory_of_sources(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("a = 1\n")
    (tmp_path / "pkg" / "b.py").write_text("b = 2\n")
    corp = ingest(tmp_path / "pkg")
    assert [r.id for r in corp.records] == ["a", "b"]
    assert all(r.code1 == r.code2 for r in corp.records)


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
def test_ingest_names_a_directory_file_by_its_path_below_the_directory(tmp_path, lenient):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("a = 1\n")
    (pkg / "sub" / "__init__.py").write_text("b = 2\n")
    (pkg / "sub" / "empty.py").write_text("")   # an empty module is a record
    corp = ingest(pkg, lenient=lenient)
    assert [r.id for r in corp.records] == ["__init__", "sub/__init__", "sub/empty"]
    assert corp.records[2].code2 == ""
    assert corp.manifest.counts["kept"] == 3
    assert [r.id for r in ingest(pkg / "sub" / "__init__.py").records] == ["__init__"]


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
def test_a_source_file_that_is_not_utf8_is_malformed_and_named(tmp_path, lenient):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("a = 1\n")
    (pkg / "latin.py").write_bytes("s = 'café'\n".encode("latin-1"))
    if not lenient:
        with pytest.raises(MalformedRecord, match=r"^line 2: .*latin\.py: not UTF-8: "):
            ingest(pkg)
        return
    corp = ingest(pkg, lenient=True)
    assert [r.id for r in corp.records] == ["a"]
    assert corp.manifest.counts == {"input": 2, "kept": 1, "dropped_dupe": 0,
                                    "dropped_len": 0, "dropped_malformed": 1}


def test_a_jsonl_record_with_empty_code_is_still_malformed(tmp_path):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [{"id": "r0", "code1": "", "code2": "x = 1"}])
    with pytest.raises(MalformedRecord, match="code1/code2 missing or empty"):
        ingest(path)


def test_ingest_counts_each_distinct_text_once(tmp_path, monkeypatch):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("a = 1\n")
    (tmp_path / "pkg" / "b.py").write_text("b = 2\n")
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [record_doc(0, "a = 1"), record_doc(1, "x = 1")])
    counted = []

    def counting(text):
        counted.append(text)
        return token_count(text)

    monkeypatch.setattr(corpus, "token_count", counting)
    assert [r.id for r in ingest(tmp_path / "pkg").records] == ["a", "b"]
    assert counted == ["a = 1\n", "b = 2\n"]  # a source file is code1 and code2
    counted.clear()
    assert [r.id for r in ingest(path).records] == ["r0", "r1"]
    assert counted == ["x = 1", "a = 1", "x = 1"]  # code1 first; equal sides once


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_both_sides_failing_to_lex_names_code1(tmp_path, hash_seed):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [record_doc(0, "y = ³", code1="y = ²")])
    code = ("import sys; from stylekit.corpus import ingest, MalformedRecord\n"
            "try:\n    ingest(sys.argv[1])\n"
            "except MalformedRecord as exc:\n    print(exc.reason)\n")
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.startswith("InvalidCharacter: invalid character '²'"), out


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [record_doc(0, "a = 1"), record_doc(0, "b = 2")])
    with pytest.raises(MalformedRecord):
        ingest(path)


def test_split_99_1():
    corp = from_sources([(f"s{i}", f"x{i} = {i}") for i in range(100)])
    out = split(corp, {"train": 0.99, "valid": 0.01}, seed=0)
    assert len(out.manifest.splits["train"]) == 99
    assert len(out.manifest.splits["valid"]) == 1
    assert set(out.manifest.splits["train"]) | set(out.manifest.splits["valid"]) == {
        r.id for r in corp.records
    }


def test_split_deterministic():
    corp = from_sources([(f"s{i}", f"x{i} = {i}") for i in range(37)])
    a = split(corp, {"train": 0.8, "valid": 0.2}, seed=5)
    b = split(corp, {"train": 0.8, "valid": 0.2}, seed=5)
    assert a.manifest.splits == b.manifest.splits
    c = split(corp, {"train": 0.8, "valid": 0.2}, seed=6)
    assert a.manifest.splits != c.manifest.splits


def test_split_all_train():
    corp = from_sources([(f"s{i}", f"x{i} = {i}") for i in range(10)])
    out = split(corp, {"train": 1.0}, seed=0)
    assert len(out.manifest.splits["train"]) == 10


def test_split_disjoint():
    corp = from_sources([(f"s{i}", f"x{i} = {i}") for i in range(53)])
    out = split(corp, {"train": 0.5, "valid": 0.3, "test": 0.2}, seed=1)
    ids = [set(v) for v in out.manifest.splits.values()]
    assert sum(len(s) for s in ids) == 53
    assert len(set.union(*ids)) == 53


def _container_ids(manifest):
    return {id(x) for x in (manifest.counts, manifest.splits, manifest.style_errors,
                            *manifest.splits.values())}


def test_split_and_precompute_leave_the_input_manifest_alone():
    corp = split(from_sources([(f"r{i}", f"x{i} = {i}") for i in range(4)] + [("bad", " ")]),
                 {"train": 0.5}, 0)
    for step in (lambda c: split(c, {"a": 0.5, "b": 0.5}, 1), precompute_styles):
        before = copy.deepcopy(corp.manifest)
        out = step(corp)
        assert corp.manifest == before and out.manifest != before
        assert not _container_ids(corp.manifest) & _container_ids(out.manifest)
        corp = out


def test_split_ratio_error():
    corp = from_sources([("a", "x = 1")])
    with pytest.raises(RatioError):
        split(corp, {"train": 0.9, "valid": 0.2}, seed=0)


@pytest.mark.parametrize("ratios, seed", [
    ({"train": -0.1}, 0), ({"train": float("nan")}, 0), ({"train": float("inf")}, 0),
    ({"train": 0.5}, -1),
])
def test_split_rejects_a_bad_ratio_or_seed(ratios, seed):
    with pytest.raises(RatioError):
        split(from_sources([("a", "x = 1")]), ratios, seed)


def test_precompute_matches_fresh_analysis():
    corp = from_sources([("a", "def f(a):\n    return a + 1")])
    out = precompute_styles(corp)
    expected = normalize(analyze("def f(a):\n    return a + 1"))
    assert out.records[0].style_vec == expected


def test_precompute_idempotent():
    corp = precompute_styles(from_sources([("a", "x = 1"), ("b", "y = 2")]))
    again = precompute_styles(corp)
    assert [r.style_vec for r in corp.records] == [r.style_vec for r in again.records]


def test_precompute_flags_bad_record_without_dropping():
    corp = from_sources([("good", "x = 1"), ("bad", "   "),
                         ("no_colon", "def f(x)\n    return x\n"),
                         ("superscript", "y = ²\n")])
    out = precompute_styles(corp)
    assert len(out.records) == 4
    assert [r.style_vec is None for r in out.records] == [False, True, True, True]
    assert sorted(out.manifest.style_errors) == ["bad", "no_colon", "superscript"]
    assert out.manifest.style_errors["no_colon"].startswith("SyntaxUnsupported: line 1")
    assert out.manifest.style_errors["superscript"].startswith("InvalidCharacter:")


def test_precompute_records_only_declared_analyzer_errors(monkeypatch):
    corp = from_sources([("blank", " \n\t\n")])
    assert precompute_styles(corp).manifest.style_errors == {
        "blank": "EmptySource: source is empty after stripping whitespace"}

    def broken(source, lenient=False):
        raise ValueError("internal bug")

    monkeypatch.setattr(corpus, "analyze", broken)
    with pytest.raises(ValueError, match="internal bug"):
        precompute_styles(corp)


def test_jsonl_round_trip(tmp_path):
    corp = precompute_styles(from_sources([
        ("a", "def f(a):\n    return a"),
        ("b", "x = 1"),
    ]))
    path = tmp_path / "corpus.jsonl"
    save_jsonl(corp, path)
    loaded = load_jsonl(path)
    assert [(r.id, r.code1, r.code2) for r in loaded.records] == [
        (r.id, r.code1, r.code2) for r in corp.records
    ]
    assert loaded.records[0].style_vec == corp.records[0].style_vec
    # second save is byte-identical
    path2 = tmp_path / "again.jsonl"
    save_jsonl(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()

    # a manifest with every field set survives the round trip
    raw = tmp_path / "in.jsonl"
    write_jsonl(raw, [record_doc(i, f"v{i} = {i}\n") for i in range(6)]
                + [record_doc(6, "s = 'open\n")])
    corp = precompute_styles(split(ingest(raw, max_tokens=500), {"train": 0.5, "test": 0.5}, 2))
    assert corp.manifest.max_tokens == 500 and list(corp.manifest.style_errors) == ["r6"]
    save_jsonl(corp, path)
    assert load_jsonl(path).manifest == corp.manifest


def test_dedup_preserves_first_occurrence_order(tmp_path):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [
        record_doc(i, code) for i, code in enumerate(
            ["z = 9", "a = 1", "z = 9", "m = 5", "a = 1"]
        )
    ])
    corp = ingest(path)
    assert [r.code2 for r in corp.records] == ["z = 9", "a = 1", "m = 5"]
