from __future__ import annotations

import importlib
import json
import os
import pkgutil
import struct
import subprocess
import sys
import warnings

import pytest

import stylekit
from stylekit import checkpoint as ckpt, cli, contrastive, corpus, metrics, nn
from stylekit.cli import main
from stylekit.contrastive import TrainConfig
from stylekit.corpus import ingest
from stylekit.features import REGISTRY
from stylekit.lexer import InputError, InvalidCharacter
from stylekit.metrics import LossConfig
from stylekit.nn import CodeTower, EncoderModel, StyleTower

SRC = "def add_nums(a, b):\n    return a + b\n"

RICH = (
    "def alpha(x):\n    u = x + 1\n    v = u * 2\n    return v\n"
    "\n"
    "def beta(y):\n    p = y - 1\n    q = p * 3\n    return q\n"
)


@pytest.fixture
def files(tmp_path):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    a.write_text(SRC)
    b.write_text(SRC.replace("add_nums", "addNums"))
    return a, b


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json(files, capsys):
    a, _ = files
    code, out, _ = run(capsys, "analyze", a, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "s2c-style-v1"
    assert list(doc["raw"]) == list(REGISTRY)
    assert len(doc["normalized"]) == 34


def test_analyze_csv(files, capsys):
    a, _ = files
    code, out, _ = run(capsys, "analyze", a, "--csv")
    assert code == 0
    assert out.splitlines()[0] == "kind," + ",".join(REGISTRY)


def test_analyze_json_is_single_document(files, capsys):
    a, _ = files
    _, out, _ = run(capsys, "analyze", a, "--json")
    json.loads(out)  # exactly one JSON document on stdout


def test_css_identical_files(files, capsys, tmp_path):
    a, _ = files
    twin = tmp_path / "twin.py"
    twin.write_text(SRC)
    code, out, _ = run(capsys, "css", a, twin)
    assert code == 0
    assert out.strip() == "1.0"


def test_css_json(files, capsys):
    a, b = files
    code, out, _ = run(capsys, "css", a, b, "--json")
    assert code == 0
    doc = json.loads(out)
    assert 0.0 <= doc["css"] <= 1.0


def test_diff_sections(files, capsys):
    a, b = files
    code, out, _ = run(capsys, "diff", a, b)
    assert code == 0
    assert "[naming]" in out and "[layout]" in out and "[structural]" in out
    assert "dist_camelCase" in out


def test_diff_json(files, capsys):
    a, b = files
    code, out, _ = run(capsys, "diff", a, b, "--json")
    doc = json.loads(out)
    assert set(doc) == {"naming", "layout", "structural"}
    assert len(doc["naming"]) == 14


def test_score_report(files, capsys):
    a, b = files
    code, out, _ = run(capsys, "score", "--candidate", a, "--reference", b, "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"css", "bleu4", "rouge1", "rouge2", "rougeL", "style_loss"}


def test_score_with_ce_adds_total(files, capsys):
    a, b = files
    code, out, _ = run(capsys, "score", "--candidate", a, "--reference", b,
                       "--json", "--ce", "2.0", "--lambda", "0.5")
    doc = json.loads(out)
    assert doc["total_loss"] == pytest.approx(2.0 + 0.5 * doc["style_loss"])


def test_unknown_flag_is_usage_error(files, capsys):
    a, _ = files
    code, _, err = run(capsys, "analyze", a, "--nope")
    assert code == 1
    assert "error" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/f.py")
    assert code == 2
    assert "no such file" in err


def test_json_error_on_stderr_is_single_line_json(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/f.py", "--json")
    assert code == 2
    doc = json.loads(err.strip())
    assert doc["code"] == 2
    assert doc["error"] == "FileNotFoundError"


def test_malformed_def_header_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x)\n    return x\n")
    code, out, err = run(capsys, "analyze", bad, "--json")
    assert code == 2
    assert out == ""
    assert json.loads(err.strip()) == {
        "error": "SyntaxUnsupported",
        "message": "line 1: unsupported or malformed def header",
        "code": 2,
    }


def test_invalid_character_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("y = ²\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", bad, "--json")
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "InvalidCharacter"


def test_analyze_reads_a_bom_prefixed_file(files, tmp_path, capsys):
    a, _ = files
    bom = tmp_path / "bom.py"
    bom.write_text("\ufeff" + SRC, encoding="utf-8")
    _, plain, _ = run(capsys, "analyze", a, "--json")
    code, out, _ = run(capsys, "analyze", bom, "--json")
    assert code == 0
    assert out == plain
    assert json.loads(out)["raw"]["name_length"] > 0


def test_corpus_lenient_drops_a_record_the_lexer_rejects(tmp_path, capsys):
    path = tmp_path / "in.jsonl"
    path.write_text(
        json.dumps({"id": "a", "code1": "x = 1", "code2": "x = 1"}) + "\n"
        + json.dumps({"id": "b", "code1": "y = ²", "code2": "y = 2"}) + "\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "out.jsonl"
    code, out, _ = run(capsys, "corpus", path, "--lenient", "--out", out_path, "--json")
    assert code == 0
    doc = json.loads(out)
    c = doc["counts"]
    assert (c["input"], c["kept"], c["dropped_malformed"]) == (2, 1, 1)
    assert c["kept"] + c["dropped_dupe"] + c["dropped_len"] + c["dropped_malformed"] == c["input"]
    assert doc["records"] == 1 and out_path.exists()
    code, out, err = run(capsys, "corpus", path, "--json")
    assert code == 2
    assert json.loads(err.strip())["error"] == "MalformedRecord"


@pytest.mark.parametrize("kind", ["symlink", "directory"])
def test_a_file_below_a_directory_that_cannot_be_read_is_bad_input_only_when_strict(
        tmp_path, capsys, kind):
    from test_corpus import unreadable

    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(RICH)
    unreadable(pkg, kind)
    code, out, _ = run(capsys, "corpus", pkg, "--lenient", "--json")
    assert code == 0
    assert json.loads(out)["counts"] == {"input": 2, "kept": 1, "dropped_dupe": 0,
                                         "dropped_len": 0, "dropped_malformed": 1}
    code, out, _ = run(capsys, "pairs", pkg, "--lenient")
    assert code == 0 and [json.loads(line)["file_id"] for line in out.splitlines()] == ["a", "a"]
    for command in ("corpus", "pairs"):
        code, _, err = run(capsys, command, pkg, "--json")
        error = json.loads(err)
        assert (code, error["error"]) == (2, "MalformedRecord")
        assert error["message"].startswith("line 2: ") and "b.py: cannot read: " in error["message"]


def test_corpus_non_string_record(tmp_path, capsys):
    path = tmp_path / "in.jsonl"
    path.write_text(
        json.dumps({"id": "a", "code1": "x = 1", "code2": "x = 1"}) + "\n"
        + json.dumps({"id": "b", "code1": 5, "code2": "y = 2\n"}) + "\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "out.jsonl"
    code, out, _ = run(capsys, "corpus", path, "--lenient", "--out", out_path, "--json")
    assert code == 0
    doc = json.loads(out)
    c = doc["counts"]
    assert (c["input"], c["kept"], c["dropped_malformed"]) == (2, 1, 1)
    assert c["kept"] + c["dropped_dupe"] + c["dropped_len"] + c["dropped_malformed"] == c["input"]
    assert doc["records"] == 1 and out_path.exists()
    code, out, err = run(capsys, "corpus", path, "--json")
    assert code == 2
    assert json.loads(err.strip())["error"] == "MalformedRecord"


def test_corpus_precompute_records_a_blank_record_but_not_our_bug(tmp_path, capsys,
                                                                 monkeypatch):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"id": "a", "code1": "x = 1", "code2": "x = 1"}) + "\n"
                    + json.dumps({"id": "b", "code1": "y = 2", "code2": " \n "}) + "\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "corpus", path, "--precompute", "--json")
    assert code == 0 and list(json.loads(out)["style_errors"]) == ["b"]

    def broken(source, lenient=False):
        raise ValueError("internal bug")

    monkeypatch.setattr(corpus, "analyze", broken)
    code, out, err = run(capsys, "corpus", path, "--precompute", "--json")
    assert code == 3 and out == ""
    assert json.loads(err.strip())["error"] == "ValueError"


def test_corpus_roundtrip(tmp_path, capsys):
    src_dir = tmp_path / "srcs"
    src_dir.mkdir()
    (src_dir / "one.py").write_text(RICH)
    (src_dir / "two.py").write_text(RICH.replace("alpha", "gamma"))
    out_path = tmp_path / "corpus.jsonl"
    code, out, _ = run(capsys, "corpus", src_dir, "--out", out_path,
                       "--split", "train=0.5,valid=0.5", "--precompute",
                       "--seed", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["records"] == 2
    assert out_path.exists()
    assert out_path.with_suffix(".jsonl.manifest.json").exists()


def test_pairs_train_embed_eval_pipeline(tmp_path, capsys):
    src_dir = tmp_path / "srcs"
    src_dir.mkdir()
    for i in range(6):
        (src_dir / f"f{i}.py").write_text(
            RICH.replace("alpha", f"al{'x' * i}").replace("beta", f"be{'y' * i}")
        )
    pairs_path = tmp_path / "pairs.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run(capsys, "pairs", src_dir, "--out", pairs_path, "--json")
    assert code == 0
    assert json.loads(out)["pairs"] >= 6

    ckpt = tmp_path / "model.ckpt"
    code, out, err = run(capsys, "train", "--pairs", pairs_path, "--out", ckpt,
                         "--epochs", "2", "--batch", "4", "--seed", "0", "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert ckpt.exists()
    assert ckpt.with_suffix(".log.csv").exists()

    # embed gives the trained towers the inputs train gave them
    model = stylekit.load_checkpoint(ckpt)
    texts = [(src_dir / "f0.py").read_text()]
    (ids,), _ = contrastive.code_inputs(model.code, texts)
    expected = {"style": model.style.forward(contrastive.style_inputs(texts)[0]),
                "code": model.code.forward([ids])[0]}
    for tower, emb in expected.items():
        flag = ["--tower", "code"] if tower == "code" else []   # style is the default
        code, out, _ = run(capsys, "embed", src_dir / "f0.py", "--ckpt", ckpt, *flag, "--json")
        assert code == 0
        assert json.loads(out) == {"tower": tower, "dim": 1024,
                                   "embedding": [float(x) for x in emb]}

    code, out, _ = run(capsys, "eval-retrieval", "--pairs", pairs_path,
                       "--ckpt", ckpt, "--k", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert 0.0 <= doc["recall"] <= 1.0


def _pair_line(i):
    return json.dumps({"id": f"p{i}", "file_id": f"f{i}",
                       "anchor": f"x{i} = {i}\n", "positive": f"x{i} = {i}\n"})


BAD_PAIR_LINES = {
    "anchor_not_string": json.dumps({"id": "p3", "file_id": "f3", "anchor": 5,
                                     "positive": "x = 1\n"}),
    "not_an_object": "[1, 2]",
    "no_file_id": json.dumps({"id": "p3", "anchor": "x = 1\n", "positive": "x = 1\n"}),
    "bad_json": '{"id": "p3", "file_id"',
}


@pytest.mark.parametrize("command", ["train", "eval-retrieval"])
@pytest.mark.parametrize("bad", sorted(BAD_PAIR_LINES))
def test_malformed_pairs_line_is_input_error(tmp_path, capsys, command, bad):
    lines = [_pair_line(i) for i in range(20)]
    lines[3] = BAD_PAIR_LINES[bad]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model = tmp_path / "model.ckpt"
    if command == "train":
        argv = ["train", "--pairs", pairs, "--out", model, "--epochs", "1", "--batch", "4"]
    else:
        ckpt.save(EncoderModel(
            style=StyleTower(seed=0, layers=(34, 8, 8, 8, 16)),
            code=CodeTower(seed=1, vocab=64, embed_dim=8, hidden_dim=8, out_dim=16),
        ), model)
        argv = ["eval-retrieval", "--pairs", pairs, "--ckpt", model]
    written = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2
    doc = json.loads(err.strip())
    assert doc["error"] == "MalformedRecord"
    assert doc["message"].startswith("line 4: ")
    assert out == "" and sorted(tmp_path.iterdir()) == written


def test_train_zero_epochs_is_input_error(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(_pair_line(i) + "\n" for i in range(20)), encoding="utf-8")
    code, out, err = run(capsys, "train", "--pairs", pairs, "--out", tmp_path / "m.ckpt",
                         "--epochs", "0", "--batch", "4", "--json")
    assert code == 2
    assert json.loads(err.strip())["message"] == "epochs must be at least 1"
    assert out == "" and sorted(tmp_path.iterdir()) == [pairs]


# A text each tower declines, with the error it raises.
BAD_TEXTS = {"anchor": ("x = \u00b2\n", "InvalidCharacter"),
             "positive": ("  \n", "EmptySource")}


@pytest.mark.parametrize("side", sorted(BAD_TEXTS))
def test_train_and_eval_retrieval_skip_a_pair_a_tower_cannot_take(tmp_path, capsys, side):
    text, error = BAD_TEXTS[side]
    lines = [json.loads(_pair_line(i)) for i in range(20)]
    lines[3][side] = text
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    model = tmp_path / "model.ckpt"
    argvs = (["train", "--pairs", pairs, "--out", model, "--epochs", "1", "--batch", "4"],
             ["eval-retrieval", "--pairs", pairs, "--ckpt", model, "--k", "20"])
    for argv in argvs:
        with pytest.warns(contrastive.SkippedPair) as caught:
            code, out, err = run(capsys, *argv, "--json")
        assert code == 0, err
        [message] = [str(w.message) for w in caught]
        assert message.startswith(f"pair 'p3': {side}: {error}: ")
        assert message.endswith("; skipped")
    # the skipped pair counts as not retrieved: every other one is, at k 20
    assert json.loads(out) == {"k": 20, "recall": 0.95, "pairs": 20}


def test_unset_flags_take_the_library_defaults(tmp_path, capsys, files, monkeypatch):
    a, b = files
    code, out, _ = run(capsys, "score", "--candidate", a, "--reference", b,
                       "--json", "--ce", "2.0")
    doc = json.loads(out)
    assert doc["total_loss"] == 2.0 + LossConfig().weight * doc["style_loss"]

    seen = []

    def no_training(pairs, cfg, **kwargs):
        seen.append(cfg)
        raise RuntimeError("not training")

    monkeypatch.setattr(contrastive, "train", no_training)
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(_pair_line(i) + "\n" for i in range(20)), encoding="utf-8")
    assert run(capsys, "train", "--pairs", pairs)[0] == 3
    assert seen == [TrainConfig()]


def test_config_file_flags_win(tmp_path, capsys, files):
    a, b = files
    cfg = tmp_path / "conf.ini"
    cfg.write_text("lambda = 0.9\nseed = 4\n")
    code, out, _ = run(capsys, "score", "--candidate", a, "--reference", b,
                       "--json", "--ce", "1.0", "--config", cfg)
    doc = json.loads(out)
    assert doc["total_loss"] == pytest.approx(1.0 + 0.9 * doc["style_loss"])
    # explicit flag beats the config value
    code, out, _ = run(capsys, "score", "--candidate", a, "--reference", b,
                       "--json", "--ce", "1.0", "--lambda", "0.0", "--config", cfg)
    doc = json.loads(out)
    assert doc["total_loss"] == pytest.approx(1.0)


def test_pairs_names_a_file_with_no_snippets_and_goes_on(tmp_path):
    # The warning is printed by the interpreter, so the CLI runs in its own process.
    src_dir = tmp_path / "srcs"
    src_dir.mkdir()
    (src_dir / "open_string.py").write_bytes(b"def:'\\\n")
    (src_dir / "good.py").write_text(RICH)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-m", "stylekit.cli", "pairs", str(src_dir)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "'open_string'" in done.stderr
    assert [json.loads(line)["file_id"] for line in done.stdout.splitlines()] == ["good"] * 2


def test_pairs_reads_a_package_tree_and_names_a_file_that_is_not_utf8(tmp_path, capsys):
    src_dir = tmp_path / "pkg"
    (src_dir / "sub").mkdir(parents=True)
    (src_dir / "__init__.py").write_text(RICH)
    (src_dir / "sub" / "__init__.py").write_text(RICH.replace("alpha", "gamma"))
    code, out, _ = run(capsys, "pairs", src_dir)
    assert code == 0
    assert {json.loads(line)["file_id"] for line in out.splitlines()} == {"__init__",
                                                                       "sub/__init__"}
    (src_dir / "sub" / "latin.py").write_bytes("s = 'café'\n".encode("latin-1"))
    code, _, err = run(capsys, "pairs", src_dir)
    assert code == 2 and "latin.py: not UTF-8" in err
    code, lenient_out, _ = run(capsys, "pairs", src_dir, "--lenient")
    assert code == 0 and lenient_out == out


def test_determinism_same_seed_same_output(tmp_path, capsys):
    src_dir = tmp_path / "srcs"
    src_dir.mkdir()
    for i in range(4):
        (src_dir / f"f{i}.py").write_text(RICH.replace("alpha", f"fn{i}"))
    outputs = []
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run(capsys, "pairs", src_dir, "--seed", "9",
                               "--max-per-file", "1")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_pairs_stdout_matches_pairs_to_jsonl(tmp_path, capsys):
    src_dir = tmp_path / "srcs"
    src_dir.mkdir()
    for i in range(3):
        (src_dir / f"f{i}.py").write_text(RICH.replace("alpha", f"fn{i}"))
    argv = ["pairs", src_dir, "--seed", "5", "--max-per-file", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run(capsys, *argv)
        code_json, out_json, _ = run(capsys, *argv, "--json")
        pairs = contrastive.build_pairs(ingest(src_dir), seed=5, max_pairs_per_file=1)
    assert code == code_json == 0 and len(pairs) == 3
    contrastive.pairs_to_jsonl(pairs, tmp_path / "pairs.jsonl")
    lines = (tmp_path / "pairs.jsonl").read_text(encoding="utf-8").splitlines()
    assert out.splitlines() == lines
    assert json.loads(out_json) == {"pairs": [json.loads(line) for line in lines]}


def _small_checkpoint(path, style_layers=(34, 8, 8, 8, 16)):
    ckpt.save(EncoderModel(
        style=StyleTower(seed=0, layers=style_layers),
        code=CodeTower(seed=1, vocab=64, embed_dim=8, hidden_dim=8, out_dim=16),
    ), path)


def _edit_header(path, edit):
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[4:8])
    header = json.loads(data[8:8 + hlen])
    header = edit(header)
    raw = json.dumps(header).encode()
    path.write_bytes(data[:4] + struct.pack("<I", len(raw)) + raw + data[8 + hlen:])


def _four_style_layers(header):
    header["dims"]["style_layers"] = [34, 8, 8, 16]
    return header


def _narrow_code_tower(header):
    header["dims"]["code"]["out_dim"] = 8
    for entry in header["tensors"]:
        if entry["name"] in ("code.w2", "code.b2"):
            entry["shape"][0] = 8
    return header


BAD_CHECKPOINTS = {
    "no_dims": lambda header: {k: v for k, v in header.items() if k != "dims"},
    "four_style_layers": _four_style_layers,
    "towers_of_unequal_width": _narrow_code_tower,
    "not_an_object": lambda header: [header],
    "bad_dtype": lambda header: {**header, "tensors": [{**header["tensors"][0], "dtype": "<i4"}]},
}


@pytest.mark.parametrize("bad", sorted(BAD_CHECKPOINTS))
def test_malformed_checkpoint_header_is_input_error(tmp_path, capsys, bad):
    model = tmp_path / "model.ckpt"
    _small_checkpoint(model)
    _edit_header(model, BAD_CHECKPOINTS[bad])
    source = tmp_path / "a.py"
    source.write_text(SRC)
    code, out, err = run(capsys, "embed", source, "--ckpt", model, "--json")
    assert code == 2, err
    assert json.loads(err.strip())["error"] == "MalformedHeader"
    assert out == ""


@pytest.fixture
def inputs(tmp_path):
    """Valid inputs for the bad-setting cases, and the path none may write."""
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(_pair_line(i) + "\n" for i in range(20)), encoding="utf-8")
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    (tmp_path / "one_file.jsonl").write_text("".join(
        json.dumps({**json.loads(_pair_line(i)), "file_id": "f"}) + "\n" for i in range(8)))
    _small_checkpoint(tmp_path / "model.ckpt")
    _small_checkpoint(tmp_path / "narrow.ckpt", style_layers=(30, 8, 8, 8, 16))
    (tmp_path / "a.py").write_text(SRC)
    (tmp_path / "blank.py").write_text("   \n")
    (tmp_path / "cast.conf").write_text("lr = fast\n")
    (tmp_path / "line.conf").write_text("epochs\n")
    (tmp_path / "corpus.jsonl").write_text(
        json.dumps({"id": "r", "code1": RICH, "code2": RICH}) + "\n")
    return {name: tmp_path / name for name in (
        "pairs.jsonl", "empty.jsonl", "one_file.jsonl", "model.ckpt", "narrow.ckpt", "a.py",
        "blank.py", "cast.conf", "line.conf", "corpus.jsonl", "out.file")}


def _train(f, *extra):
    return ["train", "--pairs", f["pairs.jsonl"], "--out", f["out.file"],
            "--epochs", "1", "--batch", "4", *extra]


def _score(f, *extra):
    return ["score", "--candidate", f["a.py"], "--reference", f["a.py"], "--ce", *extra,
            "--out", f["out.file"]]


INPUT_ERRORS = {
    "lr_nan": lambda f: _train(f, "--lr", "nan"),
    "lr_negative": lambda f: _train(f, "--lr", "-1"),
    "lr_huge": lambda f: _train(f, "--lr", "1e30"),
    "temp_nan": lambda f: _train(f, "--temp", "nan"),
    "train_seed_negative": lambda f: _train(f, "--seed", "-1"),
    "too_few_pairs": lambda f: _train(f, "--batch", "32"),
    "pairs_of_one_file": lambda f: ["train", "--pairs", f["one_file.jsonl"], "--out",
                                    f["out.file"], "--epochs", "1", "--batch", "4"],
    "config_cast": lambda f: _train(f, "--config", f["cast.conf"]),
    "config_line": lambda f: _train(f, "--config", f["line.conf"]),
    "k_zero": lambda f: ["eval-retrieval", "--pairs", f["pairs.jsonl"],
                         "--ckpt", f["model.ckpt"], "--k", "0"],
    "k_negative": lambda f: ["eval-retrieval", "--pairs", f["pairs.jsonl"],
                             "--ckpt", f["model.ckpt"], "--k", "-3"],
    "no_heldout_pairs": lambda f: ["eval-retrieval", "--pairs", f["empty.jsonl"],
                                   "--ckpt", f["model.ckpt"]],
    "style_tower_of_other_width": lambda f: ["embed", f["a.py"], "--ckpt", f["narrow.ckpt"]],
    "no_real_token": lambda f: ["embed", f["blank.py"], "--ckpt", f["model.ckpt"],
                                "--tower", "code"],
    "split_not_a_number": lambda f: ["corpus", f["corpus.jsonl"], "--split", "train=abc",
                                     "--out", f["out.file"]],
    "split_nan": lambda f: ["corpus", f["corpus.jsonl"], "--split", "train=nan",
                            "--out", f["out.file"]],
    "split_seed_negative": lambda f: ["corpus", f["corpus.jsonl"], "--split", "train=1",
                                      "--seed", "-1", "--out", f["out.file"]],
    "pairs_cap_negative": lambda f: ["pairs", f["corpus.jsonl"], "--max-per-file", "-1",
                                     "--out", f["out.file"]],
    "pairs_seed_negative": lambda f: ["pairs", f["corpus.jsonl"], "--seed", "-1",
                                      "--out", f["out.file"]],
    "lambda_negative": lambda f: _score(f, "1", "--lambda", "-1"),
    "ce_nan": lambda f: _score(f, "nan"),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_bad_setting_or_input_is_input_error(inputs, tmp_path, capsys, case):
    written = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, *INPUT_ERRORS[case](inputs), "--json")
    assert code == 2, err
    assert out == "" and sorted(tmp_path.iterdir()) == written


def test_diverging_training_names_where_and_the_lr(inputs, capsys):
    code, out, err = run(capsys, *_train(inputs, "--lr", "1e30", "--epochs", "2"), "--json")
    assert code == 2 and out == ""
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"] == "NonFiniteLoss"
    assert doc["message"] == ("non-finite loss at epoch 0, batch 1: "
                              "training diverged with lr 1e+30")


@pytest.mark.parametrize("exc", [ValueError("internal"), KeyError("internal")])
def test_internal_value_or_key_error_is_internal(files, capsys, monkeypatch, exc):
    def broken(candidate, reference):
        raise exc

    monkeypatch.setattr(metrics, "score", broken)
    a, b = files
    code, out, err = run(capsys, "score", "--candidate", a, "--reference", b, "--json")
    assert code == 3
    assert json.loads(err.strip())["error"] == type(exc).__name__ and out == ""


REPORTS = {
    "analyze": lambda f: ["analyze", f["a.py"]],
    "css": lambda f: ["css", f["a.py"], f["a.py"]],
    "diff": lambda f: ["diff", f["a.py"], f["a.py"]],
    "score": lambda f: ["score", "--candidate", f["a.py"], "--reference", f["a.py"],
                        "--ce", "1.5"],
    "embed": lambda f: ["embed", f["a.py"], "--ckpt", f["model.ckpt"]],
    "eval_retrieval": lambda f: ["eval-retrieval", "--pairs", f["pairs.jsonl"],
                                 "--ckpt", f["model.ckpt"]],
}


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_out_gets_the_json_document_printed(inputs, capsys, case):
    code, printed, err = run(capsys, *REPORTS[case](inputs), "--json")
    assert code == 0, err
    code, text, err = run(capsys, *REPORTS[case](inputs), "--out", inputs["out.file"])
    assert code == 0, err
    assert text != printed
    assert inputs["out.file"].read_bytes().decode("utf-8") == printed


@pytest.mark.parametrize("case", ["analyze", "score"])
def test_out_under_csv_gets_the_csv_printed(inputs, capsys, case):
    code, printed, err = run(capsys, *REPORTS[case](inputs), "--csv", "--out", inputs["out.file"])
    assert code == 0, err
    assert len(printed.splitlines()) == (3 if case == "analyze" else 2)
    assert inputs["out.file"].read_bytes().decode("utf-8") == printed


NOT_A_DIRECTORY = {
    "corpus": lambda f: ["corpus", f["a.py"] / "x"],
    "pairs": lambda f: ["pairs", f["a.py"] / "x"],
    "train_pairs": lambda f: ["train", "--pairs", f["a.py"] / "x"],
    "eval_retrieval_ckpt": lambda f: ["eval-retrieval", "--pairs", f["empty.jsonl"],
                                      "--ckpt", f["a.py"] / "x"],
    "analyze_out": lambda f: ["analyze", f["a.py"], "--out", f["a.py"] / "x.json"],
}


@pytest.mark.parametrize("case", sorted(NOT_A_DIRECTORY))
def test_a_path_below_a_file_is_input_error(inputs, capsys, case):
    code, _, err = run(capsys, *NOT_A_DIRECTORY[case](inputs), "--json")
    assert code == 2, err
    doc = json.loads(err.strip())
    assert doc["error"] == "NotADirectoryError" and "Not a directory" in doc["message"]


def _stylekit_exceptions():
    """Every exception class defined in a ``stylekit`` module, but warnings,
    which are issued, not raised."""
    found = {}
    for info in pkgutil.iter_modules(stylekit.__path__):
        module = importlib.import_module(f"stylekit.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and not issubclass(obj, Warning) and obj.__module__ == module.__name__):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return [found[name] for name in sorted(found)]


EXCEPTIONS = _stylekit_exceptions()
# The declared errors that are not bad input, with their exit codes.
NOT_INPUT_ERRORS = {cli.UsageError: 1, contrastive.UnnormalizedInput: 3,
                    nn.ShapeMismatch: 3, nn.NonFiniteGradient: 3}


def test_every_declared_error_is_bad_input_or_named_as_not():
    assert {InputError, ckpt.BadMagic, InvalidCharacter, cli.InvalidConfig,
            contrastive.UnusablePair} <= set(EXCEPTIONS)
    assert set(NOT_INPUT_ERRORS) <= set(EXCEPTIONS)
    assert [cls for cls in EXCEPTIONS
            if issubclass(cls, InputError) == (cls in NOT_INPUT_ERRORS)] == []
    assert cli._INPUT_ERRORS == (OSError, UnicodeDecodeError, json.JSONDecodeError, InputError)


@pytest.mark.parametrize("cls", EXCEPTIONS, ids=lambda cls: cls.__name__)
def test_a_declared_error_raised_in_a_command_exits_with_its_code(files, capsys,
                                                                   monkeypatch, cls):
    # Built without the class's own __init__, whose arguments differ from
    # class to class: the exit code depends on the class alone.
    exc = cls.__new__(cls)
    Exception.__init__(exc, "raised in a command")

    def broken(candidate, reference):
        raise exc

    monkeypatch.setattr(metrics, "score", broken)
    a, b = files
    code, out, err = run(capsys, "score", "--candidate", a, "--reference", b, "--json")
    assert code == NOT_INPUT_ERRORS.get(cls, 2)
    assert json.loads(err.strip()) == {
        "error": cls.__name__, "message": "raised in a command", "code": code}
    assert out == ""


def test_analyzer_commands_leave_numpy_unloaded(tmp_path):
    """``import stylekit`` and the analyzer modules load no numpy, nor do the
    commands that only analyse and score; the encoder names load on first use."""
    path = tmp_path / "m.py"
    path.write_text(RICH)
    code = (
        "import sys, contextlib, io\n"
        "import stylekit, stylekit.features, stylekit.metrics, stylekit.cli\n"
        "p = sys.argv[1]\n"
        "for argv in (['analyze', p, '--json'], ['css', p, p], ['diff', p, p],\n"
        "             ['score', '--candidate', p, '--reference', p, '--json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert stylekit.cli.main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n"
        "from stylekit import train, load_checkpoint\n"
        "assert 'numpy' in sys.modules\n"
        "assert train is stylekit.contrastive.train\n"
        "assert load_checkpoint is stylekit.checkpoint.load\n"
        "assert all(hasattr(stylekit, name) for name in stylekit.__all__)\n"
        "assert set(stylekit.__all__) <= set(dir(stylekit))\n"
        "print('ok')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
