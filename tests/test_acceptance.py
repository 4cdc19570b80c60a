"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

from __future__ import annotations

import json
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from archetype_corpus import ARCHETYPES, make_corpus, make_heldout
from stylekit import checkpoint
from stylekit.contrastive import (
    TrainConfig,
    build_pairs,
    embed_pairs,
    eval_retrieval,
    info_nce,
    train,
)
from stylekit.corpus import from_sources, ingest
from stylekit.features import REGISTRY, StyleVector, analyze, normalize, to_json
from stylekit.lexer import lex
from stylekit.metrics import bleu4, css, lcs_length, rouge, style_loss
from stylekit.nn import CodeTower, EncoderModel, StyleTower, l2_normalize

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def fixture_sources() -> list[tuple[str, str]]:
    sources = [
        (doc["name"], doc["source"])
        for doc in (json.loads(p.read_text()) for p in sorted(GOLDEN_DIR.glob("*.json")))
    ]
    sources += [(fid, src) for fid, src, _ in make_corpus(30, seed=5)]
    return sources


def test_criterion_1_golden_style_vectors():
    docs = [json.loads(p.read_text()) for p in sorted(GOLDEN_DIR.glob("*.json"))]
    start = time.perf_counter()
    worst = 0.0
    covered = {name: False for name in REGISTRY}
    for doc in docs:
        got = analyze(doc["source"]).as_dict()
        for name in REGISTRY:
            worst = max(worst, abs(got[name] - doc["raw"][name]))
            if doc["raw"][name] != 0.0:
                covered[name] = True
    elapsed = time.perf_counter() - start
    missing = [n for n, hit in covered.items() if not hit]
    ok = len(docs) >= 12 and worst <= 1e-9 and not missing and elapsed < 1.0
    report(1, ok, f"{len(docs)} snippets, max |err| {worst:.2e}, "
                  f"uncovered features {missing}, {elapsed * 1000:.0f} ms")


def test_criterion_2_determinism_and_parallel_ingestion():
    sources = fixture_sources()
    first = [to_json(analyze(src)) for _, src in sources]
    second = [to_json(analyze(src)) for _, src in sources]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda s: to_json(analyze(s)),
                                 [src for _, src in sources]))
    ok = first == second == parallel
    report(2, ok, f"{len(sources)} fixtures serialized byte-identically "
                  f"(sequential twice + 8-way parallel)")


def test_criterion_3_info_nce_analytic_checks():
    uniform = np.tile(l2_normalize(np.ones((1, 32))), (16, 1))
    val16 = info_nce(uniform, uniform.copy(), tau=0.07)
    hand = info_nce(np.eye(2), np.eye(2), tau=1.0)
    ok = abs(val16 - math.log(16)) <= 1e-6 and abs(hand - 0.313262) <= 1e-6
    report(3, ok, f"uniform-16 loss {val16:.9f} vs ln16 {math.log(16):.9f}; "
                  f"B=2 hand case {hand:.6f} vs 0.313262")


def _tower_gradcheck(tower, inputs, out_dim, rng) -> float:
    w = rng.standard_normal((len(inputs), out_dim))

    def loss():
        return float(np.sum(tower.forward(inputs) * w))

    cache = {}
    tower.forward(inputs, cache)
    grads = tower.backward(cache, w)
    h = 1e-5
    worst = 0.0
    for name, p in tower.params.items():
        flat = p.reshape(-1)
        picks = range(flat.size) if flat.size <= 150 else rng.choice(
            flat.size, 150, replace=False)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            ana = np.asarray(grads[name]).reshape(-1)[i]
            worst = max(worst, abs(num - ana) / max(abs(num) + abs(ana), 1e-8))
    return worst


def test_criterion_4_gradient_checks():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        style = StyleTower(seed=seed, layers=(34, 8, 8, 8, 16), dtype=np.float64)
        x = rng.random((3, 34))
        worst = max(worst, _tower_gradcheck(style, x, 16, rng))
        code = CodeTower(seed=seed, vocab=32, embed_dim=6, hidden_dim=8,
                         out_dim=10, dtype=np.float64)
        ids = [rng.integers(0, 32, int(rng.integers(2, 9))) for _ in range(3)]
        worst = max(worst, _tower_gradcheck(code, ids, 10, rng))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report(4, ok, f"max relative error {worst:.2e} over 5 seeds, both towers, "
                  f"{elapsed:.1f} s")


def test_criterion_5_desk_scale_contrastive_learning():
    start = time.perf_counter()
    files = make_corpus(300, seed=0)
    held = make_heldout(10, seed=1)
    train_corpus = from_sources([(fid, src) for fid, src, _ in files])
    held_corpus = from_sources([(fid, src) for fid, src, _ in held])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        train_pairs = build_pairs(train_corpus, seed=0, max_pairs_per_file=2)
        held_pairs = build_pairs(held_corpus, seed=0, max_pairs_per_file=1)
    cfg = TrainConfig(epochs=30, batch_size=16, temperature=0.07, seed=0)
    model, logs = train(train_pairs, cfg)
    recall1 = eval_retrieval(model, held_pairs, 1)

    anchors, styles = embed_pairs(model, held_pairs)
    archetype = {p.id: p.file_id.split("_")[1] for p in held_pairs}
    ids = [p.id for p in held_pairs]
    within, cross = [], []
    for i in range(len(ids)):
        for j in range(len(ids)):
            if i == j:
                continue
            sim = float(anchors[i] @ styles[j])
            (within if archetype[ids[i]] == archetype[ids[j]] else cross).append(sim)
    within_mean = float(np.mean(within))
    cross_mean = float(np.mean(cross))
    elapsed = time.perf_counter() - start
    ok = (recall1 >= 0.9 and cross_mean < within_mean and elapsed < 300.0
          and logs[-1].mean_loss < logs[0].mean_loss)
    report(5, ok, f"recall@1 {recall1:.3f} (>= 0.9), within-archetype cosine "
                  f"{within_mean:.3f} > cross {cross_mean:.3f}, "
                  f"loss {logs[0].mean_loss:.3f}->{logs[-1].mean_loss:.3f}, "
                  f"{elapsed:.0f} s (< 300)")


def _brute_lcs(a, b):
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        it = iter(b)
        if all(x in it for x in sub):
            best = max(best, len(sub))
    return best


def test_criterion_6_metric_identities():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(1000):
        a = StyleVector(values=tuple(rng.random(34)))
        b = StyleVector(values=tuple(rng.random(34)))
        if css(a, a) != 1.0 or css(a, b) != css(b, a):
            ok = False
            break
    src = "def f(a):\n    return a + 1"
    ok = ok and bleu4(src, src) == pytest.approx(1.0)
    ok = ok and all(rouge(src, src, v).f1 == pytest.approx(1.0)
                    for v in ("R1", "R2", "RL"))
    ok = ok and bleu4("a b c", "x y z") == 0.0
    ok = ok and all(rouge("a b c", "x y z", v).f1 == 0.0
                    for v in ("R1", "R2", "RL"))
    worst = 0.0
    alphabet = ["a", "b", "c"]
    for _ in range(300):
        cand = [alphabet[i] for i in rng.integers(0, 3, int(rng.integers(1, 13)))]
        ref = [alphabet[i] for i in rng.integers(0, 3, int(rng.integers(1, 13)))]
        expected_lcs = _brute_lcs(cand, ref)
        got = rouge(" ".join(cand), " ".join(ref), "RL").f1
        p = expected_lcs / len(cand)
        r = expected_lcs / len(ref)
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        worst = max(worst, abs(got - f1))
        ok = ok and lcs_length(cand, ref) == expected_lcs
    ok = ok and worst <= 1e-12
    report(6, ok, f"css identity/symmetry on 1000 pairs; bleu/rouge identity "
                  f"and disjoint cases; rouge-L vs brute-force LCS "
                  f"(300 random 3-symbol pairs, worst |err| {worst:.1e})")


def test_criterion_7_style_loss_behavior():
    zero_ok = True
    for _, src in fixture_sources():
        if style_loss(src, normalize(analyze(src))) != 0.0:
            zero_ok = False
            break
    target_src = "def f(a):\n    if a:\n        return a\n    return 0"
    candidate = "def f(a):\n  if a:\n    return a\n  return 0"
    target = normalize(analyze(target_src))
    before = style_loss(candidate, target)
    reindented = "\n".join(
        " " * (2 * (len(l) - len(l.lstrip(" ")))) + l.lstrip(" ")
        for l in candidate.splitlines()
    )
    after = style_loss(reindented, target)
    ok = zero_ok and after < before
    report(7, ok, f"self style-loss 0 on all fixtures; reformat toward target "
                  f"{before:.5f} -> {after:.5f} (strict decrease)")


def test_criterion_8_corpus_filter_boundary(tmp_path):
    def doc(i, code2):
        return {"id": f"r{i}", "code1": "x = 1", "code2": code2}

    at_cap = " ".join(f"t{i}" for i in range(378))
    over_cap = " ".join(f"t{i}" for i in range(379))
    path = tmp_path / "corpus.jsonl"
    rows = [
        doc(0, at_cap),
        doc(1, over_cap),
        doc(2, "a = 1\nb = 2"),
        doc(3, "a = 1\nb = 2"),      # planted duplicate
        doc(4, "a = 1\nb = 2   "),   # duplicate modulo trailing whitespace
        doc(5, "c = 3"),
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows) + "not json\n")
    corp = ingest(path, lenient=True)
    counts = corp.manifest.counts
    kept_ids = [r.id for r in corp.records]
    reconciles = (counts["kept"] + counts["dropped_dupe"] + counts["dropped_len"]
                  + counts["dropped_malformed"] == counts["input"])
    ok = (kept_ids == ["r0", "r2", "r5"] and counts["dropped_len"] == 1
          and counts["dropped_dupe"] == 2 and counts["dropped_malformed"] == 1
          and reconciles)
    report(8, ok, f"378 kept / 379 dropped; counts {counts} reconcile")


def test_criterion_9_checkpoint_round_trip(tmp_path):
    ok = True
    for seed in range(10):
        model = EncoderModel(
            style=StyleTower(seed=seed, layers=(34, 8, 8, 8, 16)),
            code=CodeTower(seed=seed + 1, vocab=64, embed_dim=8, hidden_dim=8,
                           out_dim=16, hash_seed=seed),
        )
        x = np.random.default_rng(seed).random((2, 34)).astype(np.float32)
        toks = lex("def f(a):\n    return a + 1")
        style_before = model.style.forward(x)
        code_before = model.code.forward([model.code.bucket_ids(toks)])[0]
        path = tmp_path / f"model{seed}.ckpt"
        checkpoint.save(model, path)
        loaded = checkpoint.load(path)
        ok = ok and np.array_equal(loaded.style.forward(x), style_before)
        ok = ok and np.array_equal(loaded.code.forward([loaded.code.bucket_ids(toks)])[0],
                                   code_before)

    good = tmp_path / "model0.ckpt"
    data = good.read_bytes()
    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"XXXX" + data[4:])
    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(data[:-8])
    errors_ok = True
    try:
        checkpoint.load(bad_magic)
        errors_ok = False
    except checkpoint.BadMagic:
        pass
    try:
        checkpoint.load(truncated)
        errors_ok = False
    except checkpoint.TruncatedBlob:
        pass
    ok = ok and errors_ok
    report(9, ok, "10 seeded models forward bit-identical after round trip; "
                  "BadMagic and TruncatedBlob raised on corrupted files")
