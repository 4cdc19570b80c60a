"""The four benchmark workloads.

Each workload has a ``setup`` that builds its inputs from the seed, a
``job`` that drives stylekit through its public functions once and returns
the fingerprints of what stylekit produced, and a ``check`` run on those
outputs. A job is repeated until the run's time is up; the same seed gives
the same inputs, so every repeat must give the same fingerprints.

Work is counted in items, and each op is one latency sample:

- stdlib-analyze: items are KB of stdlib source; an op is
  ``normalize(analyze(src))`` of one file.
- transfer-score: items are records scored; an op is one
  ``score(code1, code2)``.
- desk-train: items are pairs trained for one epoch; an op is one epoch
  of ``train``, as its EpochLog times it.
- heldout-retrieval: items are held-out pairs evaluated; an op is one
  ``stylekit eval-retrieval`` run.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import sysconfig
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import archetype_corpus as ac
from hostclock import HostClock
from stylekit import checkpoint, cli, contrastive, corpus, features, metrics, nn

STDLIB_MAX_KB = 100
# Held-out pairs scored by heldout-retrieval, and files generated to get them.
HELDOUT_PAIRS = 1000
HELDOUT_FILES = 540
# desk-train: acceptance criterion 5 with fewer epochs than its 30, on the
# criterion's own corpus and seeds. The recall gate is not met by every
# corpus at this length (corpus seeds 3 and 6 reach 0.833 and 0.867 after 6
# epochs), so desk-train's inputs do not depend on --seed.
DESK_FILES = 300
DESK_SEED = 0
DESK_EPOCHS = 6
DESK_RECALL_GATE = 0.9
# transfer-score: planted lines of each kind, which ingest must drop.
PLANTED = 6


def sha256_json(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@dataclass
class Recorder:
    """Per-op samples and failures of one job. Times leave out the host
    clock's samples taken inside them."""
    clock: HostClock
    tracer: object = None
    # (ms per item, items, start, end) per op
    item_ms: list = field(default_factory=list)
    lex_calls: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    timed_s: float | None = None   # span items_per_s divides by, if not the job
    epoch_ms: list = field(default_factory=list)
    epoch_ends: list = field(default_factory=list)

    def op(self, items: float, fn, *args):
        """Time one operation; a raise counts as a failure and returns None."""
        before = self.tracer.calls["lexer.lex"] if self.tracer else 0
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # one bad input must not end the run
            self.failed += 1
            return None
        t1 = time.perf_counter()
        ms = (t1 - t0 - self.clock.spent(t0, t1)) * 1000.0
        self.item_ms.append((ms / items, items, t0, t1))
        if self.tracer:
            self.lex_calls.append(self.tracer.calls["lexer.lex"] - before)
        return result


# -- stdlib-analyze -----------------------------------------------------------


def _analyze_normalized(source):
    raw = features.analyze(source)
    return raw, features.normalize(raw)


class StdlibAnalyze:
    """Real code: one ``normalize(analyze(src))`` per file of a seeded sample
    of the stdlib's top-level modules, one file from each of ``strata``
    equal-count size classes. Files over STDLIB_MAX_KB (7 of CPython
    3.11's 168) are left out, so that every sample holds about the same
    number of KB (710-728 KB for 10 seeds) and job_s does not follow the
    draw."""

    name = "stdlib-analyze"
    warm_up = True

    def __init__(self, quick: bool):
        self.strata = 4 if quick else 32

    def setup(self, seed: int, workdir: Path):
        paths = sorted(glob.glob(os.path.join(sysconfig.get_paths()["stdlib"], "*.py")))
        by_size = sorted((p for p in paths if os.path.getsize(p) <= STDLIB_MAX_KB * 1024),
                         key=lambda p: (os.path.getsize(p), p))
        rng = np.random.default_rng(seed)
        bounds = np.linspace(0, len(by_size), self.strata + 1).astype(int)
        picked = [by_size[rng.integers(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
        files = [(os.path.basename(p), Path(p).read_text(encoding="utf-8")) for p in picked]
        digest = hashlib.sha256()
        for name, text in files:
            digest.update(name.encode() + b"\0" + text.encode() + b"\0")
        kb = [len(text.encode()) / 1024 for _, text in files]
        return {
            "files": files, "kb": kb,
            "provenance": {
                "stdlib_files": len(paths), "sample": [n for n, _ in files],
                "sample_kb": round(sum(kb), 1), "sample_sha256": digest.hexdigest(),
            },
        }

    def job(self, inputs, rec: Recorder):
        docs, invalid = [], []
        for (name, text), kb in zip(inputs["files"], inputs["kb"]):
            out = rec.op(kb, _analyze_normalized, text)
            if out is None:
                docs.append([name, "error"])
                continue
            raw, vec = out
            if len(vec.values) != 34 or not all(0.0 <= v <= 1.0 for v in vec.values):
                invalid.append(name)
            docs.append([name, features.to_json(raw, vec)])
        return sum(inputs["kb"]), {"style_json": sha256_json(docs), "invalid": invalid}

    def check(self, inputs, prints):
        return [f"not 34 features in [0, 1]: {prints['invalid']}"] if prints["invalid"] else []


# -- transfer-score -----------------------------------------------------------


def _restyled_pair(knobs, styles, rng):
    """One set of knobs rendered in two archetypes from the same RNG state."""
    state = rng.bit_generator.state
    code = []
    for style in styles:
        gen = np.random.Generator(np.random.PCG64())
        gen.bit_generator.state = state
        code.append(ac.render_file(style, knobs, gen))
    ac.render_file(styles[0], knobs, rng)   # advance past the shared draws
    return code


class TransferScore:
    """Paper-style (code1, code2) records through the corpus pipeline, then
    ``score`` per kept record. Knob cells are covered evenly, so every seed
    yields the same mix of file shapes."""

    name = "transfer-score"
    warm_up = True

    def __init__(self, quick: bool):
        self.cells = 12 if quick else 108

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        grid = ac.knob_grid()
        order = rng.permutation(len(grid))[: self.cells]
        style_pairs = [(a, b) for a in ac.ARCHETYPES for b in ac.ARCHETYPES if a != b]
        good = []
        for i, cell in enumerate(order):
            styles = style_pairs[rng.integers(0, len(style_pairs))]
            code1, code2 = _restyled_pair(grid[cell], styles, rng)
            good.append({"id": f"rec{i:04d}", "code1": code1, "code2": code2})
        n = len(good)
        planted = []   # (line, index of the good record it must follow)
        for j in range(PLANTED):
            big = "\n".join(ac.render_file("snake", grid[-1], rng) for _ in range(6))
            planted.append((json.dumps({"id": f"long{j}", "code1": big, "code2": big}), -1))
            r = int(rng.integers(0, n))
            planted.append((json.dumps({"id": f"dupe{j}", "code1": good[r]["code1"],
                                        "code2": good[r]["code2"]}), r))
        planted += [
            ('{"id": "cut", "code1": "def f(a):\\n    return a', -1),
            ("[1, 2, 3]", -1),
            (json.dumps({"id": "no_code2", "code1": "x = 1\n"}), -1),
            (json.dumps({"id": "empty", "code1": "", "code2": "y = 2\n"}), -1),
            ("not json at all", -1),
            (json.dumps({"id": good[0]["id"], "code1": "a = 1\n", "code2": "b = 2\n"}), 0),
        ][:PLANTED]
        # Planted lines sit at seeded places, each after the record it copies.
        keyed = [(i, json.dumps(doc)) for i, doc in enumerate(good)]
        keyed += [(rng.uniform(ref + 0.5, n), line) for line, ref in planted]
        lines = [line for _, line in sorted(keyed, key=lambda kv: kv[0])]
        text = "\n".join(lines) + "\n"
        path = workdir / "records.jsonl"
        path.write_text(text, encoding="utf-8")
        return {
            "path": path, "lines": len(lines), "workdir": workdir, "seed": seed,
            "provenance": {"records_sha256": hashlib.sha256(text.encode()).hexdigest(),
                           "records": len(lines)},
        }

    def job(self, inputs, rec: Recorder):
        out = inputs["workdir"] / "kept.jsonl"
        corp = corpus.ingest(inputs["path"], lenient=True)
        corp = corpus.split(corp, {"train": 0.8, "valid": 0.1, "test": 0.1}, inputs["seed"])
        corp = corpus.precompute_styles(corp)
        corpus.save_jsonl(corp, out)
        corp = corpus.load_jsonl(out)
        rec.attempted += len(corp.manifest.style_errors)
        rec.failed += len(corp.manifest.style_errors)
        reports = []
        t0 = time.perf_counter()
        for r in corp.records:
            report = rec.op(1, metrics.score, r.code1, r.code2)
            reports.append([r.id, None if report is None else report.as_dict()])
        t1 = time.perf_counter()
        rec.timed_s = t1 - t0 - rec.clock.spent(t0, t1)
        prints = {
            "manifest": sha256_json(corp.manifest.as_dict()),
            "styles": sha256_json([[r.id, r.style_vec and list(r.style_vec.values)]
                                   for r in corp.records]),
            "scores": sha256_json(reports),
            "counts": corp.manifest.counts,
        }
        return len(reports), prints

    def check(self, inputs, prints):
        c = prints["counts"]
        dropped = c["dropped_dupe"] + c["dropped_len"] + c["dropped_malformed"]
        problems = []
        if c["input"] != inputs["lines"] or c["kept"] + dropped != c["input"]:
            problems.append(f"manifest counts do not reconcile: {c}")
        if (c["dropped_malformed"] != PLANTED or c["dropped_dupe"] < PLANTED
                or c["dropped_len"] < PLANTED):
            problems.append(f"planted lines not all dropped: {c}")
        return problems


# -- desk-train ---------------------------------------------------------------


class DeskTrain:
    """Acceptance criterion 5, shortened: corpus -> pairs -> train ->
    checkpoint round trip -> recall@1 on the criterion's held-out set."""

    name = "desk-train"
    warm_up = False   # every real training run pays its slow first epoch
    arrays = True     # Adam and the towers' matmuls over 3.4M parameters

    def __init__(self, quick: bool):
        pass   # the recall gate needs the full corpus and epochs

    def setup(self, seed: int, workdir: Path):
        files = ac.make_corpus(DESK_FILES, seed=DESK_SEED)
        held = ac.make_heldout(10, seed=1)
        digest = sha256_json([[f, s] for f, s, _ in files + held])
        return {
            "train": [(f, s) for f, s, _ in files], "held": [(f, s) for f, s, _ in held],
            "ckpt": workdir / "desk.ckpt",
            "provenance": {"corpus_sha256": digest, "files": len(files),
                           "heldout_files": len(held), "epochs": DESK_EPOCHS},
        }

    def job(self, inputs, rec: Recorder):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", contrastive.InsufficientSnippets)
            pairs = contrastive.build_pairs(corpus.from_sources(inputs["train"]),
                                            seed=DESK_SEED, max_pairs_per_file=2)
            held = contrastive.build_pairs(corpus.from_sources(inputs["held"]),
                                           seed=0, max_pairs_per_file=1)
        cfg = contrastive.TrainConfig(epochs=DESK_EPOCHS, batch_size=16,
                                      temperature=0.07, seed=DESK_SEED)
        rec.attempted += 1
        t0 = time.perf_counter()
        model, logs = contrastive.train(
            pairs, cfg, log_fn=lambda entry: rec.epoch_ends.append(time.perf_counter()))
        t1 = time.perf_counter()
        rec.timed_s = t1 - t0 - rec.clock.spent(t0, t1)
        for log, end in zip(logs, rec.epoch_ends):
            start = end - log.wall_ms / 1000.0
            ms = log.wall_ms - rec.clock.spent(start, end) * 1000.0
            rec.epoch_ms.append(ms)
            rec.item_ms.append((ms / len(pairs), len(pairs), start, end))
        checkpoint.save(model, inputs["ckpt"])
        loaded = checkpoint.load(inputs["ckpt"])
        recall1 = contrastive.eval_retrieval(loaded, held, 1)
        round_trip = all(
            np.array_equal(getattr(model, t).params[k], getattr(loaded, t).params[k])
            for t in ("style", "code") for k in getattr(model, t).params)
        prints = {
            "checkpoint": hashlib.sha256(inputs["ckpt"].read_bytes()).hexdigest(),
            "losses": [repr(log.mean_loss) for log in logs],
            "recall1": recall1, "round_trip": round_trip,
            "pairs": len(pairs), "heldout_pairs": len(held),
        }
        return len(pairs) * len(logs), prints

    def check(self, inputs, prints):
        problems = []
        if prints["recall1"] < DESK_RECALL_GATE:
            problems.append(f"recall@1 {prints['recall1']:.3f} < {DESK_RECALL_GATE}")
        if not float(prints["losses"][-1]) < float(prints["losses"][0]):
            problems.append(f"loss did not fall: {prints['losses']}")
        if not prints["round_trip"]:
            problems.append("checkpoint round trip is not bit-exact")
        return problems


# -- heldout-retrieval --------------------------------------------------------


def recall_reference(anchors, styles, ids, k) -> float:
    """recall@k counted without sorting: own style ranks in the top k when
    fewer than k columns beat it (higher cosine, or equal with a smaller id)."""
    sims = anchors @ styles.T
    own = np.diag(sims)[:, None]
    rank = np.argsort(np.argsort(np.asarray(ids)))   # position of each id in id order
    beats = (sims > own) | ((sims == own) & (rank[None, :] < rank[:, None]))
    return float(np.sum(beats.sum(axis=1) < k)) / len(ids)


class HeldoutRetrieval:
    """``stylekit eval-retrieval --k 10`` through ``cli.main`` on held-out
    pairs, with a seeded untrained encoder: retrieval cost does not depend on
    the weights."""

    name = "heldout-retrieval"
    warm_up = False

    def __init__(self, quick: bool):
        self.pairs = 100 if quick else HELDOUT_PAIRS
        self.files = 60 if quick else HELDOUT_FILES

    def setup(self, seed: int, workdir: Path):
        files = ac.make_corpus(self.files, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", contrastive.InsufficientSnippets)
            pairs = contrastive.build_pairs(corpus.from_sources([(f, s) for f, s, _ in files]),
                                            seed=seed, max_pairs_per_file=2)
        if len(pairs) < self.pairs:
            raise RuntimeError(f"only {len(pairs)} held-out pairs, need {self.pairs}")
        pairs = pairs[: self.pairs]
        pairs_path, ckpt_path = workdir / "heldout.jsonl", workdir / "untrained.ckpt"
        contrastive.pairs_to_jsonl(pairs, pairs_path)
        style = nn.StyleTower(seed=seed, layers=(34, 128, 512, 768, 1024))
        code = nn.CodeTower(seed=seed + 1, out_dim=1024, hash_seed=seed)
        checkpoint.save(nn.EncoderModel(style=style, code=code), ckpt_path)
        return {
            "pairs": pairs, "pairs_path": pairs_path, "ckpt": ckpt_path,
            "provenance": {
                "pairs_sha256": hashlib.sha256(pairs_path.read_bytes()).hexdigest(),
                "pairs": len(pairs),
            },
        }

    def reference(self, inputs):
        """The expected recall@10, from stylekit's embeddings and our own count."""
        anchors, styles = contrastive.embed_pairs(checkpoint.load(inputs["ckpt"]),
                                                  inputs["pairs"])
        inputs["expected"] = recall_reference(anchors, styles,
                                              [p.id for p in inputs["pairs"]], 10)

    def job(self, inputs, rec: Recorder):
        argv = ["eval-retrieval", "--pairs", str(inputs["pairs_path"]),
                "--ckpt", str(inputs["ckpt"]), "--k", "10", "--json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rec.op(len(inputs["pairs"]), cli.main, argv)
        if code != 0:
            rec.failed += code is not None   # a raise was counted by op()
            return len(inputs["pairs"]), {"exit": code, "stderr": err.getvalue()}
        return len(inputs["pairs"]), {"exit": code, "result": json.loads(out.getvalue())}

    def check(self, inputs, prints):
        if prints["exit"] != 0:
            return [f"eval-retrieval exited {prints['exit']}: {prints['stderr'].strip()}"]
        doc = prints["result"]
        if doc["pairs"] != len(inputs["pairs"]) or doc["k"] != 10:
            return [f"eval-retrieval reported {doc}"]
        if doc["recall"] != inputs["expected"]:
            return [f"recall@10 {doc['recall']!r} != reference {inputs['expected']!r}"]
        return []


WORKLOADS = {w.name: w for w in (StdlibAnalyze, TransferScore, DeskTrain, HeldoutRetrieval)}
