"""Stage-1 contrastive alignment of code embeddings with style embeddings.

Positive pairs put a whole file next to one of its own sub-snippets
(function bodies, loop bodies, contiguous comment blocks): pieces of one
file share the file's style. Negatives are implicit: every other row of
the batch, and the batch sampler keeps two pairs of the same file out of
one batch so in-batch negatives really are cross-file.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import re
import time
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .corpus import DEFAULT_MAX_TOKENS, MalformedRecord, jsonl_objects
from .features import analyze, normalize
from .lexer import InputError
from .nn import (
    CodeTower,
    EncoderModel,
    StyleTower,
    adam_step,
    l2_normalize,
    l2_normalize_backward,
    new_adam_state,
)
from .syntax import SourceDoc, _iter_spans

MIN_SNIPPET_LINES = 3  # non-blank lines


class UnnormalizedInput(ValueError):
    pass


class NonFiniteLoss(InputError, RuntimeError):
    """Training diverged: too large an ``lr`` for the data, so bad input."""

    def __init__(self, epoch: int, batch: int, lr: float):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}: "
                         f"training diverged with lr {lr!r}")
        self.epoch = epoch
        self.batch = batch
        self.lr = lr


class EmptyHeldout(InputError, ValueError):
    pass


class InvalidSetting(InputError, ValueError):
    """A training, pairing or retrieval setting out of its range."""


class UnusablePair(InputError, ValueError):
    """A pair whose anchor or positive a tower cannot take."""


class InsufficientSnippets(UserWarning):
    pass


class SkippedPair(UserWarning):
    pass


class UntrainedPairs(UserWarning):
    """The batch sampler left pairs out of an epoch."""


@dataclass(frozen=True)
class ContrastivePair:
    id: str
    file_id: str
    anchor: str       # whole-file source
    positive: str     # style-identical sub-snippet of the same file


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    temperature: float = 0.07
    lr: float = 1e-3
    seed: int = 0
    symmetric_loss: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise InvalidSetting("temperature must be finite and positive")
        if self.batch_size < 2:
            raise InvalidSetting("batch_size must be at least 2")
        if self.epochs < 1:
            raise InvalidSetting("epochs must be at least 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidSetting("lr must be finite and positive")
        if self.seed < 0:
            raise InvalidSetting("seed must be non-negative")


def extract_snippets(source: str) -> list[str]:
    """Style-identical sub-snippets: def/loop bodies and comment blocks
    of at least MIN_SNIPPET_LINES non-blank lines, in line order.

    A def or loop body of more than ``corpus.DEFAULT_MAX_TOKENS`` tokens
    (comments included, Newline/Indent/Dedent not; a token counts on its
    first line) is skipped, as the corpus skips such a file. That bounds the
    output: n nested loops would otherwise give n bodies of up to n lines.
    """
    doc = SourceDoc.of(source, lenient=True)
    lines = doc.lines
    upto = [0] * (len(lines) + 1)  # upto[n]: tokens on lines 1..n
    for tok in doc.tokens:
        if not tok.is_synthetic():
            upto[tok.line] += 1
    upto = list(itertools.accumulate(upto))
    spans = [(span.body_start, span.body_end) for span in _iter_spans(doc.stmts)
             if upto[span.body_end] - upto[span.body_start - 1] <= DEFAULT_MAX_TOKENS]
    profile = doc.profile
    run_start = None
    for idx, rec in enumerate(profile.lines, start=1):
        if rec.is_comment_only:
            if run_start is None:
                run_start = idx
        else:
            if run_start is not None and idx - run_start >= MIN_SNIPPET_LINES:
                spans.append((run_start, idx - 1))
            run_start = None
    if run_start is not None and profile.total_lines - run_start + 1 >= MIN_SNIPPET_LINES:
        spans.append((run_start, profile.total_lines))

    snippets = []
    for start, end in sorted(set(spans)):
        chunk = lines[start - 1:end]
        if sum(1 for l in chunk if l.strip()) < MIN_SNIPPET_LINES:
            continue
        snippets.append("\n".join(chunk))
    return snippets


def build_pairs(corpus, seed: int = 0,
                max_pairs_per_file: int | None = None) -> list[ContrastivePair]:
    """One pair per extracted snippet of a record's ``code2``, anchored on
    the whole of it.

    Files with fewer than two extractable snippets are skipped with an
    :class:`InsufficientSnippets` warning; a file the lexer rejects has none,
    and its warning names the error. With ``max_pairs_per_file`` the kept
    snippets are sampled without replacement under ``seed``.
    """
    if seed < 0 or (max_pairs_per_file is not None and max_pairs_per_file < 0):
        raise InvalidSetting("seed and max_pairs_per_file must be non-negative")
    rng = np.random.default_rng(seed)
    pairs: list[ContrastivePair] = []
    for record in corpus.records:
        try:
            snippets, reason = extract_snippets(record.code2), ""
        except InputError as exc:
            snippets, reason = [], f" ({type(exc).__name__}: {exc})"
        if len(snippets) < 2:
            warnings.warn(f"file {record.id!r} has {len(snippets)} extractable "
                          f"snippet(s){reason}; skipped", InsufficientSnippets, stacklevel=2)
            continue
        chosen = list(range(len(snippets)))
        if max_pairs_per_file is not None and len(chosen) > max_pairs_per_file:
            chosen = sorted(rng.choice(len(snippets), max_pairs_per_file, replace=False))
        for i in chosen:
            pairs.append(ContrastivePair(
                id=f"{record.id}:{i}",
                file_id=record.id,
                anchor=record.code2,
                positive=snippets[i],
            ))
    return pairs


def pairs_to_jsonl(pairs: list[ContrastivePair], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps(vars(p)) + "\n")


def pairs_from_jsonl(path: str | Path) -> list[ContrastivePair]:
    names = [f.name for f in fields(ContrastivePair)]
    pairs = []
    for line_no, doc in jsonl_objects(path):
        values = [doc.get(name) for name in names]
        if not all(isinstance(v, str) for v in values):
            raise MalformedRecord(
                line_no, f"{', '.join(names[:-1])} and {names[-1]} must be strings")
        pairs.append(ContrastivePair(*values))
    return pairs


def _check_normalized(name: str, x: np.ndarray) -> None:
    norms = np.linalg.norm(x, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-4):
        raise UnnormalizedInput(f"{name} rows must be L2-normalized")


def info_nce(anchor_emb: np.ndarray, positive_emb: np.ndarray, tau: float,
             symmetric: bool = False) -> float:
    """Batch InfoNCE over cosine similarities.

    Rows must be L2-normalized; similarity is the dot product. Row i's
    positive is ``positive_emb[i]``, everything else in the batch is a
    negative. The symmetric variant averages both directions.
    """
    loss, _, _ = info_nce_with_grad(anchor_emb, positive_emb, tau, symmetric)
    return loss


def info_nce_with_grad(anchor_emb: np.ndarray, positive_emb: np.ndarray,
                       tau: float, symmetric: bool = False):
    """Loss plus gradients with respect to both (normalized) embedding sets."""
    a = np.asarray(anchor_emb, dtype=np.float64)
    p = np.asarray(positive_emb, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 2 or a.shape[0] < 2:
        raise ValueError("expected matching (B>=2, D) embedding matrices")
    _check_normalized("anchor", a)
    _check_normalized("positive", p)
    batch = a.shape[0]

    def one_direction(q, k):
        logits = q @ k.T / tau
        logits -= logits.max(axis=1, keepdims=True)  # stabilized softmax
        exp = np.exp(logits)
        soft = exp / exp.sum(axis=1, keepdims=True)
        loss = -np.mean(np.log(soft[np.arange(batch), np.arange(batch)]))
        dlogits = soft.copy()
        dlogits[np.arange(batch), np.arange(batch)] -= 1.0
        dlogits /= batch
        dq = dlogits @ k / tau
        dk = dlogits.T @ q / tau
        return loss, dq, dk

    loss_ap, da, dp = one_direction(a, p)
    if not symmetric:
        return float(loss_ap), da, dp
    loss_pa, dp2, da2 = one_direction(p, a)
    return (
        float((loss_ap + loss_pa) / 2),
        (da + da2) / 2,
        (dp + dp2) / 2,
    )


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    wall_ms: float


def _stratified_batches(pairs: list[ContrastivePair], batch_size: int,
                        rng: np.random.Generator) -> list[list[int]]:
    """Shuffled batches that avoid two pairs of one file per batch. A pair
    left in a batch of its own sits the epoch out."""
    order = list(rng.permutation(len(pairs)))
    batches: list[list[int]] = []
    files: list[set[str]] = []
    for idx in order:
        fid = pairs[idx].file_id
        for batch, fset in zip(batches, files):
            if len(batch) < batch_size and fid not in fset:
                batch.append(idx)
                fset.add(fid)
                break
        else:
            batches.append([idx])
            files.append({fid})
    return [b for b in batches if len(b) >= 2]


def train(pairs: list[ContrastivePair], cfg: TrainConfig,
          checkpoint_path: str | Path | None = None,
          log_path: str | Path | None = None,
          log_fn=None) -> tuple[EncoderModel, list[EpochLog]]:
    """Train both towers with in-batch InfoNCE; deterministic under seed.

    A pair a tower cannot take is skipped with a :class:`SkippedPair`
    warning. The pairs left must fill a batch and span two files: a batch
    draws its negatives from other files. If the sampler leaves pairs out of
    an epoch, one :class:`UntrainedPairs` warning gives the fewest any
    epoch trained.

    The towers share nothing until InfoNCE joins them, so a step is two
    phases, the forwards and then each tower's backward and Adam step, and
    :func:`_side_by_side` runs each: the code tower on a helper thread where
    both towers' BLAS threads fit on the CPUs (see :func:`_overlap_towers`),
    else first on the caller's thread. Each tower's operations keep their
    order and touch only its own arrays, so every parameter, moment and
    loss is bit-identical either way. On a 2-core Xeon, 3 desk-scale epochs
    took 3.54 s overlapped against 4.48 s in turn at one OpenBLAS thread,
    and 4.97 s against 4.32 s at the default two, whose matrix products
    contend for the cores. The helper lives only for this call."""
    rng = np.random.default_rng(cfg.seed)
    style = StyleTower(seed=cfg.seed)
    code = CodeTower(seed=cfg.seed + 1, hash_seed=cfg.seed)
    model = EncoderModel(style=style, code=code)

    # the expensive analysis happens once per anchor and positive, not per epoch
    pairs, distinct_ids, slot, rows = _pair_inputs(code, pairs, skip=True)
    if len(pairs) < cfg.batch_size:
        raise InvalidSetting(f"need at least {cfg.batch_size} pairs, got {len(pairs)}")
    files = len({p.file_id for p in pairs})
    if files < 2:
        raise InvalidSetting(f"need pairs of at least 2 files, got {files}")
    anchor_ids = [distinct_ids[j] for j in slot]
    style_vecs = np.stack(rows)

    opt_style = new_adam_state(style.params)
    opt_code = new_adam_state(code.params)
    logs: list[EpochLog] = []
    fewest = len(pairs)   # pairs trained in the epoch that trained the fewest
    # Overflow from too large an lr ends as the NonFiniteLoss check below.
    with _helper() as helper, np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            losses = []
            batches = _stratified_batches(pairs, cfg.batch_size, rng)
            fewest = min(fewest, sum(map(len, batches)))
            for batch_no, batch in enumerate(batches):
                code_cache: dict = {}
                style_cache: dict = {}
                code_out, style_out = _side_by_side(
                    helper,
                    lambda: code.forward([anchor_ids[i] for i in batch],
                                         code_cache).astype(np.float64),
                    lambda: style.forward(style_vecs[batch], style_cache).astype(np.float64))
                a = l2_normalize(code_out)
                p = l2_normalize(style_out)
                loss, da, dp = info_nce_with_grad(a, p, cfg.temperature,
                                                  cfg.symmetric_loss)
                if not math.isfinite(loss):
                    raise NonFiniteLoss(epoch, batch_no, cfg.lr)
                losses.append(loss)
                dcode = l2_normalize_backward(code_out, da).astype(np.float32)
                dstyle = l2_normalize_backward(style_out, dp).astype(np.float32)
                _side_by_side(
                    helper,
                    lambda: adam_step(code.params, code.backward(code_cache, dcode),
                                      opt_code, lr=cfg.lr),
                    lambda: adam_step(style.params, style.backward(style_cache, dstyle),
                                      opt_style, lr=cfg.lr))
            wall_ms = (time.perf_counter() - t0) * 1000.0
            entry = EpochLog(epoch=epoch, mean_loss=float(np.mean(losses)),
                             wall_ms=wall_ms)
            logs.append(entry)
            if log_fn is not None:
                log_fn(entry)
    if fewest < len(pairs):
        warnings.warn(f"an epoch trained only {fewest} of {len(pairs)} pairs: the sampler "
                      "keeps two pairs of one file out of a batch, and a pair left "
                      "alone forms none", UntrainedPairs, stacklevel=2)

    if log_path is not None:
        with Path(log_path).open("w", encoding="utf-8") as fh:
            fh.write("epoch,mean_loss,wall_ms\n")
            for entry in logs:
                fh.write(f"{entry.epoch},{entry.mean_loss!r},{entry.wall_ms:.3f}\n")
    if checkpoint_path is not None:
        from . import checkpoint as ckpt
        ckpt.save(model, checkpoint_path)
    return model, logs


# OpenBLAS takes its thread count from the first of these that C's atoi reads
# as positive, else runs one thread per CPU the process may use.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_ATOI = re.compile(r"[ \t\n\v\f\r]*([+-]?[0-9]+)")


def _overlap_towers() -> bool:
    """Whether ``train`` runs the code tower on a helper thread: only if
    both towers' BLAS threads fit on the CPUs this process may use. Two
    pools of one thread per CPU contend, and the overlap then runs slower
    than one tower after the other."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    counts = (int(m[1]) if (m := _ATOI.match(os.environ.get(var, ""))) else 0
              for var in _BLAS_THREAD_VARS)
    blas = next((n for n in counts if n > 0), cpus)
    return 2 * blas <= cpus


def _helper():
    """One helper thread for the code tower if :func:`_overlap_towers`
    selects it, else none. The helper ignores numpy's overflow and invalid
    warnings as ``train`` does: a thread does not inherit ``np.errstate``."""
    if not _overlap_towers():
        return contextlib.nullcontext()
    # imported here, as it costs the CLI's start-up about 8 ms
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(
        max_workers=1, initializer=lambda: np.seterr(over="ignore", invalid="ignore"))


def _side_by_side(helper, code_fn, style_fn):
    """``(code_fn(), style_fn())``, the code side's error first. With a
    ``helper`` pool, ``code_fn`` runs on it beside ``style_fn``, and an error
    is raised once both have finished. Without one, ``code_fn`` runs first
    on the caller's thread and its error stops ``style_fn`` from starting."""
    if helper is None:
        return code_fn(), style_fn()
    code_side = helper.submit(code_fn)
    try:
        style_out = style_fn()
    finally:
        code_out = code_side.result()
    return code_out, style_out


def _each(fn, texts):
    """``fn`` of each text, or the ``InputError`` it raised, one at a time."""
    for text in texts:
        try:
            got = fn(text)
        except InputError as exc:
            got = exc
        yield got


def code_inputs(code: CodeTower, texts) -> tuple[list, list[int]]:
    """The code tower's input for ``texts``: the bucket ids of each distinct
    text, lexed leniently once, and each text's index in that list. A text
    the tower cannot take has the ``InputError`` it raised in place of ids.
    Each distinct token ``(kind, text)`` of the whole batch is hashed once."""
    slots: dict[str, int] = {}
    slot = [slots.setdefault(text, len(slots)) for text in texts]
    return code.bucket_ids_batch(
        _each(lambda text: SourceDoc.of(text, lenient=True).tokens, slots)), slot


def style_inputs(texts) -> list:
    """The style tower's input for ``texts``: each one's normalized style
    vector as a float32 row, or the ``InputError`` its analysis raised.
    Analysis is lenient, as lexing is: wherever strict analysis succeeds it
    gives the same."""
    return list(_each(lambda text: np.asarray(normalize(analyze(text, lenient=True)).values,
                                              dtype=np.float32), texts))


def _pair_inputs(code: CodeTower, pairs: list[ContrastivePair], skip: bool):
    """Both towers' inputs for ``pairs``: the pairs kept, the bucket ids of
    each distinct anchor, each kept pair's index in that list, and each kept
    pair's style row. A pair whose anchor or positive raised an
    ``InputError`` is skipped with a :class:`SkippedPair` warning, or without
    ``skip`` raises :class:`UnusablePair`."""
    distinct_ids, slot = code_inputs(code, [p.anchor for p in pairs])
    rows = style_inputs([p.positive for p in pairs])
    kept = []
    for i, pair in enumerate(pairs):
        for side, got in (("anchor", distinct_ids[slot[i]]), ("positive", rows[i])):
            if isinstance(got, InputError):
                why = f"pair {pair.id!r}: {side}: {type(got).__name__}: {got}"
                if not skip:
                    raise UnusablePair(why) from got
                warnings.warn(f"{why}; skipped", SkippedPair, stacklevel=3)
                break
        else:
            kept.append(i)
    return ([pairs[i] for i in kept], distinct_ids, [slot[i] for i in kept],
            [rows[i] for i in kept])


def _embed(model: EncoderModel, distinct_ids, slot, rows):
    """L2-normalized code embeddings of the anchors at ``slot`` and style
    embeddings of ``rows``. Each distinct anchor runs through the code tower
    once, with a one-row ``forward``'s numerics (:meth:`CodeTower.embed_rows`),
    so its row does not depend on the anchors read with it."""
    used, where = np.unique(slot, return_inverse=True)
    anchors = model.code.embed_rows([distinct_ids[j] for j in used])[where]
    styles = model.style.forward(rows)
    return l2_normalize(anchors.astype(np.float64)), l2_normalize(styles.astype(np.float64))


def embed_pairs(model: EncoderModel, pairs: list[ContrastivePair]):
    """L2-normalized (code-anchor, style-positive) embeddings, one row per
    pair; a pair a tower cannot take raises :class:`UnusablePair`."""
    _, *inputs = _pair_inputs(model.code, pairs, skip=False)
    return _embed(model, *inputs)


def recall_at_k(anchor_embs: np.ndarray, style_embs: np.ndarray,
                pair_ids: list[str], k: int) -> float:
    """Fraction of anchors whose own style embedding ranks in the top k
    by cosine; ties break on the pair id, then on column order.

    Own style ranks in the top k when fewer than k columns beat it: a
    higher cosine, or an equal one that comes first in that order.
    """
    if len(pair_ids) == 0:
        raise EmptyHeldout("no held-out pairs")
    if k < 1:
        raise InvalidSetting(f"k must be at least 1, got {k}")
    sims = anchor_embs @ style_embs.T
    own = np.diag(sims)[:, None]
    n = len(pair_ids)
    rank = np.empty(n, dtype=np.int64)   # column j's place in (pair id, column) order
    rank[sorted(range(n), key=pair_ids.__getitem__)] = np.arange(n)
    beats = sims > own
    beats |= (sims == own) & (rank[None, :] < rank[:, None])
    return int(np.count_nonzero(beats.sum(axis=1) < k)) / n


def eval_retrieval(model: EncoderModel, heldout_pairs: list[ContrastivePair],
                   k: int) -> float:
    """recall@k over ``heldout_pairs``. A pair a tower cannot take is skipped
    with a :class:`SkippedPair` warning and counts as not retrieved."""
    kept, *inputs = _pair_inputs(model.code, heldout_pairs, skip=True)
    if not kept:
        raise EmptyHeldout(f"no held-out pairs a tower can take, of {len(heldout_pairs)} read")
    recall = recall_at_k(*_embed(model, *inputs), [p.id for p in kept], k)
    return round(recall * len(kept)) / len(heldout_pairs)   # hits over every pair read
