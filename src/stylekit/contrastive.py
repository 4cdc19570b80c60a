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
import time
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import _fork
from ._fork import Forked, each, in_shared_memory, in_slices, split_map
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
# The style tower's tensors whose Adam update the code tower's worker runs
# (see ``train``), to balance the two sides: 0.52M of the style tower's 1.78M
# parameters. Median of 4 alternating fresh-process runs of a 3-epoch
# desk-scale ``train()`` at one OpenBLAS thread on a 2-core Xeon, share: s:
# none 2.50, wr+br 2.30, w4+b4 2.45, w3+b3+wr+br 2.56.
WORKER_SHARE = ("wr", "br")


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

    def __reduce__(self):
        return type(self), (self.epoch, self.batch, self.lr)


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

    The snippets of a corpus of at least ``_fork.SPLIT_MIN_TEXTS`` records
    are extracted on the CPUs the process may use, by forked children beside
    the caller (:func:`stylekit._fork.split_map`); the warnings and the
    ``seed`` draws keep record order, so pairs and warnings are those of a
    serial run.
    """
    if seed < 0 or (max_pairs_per_file is not None and max_pairs_per_file < 0):
        raise InvalidSetting("seed and max_pairs_per_file must be non-negative")
    rng = np.random.default_rng(seed)
    pairs: list[ContrastivePair] = []
    extracted = split_map(extract_snippets, [record.code2 for record in corpus.records])
    for record, snippets in zip(corpus.records, extracted):
        reason = ""
        if isinstance(snippets, InputError):
            snippets, reason = [], f" ({type(snippets).__name__}: {snippets})"
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
    phases, the forwards and then each tower's backward and Adam step. Where
    :func:`stylekit._fork.overlap_towers` allows, a forked :class:`_Worker`
    runs the code tower's side of each phase beside the caller's style tower,
    and also the Adam update of the style tower's ``WORKER_SHARE``. An error
    is then raised once both sides have finished: the code tower's first,
    then the style tower's in ``params`` order. Elsewhere the code tower's
    side runs first on the caller's thread (:class:`_InTurn`), and its error
    stops the style tower's from starting. Adam is elementwise per tensor,
    and each side's operations keep their order, so every parameter, moment
    and loss is bit-identical either way."""
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

    logs: list[EpochLog] = []
    fewest = len(pairs)   # pairs trained in the epoch that trained the fewest
    # Overflow from too large an lr ends as the NonFiniteLoss check below; a
    # forked worker inherits this error state.
    with np.errstate(over="ignore", invalid="ignore"), (
            _Worker(code, style, anchor_ids, cfg.lr) if _fork.overlap_towers()
            else contextlib.nullcontext(_InTurn(code, anchor_ids, cfg.lr))) as side:
        own = {name: p for name, p in style.params.items() if name not in side.shared}
        opt_style = new_adam_state(own)
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            losses = []
            batches = _stratified_batches(pairs, cfg.batch_size, rng)
            fewest = min(fewest, sum(map(len, batches)))
            for batch_no, batch in enumerate(batches):
                style_cache: dict = {}
                side.forward(batch)
                try:
                    style_out = style.forward(style_vecs[batch], style_cache).astype(np.float64)
                finally:
                    code_out = side.reply()
                a = l2_normalize(code_out)
                p = l2_normalize(style_out)
                loss, da, dp = info_nce_with_grad(a, p, cfg.temperature,
                                                  cfg.symmetric_loss)
                if not math.isfinite(loss):
                    raise NonFiniteLoss(epoch, batch_no, cfg.lr)
                losses.append(loss)
                side.backward(l2_normalize_backward(code_out, da).astype(np.float32))
                dstyle = l2_normalize_backward(style_out, dp).astype(np.float32)
                try:
                    grads = style.backward(style_cache, dstyle)
                    side.share(grads)
                    adam_step(own, grads, opt_style, lr=cfg.lr)
                finally:
                    side.reply()   # the code tower's error first
                side.reply()       # then the share's, last in params order
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


class _InTurn:
    """The code tower's side of each training step, run at once on the
    caller's thread: its forward, and its backward with its Adam step.
    The style tower shares none of its tensors with it."""

    shared: tuple[str, ...] = ()

    def __init__(self, code: CodeTower, anchor_ids: list, lr: float):
        self.code, self.anchor_ids, self.lr = code, anchor_ids, lr
        self.opt = new_adam_state(code.params)
        self.cache: dict = {}
        self.out = None

    def forward(self, batch: list[int]) -> np.ndarray:
        """The code tower's forward output, also kept for :meth:`reply`."""
        self.cache = {}
        self.out = self.code.forward([self.anchor_ids[i] for i in batch],
                                     self.cache).astype(np.float64)
        return self.out

    def backward(self, dcode: np.ndarray) -> None:
        adam_step(self.code.params, self.code.backward(self.cache, dcode), self.opt,
                  lr=self.lr)

    def share(self, grads: dict) -> None:
        pass

    def reply(self):
        """The code tower's forward output, once per ``forward``; else None."""
        out, self.out = self.out, None
        return out


class _Worker(Forked):
    """The code tower's side of each training step, run by a forked worker
    process beside the caller's style tower. The worker also runs the Adam
    update of the style tower's ``shared`` tensors, once :meth:`share` has
    put their gradients in place.

    The tensors the worker updates, and those gradients, live in anonymous
    shared memory, so the caller's style forward reads the worker's update
    and no array of megabytes crosses a pipe; only batch indices, the code
    tower's forward output and its upstream gradient do. On leaving without
    an error, the caller copies the shared tensors into arrays of their own."""

    def __init__(self, code: CodeTower, style: StyleTower, anchor_ids: list, lr: float):
        self.shared = WORKER_SHARE
        self._tensors = [(code.params, list(code.params)), (style.params, list(self.shared))]
        views = iter(in_shared_memory([params[name] for params, names in self._tensors
                                       for name in names]))
        for params, names in self._tensors:
            params.update((name, next(views)) for name in names)
        share = {name: style.params[name] for name in self.shared}
        grads = self._grads = dict(zip(self.shared, in_shared_memory(
            [np.zeros_like(p) for p in share.values()])))
        # ``start`` holds no reference to the worker: a cycle through it would
        # keep the shared memory mapped until the cyclic collector runs.
        super().__init__("the code tower's worker",
                         lambda: _start_worker(code, anchor_ids, lr, share, grads))

    def __exit__(self, kind, exc, tb):
        super().__exit__(kind, exc, tb)
        if kind is None:
            for params, names in self._tensors:
                params.update((name, params[name].copy()) for name in names)

    def forward(self, batch: list[int]) -> None:
        self.send(("forward", batch))

    def backward(self, dcode: np.ndarray) -> None:
        self.send(("backward", dcode))

    def share(self, grads: dict) -> None:
        for name, g in self._grads.items():
            g[...] = grads[name]
        self.send(("share", None))


def _start_worker(code: CodeTower, anchor_ids: list, lr: float, share: dict, grads: dict):
    """The worker's ``start``: the ``serve`` that runs the code tower's side
    of each step, and the Adam update of the style tower's ``share`` from
    ``grads``. Both Adam states are built here, in the worker, so the
    caller never holds them."""
    side = _InTurn(code, anchor_ids, lr)
    opt_share = new_adam_state(share)

    def update_share(_):
        adam_step(share, grads, opt_share, lr=lr)

    run = {"forward": side.forward, "backward": side.backward, "share": update_share}
    return lambda request: run[request[0]](request[1])


def code_inputs(code: CodeTower, texts) -> tuple[list, list[int]]:
    """The code tower's input for ``texts``: the bucket ids of each distinct
    text, lexed leniently once, and each text's index in that list. A text
    the tower cannot take has the ``InputError`` it raised in place of ids.
    Each distinct token ``(kind, text)`` of the whole batch is hashed once."""
    slots: dict[str, int] = {}
    slot = [slots.setdefault(text, len(slots)) for text in texts]
    return code.bucket_ids_batch(
        each(lambda text: SourceDoc.of(text, lenient=True).tokens, slots)), slot


def style_inputs(texts) -> list:
    """The style tower's input for ``texts``: each one's normalized style
    vector as a float32 row, or the ``InputError`` its analysis raised.
    Analysis is lenient, as lexing is: wherever strict analysis succeeds it
    gives the same."""
    return list(each(lambda text: np.asarray(normalize(analyze(text, lenient=True)).values,
                                              dtype=np.float32), texts))


def _pair_inputs(code: CodeTower, pairs: list[ContrastivePair], skip: bool):
    """Both towers' inputs for ``pairs``: the pairs kept, the bucket ids of
    each distinct anchor, each kept pair's index in that list, and each kept
    pair's style row. A pair whose anchor or positive raised an
    ``InputError`` is skipped with a :class:`SkippedPair` warning, or without
    ``skip`` raises :class:`UnusablePair`.

    A batch of at least ``_fork.SPLIT_MIN_TEXTS`` texts (distinct anchors
    plus positives) is built on the CPUs the process may use, by forked
    children beside the caller, in slices of both (:func:`_fork.in_slices`);
    every id, row and warning is byte-identical to the serial path's."""
    slots: dict[str, int] = {}
    slot = [slots.setdefault(p.anchor, len(slots)) for p in pairs]
    parts = in_slices(lambda anchors, positives: (code_inputs(code, anchors)[0],
                                                  style_inputs(positives)),
                      list(slots), [p.positive for p in pairs])
    distinct_ids = [ids for part_ids, _ in parts for ids in part_ids]
    rows = [row for _, part_rows in parts for row in part_rows]
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
    so its row does not depend on the anchors read with it, and is normalized
    before it is gathered. Where :func:`stylekit._fork.beside` allows, a
    forked child runs the code tower while the caller runs the style tower,
    with the same operations on the same arrays, so the bytes are the same."""
    used, where = np.unique(slot, return_inverse=True)
    anchors, styles = _fork.beside(
        lambda: model.code.embed_rows([distinct_ids[j] for j in used]),
        lambda: l2_normalize(model.style.forward(rows).astype(np.float64)), len(slot))
    return l2_normalize(anchors.astype(np.float64))[where], styles


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
