"""Span tracing of stylekit's layers from outside the package.

The tracer replaces each listed public function or method with a wrapper
that times the call and counts what passed through it. A function is
patched wherever a stylekit module binds it (``from .lexer import lex``
makes a second binding in ``features``), so calls between layers are seen
too. Self time is a span's duration minus the time of the spans it
directly caused. ``uninstall`` puts every original object back, so an
untraced run executes exactly the package's own code.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Aggregated spans and counters for one benchmark process."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_s: list[float] = []   # open spans: time of their children
        self._patches: list[tuple[object, str, object]] = []
        self._lexed: set[str] = set()
        # (start, duration) of each span directly inside contrastive.train,
        # so that the harness can split train time into prelude and epochs.
        self.train_children: list[tuple[float, float]] = []
        self._train_depth = -1

    def _wrap(self, name, fn, count, method):
        is_train = name == "contrastive.train"

        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            if is_train:
                self._train_depth, self.train_children = len(self._child_s), []
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child_s.pop()
                self.self_s[name] += dt - child
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += dt
                if len(self._child_s) == self._train_depth:
                    self.train_children.append((t0, dt))
                if is_train:
                    self._train_depth = -1
            if count is not None:
                count(self, args[1:] if method else args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every layer function listed in LAYERS."""
        import stylekit.cli  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "stylekit" or n.startswith("stylekit.")]
        for name, count in LAYERS.items():
            module_name, _, attr = name.rpartition(".")
            owner_name, _, cls_name = module_name.partition(".")
            if cls_name:  # "nn.CodeTower.forward" -> method on a class
                owner = getattr(sys.modules[f"stylekit.{owner_name}"], cls_name)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count, True))
                continue
            original = getattr(sys.modules[f"stylekit.{module_name}"], attr)
            wrapper = self._wrap(name, original, count, False)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def forget_sources(self):
        """Start a new set of distinct lexed sources (one per job)."""
        self._lexed = set()


# -- counters: each reads a call's arguments and return value ----------------


def _count_lex(tr, args, kwargs, tokens):
    source = _arg(args, kwargs, 0, "source")
    size = len(source.encode("utf-8", "surrogatepass"))
    tr.counts["lexer.bytes"] += size
    tr.counts["lexer.tokens"] += len(tokens)
    if source not in tr._lexed:
        tr._lexed.add(source)
        tr.counts["lexer.distinct_bytes"] += size


def _count_lcs(tr, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    tr.counts["metrics.lcs_length.cells"] += len(a) * len(b)


def _count_ingest(tr, args, kwargs, corpus):
    tr.counts["corpus.input"] += corpus.manifest.counts.get("input", 0)
    tr.counts["corpus.kept"] += corpus.manifest.counts.get("kept", 0)


def _count_adam(tr, args, kwargs, params):
    tr.counts["nn.adam_step.params_updated"] += sum(p.size for p in params.values())


def _count_code_backward(tr, args, kwargs, grads):
    cache = _arg(args, kwargs, 0, "cache")
    ids = np.concatenate(cache["ids_batch"])
    tr.counts["nn.emb_rows_touched"] += int(np.unique(ids).size)
    tr.counts["nn.emb_rows"] += grads["emb"].shape[0]


def _count_save(tr, args, kwargs, result):
    tr.counts["checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_load(tr, args, kwargs, model):
    tr.counts["checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# Every traced function, by "<module>.<name>" or "<module>.<Class>.<method>",
# with the counter that reads its arguments and result.
LAYERS = {
    "lexer.lex": _count_lex,
    "lexer.line_profile": None,
    "syntax.parse_module": None,
    "syntax.parse_functions": None,
    "syntax.block_spans": None,
    "features.analyze": None,
    "features.extract_identifiers": None,
    "features.naming_features": None,
    "features.layout_features": None,
    "features.structural_features": None,
    "features.normalize": None,
    "metrics.score": None,
    "metrics.bleu4": None,
    "metrics.rouge": None,
    "metrics.lcs_length": _count_lcs,
    "metrics.style_loss": None,
    "metrics.metric_tokens": None,
    "corpus.token_count": None,
    "corpus.ingest": _count_ingest,
    "corpus.split": None,
    "corpus.precompute_styles": None,
    "corpus.save_jsonl": None,
    "corpus.load_jsonl": None,
    "nn.StyleTower.forward": None,
    "nn.StyleTower.backward": None,
    "nn.CodeTower.forward": None,
    "nn.CodeTower.backward": _count_code_backward,
    "nn.CodeTower.bucket_ids": None,
    "nn.adam_step": _count_adam,
    "contrastive.build_pairs": None,
    "contrastive.extract_snippets": None,
    "contrastive.info_nce_with_grad": None,
    "contrastive.train": None,
    "contrastive.embed_pairs": None,
    "contrastive.recall_at_k": None,
    "contrastive.pairs_from_jsonl": None,
    "checkpoint.save": _count_save,
    "checkpoint.load": _count_load,
    "cli.main": None,
}
