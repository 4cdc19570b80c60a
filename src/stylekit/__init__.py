"""stylekit: explicit code style vectors, contrastive style encoders,
and scoring metrics for style-controlled code generation research."""

import importlib

from .features import (
    REGISTRY,
    SCHEMA,
    IdentifierRecord,
    NameCategory,
    StyleVector,
    StyleVectorRaw,
    analyze,
    classify_identifier,
    extract_identifiers,
    normalize,
    space_pattern,
)
from .lexer import LineProfile, Token, TokenKind, lex, line_profile
from .metrics import (
    LossConfig,
    MetricReport,
    RougeScore,
    bleu4,
    css,
    rouge,
    score,
    style_loss,
    total_loss,
)
from .syntax import FunctionInfo, parse_functions

__version__ = "0.1.0"

# The encoder, checkpoint and corpus modules need numpy; the analyzer and the
# metrics do not. So these names load on first use (PEP 562), and ``analyze``,
# ``css``, ``diff`` and ``score`` run without numpy installed.
_LAZY = {
    "CodeTower": ("nn", "CodeTower"),
    "EncoderModel": ("nn", "EncoderModel"),
    "StyleTower": ("nn", "StyleTower"),
    "adam_step": ("nn", "adam_step"),
    "load_checkpoint": ("checkpoint", "load"),
    "save_checkpoint": ("checkpoint", "save"),
    "ContrastivePair": ("contrastive", "ContrastivePair"),
    "TrainConfig": ("contrastive", "TrainConfig"),
    "build_pairs": ("contrastive", "build_pairs"),
    "eval_retrieval": ("contrastive", "eval_retrieval"),
    "extract_snippets": ("contrastive", "extract_snippets"),
    "info_nce": ("contrastive", "info_nce"),
    "train": ("contrastive", "train"),
    "CorpusFile": ("corpus", "CorpusFile"),
    "CorpusRecord": ("corpus", "CorpusRecord"),
    "ingest": ("corpus", "ingest"),
    "precompute_styles": ("corpus", "precompute_styles"),
    "split": ("corpus", "split"),
}
_LAZY_MODULES = {module for module, _ in _LAZY.values()}


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        module, attr = _LAZY[name]
        return getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})

__all__ = [
    "REGISTRY", "SCHEMA", "IdentifierRecord", "NameCategory", "StyleVector",
    "StyleVectorRaw", "analyze", "classify_identifier", "extract_identifiers",
    "normalize", "space_pattern", "LineProfile", "Token", "TokenKind", "lex",
    "line_profile", "LossConfig", "MetricReport", "RougeScore", "bleu4",
    "css", "rouge", "score", "style_loss", "total_loss", "CodeTower",
    "EncoderModel", "StyleTower", "adam_step", "load_checkpoint",
    "save_checkpoint", "ContrastivePair", "TrainConfig", "build_pairs",
    "eval_retrieval", "extract_snippets", "info_nce", "train", "CorpusFile",
    "CorpusRecord", "ingest", "precompute_styles", "split", "FunctionInfo",
    "parse_functions", "__version__",
]
