"""Scoring: code style similarity, style loss, and n-gram overlap metrics.

Both BLEU and ROUGE tokenize through the code lexer (comments kept,
synthetic whitespace tokens dropped), so the scores are insensitive to
whitespace layout; layout fidelity is what CSS and the style loss are
for. ``score`` reads both from one :class:`~stylekit.syntax.SourceDoc` per side
and counts each order's clipped n-gram overlap once, for orders 1..4; BLEU
and ROUGE-1/2 share those counts, and take their n-gram totals from the
token counts.

ROUGE-L's longest common subsequence is the bit-vector algorithm of
L. Allison and T. I. Dix, "A bit-string longest-common-subsequence
algorithm", Information Processing Letters 23(5), 1986, in the form of
H. Hyyrö, "Bit-parallel LCS-length computation revisited", AWOCA 2004:
one Python int holds a row of the dynamic program as bit differences, so
a row costs a few big-int operations instead of one step per cell. It
returns the dynamic program's length exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add

from .features import (NAMING_SLICE, SchemaMismatch, StyleVector, analyze,
                       analyze_doc, normalize)
from .lexer import InputError
from .syntax import SourceDoc


class EmptyInput(InputError, ValueError):
    pass


class NonFiniteInput(InputError, ValueError):
    pass


class InvalidWeight(InputError, ValueError):
    pass


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricReport:
    css: float
    bleu4: float
    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore
    style_loss: float

    def as_dict(self) -> dict:
        """``dataclasses.asdict`` of the report, without its deep copy: the
        fields in declaration order, each ``RougeScore`` as a dict of its own."""
        return {name: vars(value).copy() if isinstance(value, RougeScore) else value
                for name, value in vars(self).items()}


@dataclass(frozen=True)
class LossConfig:
    weight: float = 0.1  # the style-term multiplier

    def __post_init__(self):
        if not math.isfinite(self.weight) or self.weight < 0:
            raise InvalidWeight("style weight must be finite and non-negative")


def css(a: StyleVector, b: StyleVector) -> float:
    """Code Style Similarity: mean absolute agreement over the 14 naming
    features, 1 - L1/14. Symmetric, bounded to [0, 1]."""
    if a.schema != b.schema:
        raise SchemaMismatch(f"{a.schema!r} vs {b.schema!r}")
    diffs = [
        abs(x - y) for x, y in zip(a.values[NAMING_SLICE], b.values[NAMING_SLICE])
    ]
    return 1.0 - _sum_left(diffs) / len(diffs)


def style_loss(candidate_source: str, target: StyleVector) -> float:
    """Mean squared error between the candidate's normalized style vector
    and the target vector, over all 34 dimensions."""
    return _style_loss(normalize(analyze(candidate_source)), target)


def _style_loss(vec: StyleVector, target: StyleVector) -> float:
    if vec.schema != target.schema:
        raise SchemaMismatch(f"{vec.schema!r} vs {target.schema!r}")
    return _sum_left((x - y) ** 2 for x, y in zip(vec.values, target.values)) / len(vec.values)


def _sum_left(floats) -> float:
    """``sum(floats)`` as Python 3.11 adds it, left to right, on every
    version: from 3.12 the built-in ``sum`` compensates float rounding."""
    return reduce(add, floats, 0.0)


def total_loss(ce: float, style: float, cfg: LossConfig = LossConfig()) -> float:
    """Weighted training objective: cross-entropy plus weight * style term."""
    if not (math.isfinite(ce) and math.isfinite(style)):
        raise NonFiniteInput(f"ce={ce!r} style={style!r}")
    return ce + cfg.weight * style


def metric_tokens(source: str) -> list[str]:
    """Token texts as scored by BLEU/ROUGE: lexed, comments kept,
    Newline/Indent/Dedent dropped."""
    return SourceDoc.of(source, lenient=True).texts


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _counts(cand: list[str], ref: list[str], n: int) -> tuple[int, int, int]:
    """Order n's clipped overlap, where each candidate n-gram counts at most
    as often as the reference holds it, then each side's n-gram total. BLEU
    and ROUGE-n both read these three numbers."""
    cand_ngrams, ref_ngrams = _ngrams(cand, n), _ngrams(ref, n)
    overlap = sum(map(min, cand_ngrams.values(), map(ref_ngrams.get, cand_ngrams, repeat(0))))
    return overlap, max(len(cand) - n + 1, 0), max(len(ref) - n + 1, 0)


def bleu4(candidate: str, reference: str) -> float:
    """Geometric mean of modified 1..4-gram precisions with brevity penalty.

    A zero match count at order n >= 2 is smoothed to
    1 / (2 * hypothesis n-gram count); a zero unigram precision stays
    zero, so token-disjoint pairs score 0.0.
    """
    cand, ref = metric_tokens(candidate), metric_tokens(reference)
    return _bleu4(cand, ref, [_counts(cand, ref, n) for n in range(1, 5)])


def _bleu4(cand: list[str], ref: list[str], counts: list[tuple[int, int, int]]) -> float:
    """BLEU-4 from the ``_counts`` of orders 1..4, order n at index n - 1."""
    if not cand or not ref:
        raise EmptyInput("bleu4 needs non-empty token streams")
    log_sum = 0.0
    for n, (clipped, total, _) in zip(range(1, 5), counts):
        if total == 0:
            return 0.0  # candidate shorter than n tokens
        if clipped == 0:
            if n == 1:
                return 0.0
            precision = 1.0 / (2.0 * total)
        else:
            precision = clipped / total
        log_sum += math.log(precision)
    bp = 1.0 if len(cand) > len(ref) else math.exp(1.0 - len(ref) / len(cand))
    return bp * math.exp(log_sum / 4.0)


def _prf(overlap: float, cand_total: int, ref_total: int) -> RougeScore:
    p = overlap / cand_total if cand_total else 0.0
    r = overlap / ref_total if ref_total else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return RougeScore(precision=p, recall=r, f1=f1)


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length, by the bit-parallel recurrence of
    Allison & Dix (IPL 23(5), 1986) and Hyyrö (AWOCA 2004) on Python ints.

    The longer sequence lies in the bits of ``v`` and of one match mask per
    distinct token; each token ``x`` of the shorter one steps
    ``u = v & mask[x]; v = ((v + u) | (v - u)) & full``, and the LCS is the
    longer length minus the set bits of ``v``. For lengths n <= m that is
    O(n * ceil(m / w)) word operations on w-bit words, against the dynamic
    program's n * m cells. Tokens must be hashable (they are ``str``).
    """
    if len(a) < len(b):
        a, b = b, a
    masks: dict = {}
    bit = 1
    for x in a:
        masks[x] = masks.get(x, 0) | bit
        bit <<= 1
    full = v = bit - 1
    get = masks.get
    for y in b:
        u = v & get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge(candidate: str, reference: str, variant: str) -> RougeScore:
    """ROUGE-1 / ROUGE-2 n-gram overlap, or ROUGE-L via LCS.

    ``variant`` is one of ``"R1"``, ``"R2"``, ``"RL"``.
    """
    cand, ref = metric_tokens(candidate), metric_tokens(reference)
    if not cand or not ref:
        raise EmptyInput("rouge needs non-empty token streams")
    if variant == "RL":
        return _rouge_l(cand, ref)
    n = {"R1": 1, "R2": 2}.get(variant)
    if n is None:
        raise ValueError(f"unknown rouge variant {variant!r}")
    return _prf(*_counts(cand, ref, n))


def _rouge_l(cand: list[str], ref: list[str]) -> RougeScore:
    return _prf(lcs_length(cand, ref), len(cand), len(ref))


def score(candidate: str, reference: str) -> MetricReport:
    """Full report for a candidate-reference pair: CSS and style loss are
    measured against the reference's style vector."""
    ref = SourceDoc.of(reference)
    target = normalize(analyze_doc(ref))
    cand = SourceDoc.of(candidate)
    cand_vec = normalize(analyze_doc(cand))
    counts = [_counts(cand.texts, ref.texts, n) for n in range(1, 5)]
    return MetricReport(
        css=css(cand_vec, target),
        bleu4=_bleu4(cand.texts, ref.texts, counts),
        rouge1=_prf(*counts[0]),
        rouge2=_prf(*counts[1]),
        rougeL=_rouge_l(cand.texts, ref.texts),
        style_loss=_style_loss(cand_vec, target),
    )
