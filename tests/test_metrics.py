from __future__ import annotations

import dataclasses
import math
import sysconfig
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from stylekit.features import (
    NAMING_SLICE,
    NORMALIZATION_CAPS,
    REGISTRY,
    SchemaMismatch,
    StyleVector,
    StyleVectorRaw,
    analyze,
    normalize,
)
from stylekit.lexer import InputError
from stylekit.metrics import (
    EmptyInput,
    LossConfig,
    MetricReport,
    NonFiniteInput,
    RougeScore,
    _style_loss,
    bleu4,
    css,
    lcs_length,
    metric_tokens,
    rouge,
    score,
    style_loss,
    total_loss,
)

from archetype_corpus import make_corpus
from text_strategies import source_texts

# -- independent oracles -------------------------------------------------------


def oracle_bleu(cand: list[str], ref: list[str]) -> float:
    """Reference BLEU-4: greedy clipped matching with used-flags, exact
    fractions, same smoothing rule as the production implementation."""
    logs = []
    for n in range(1, 5):
        cgrams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
        rgrams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
        if not cgrams:
            return 0.0
        used = [False] * len(rgrams)
        match = 0
        for g in cgrams:
            for j, r in enumerate(rgrams):
                if not used[j] and r == g:
                    used[j] = True
                    match += 1
                    break
        if match == 0:
            if n == 1:
                return 0.0
            p = Fraction(1, 2 * len(cgrams))
        else:
            p = Fraction(match, len(cgrams))
        logs.append(math.log(p))
    bp = 1.0 if len(cand) > len(ref) else math.exp(1.0 - len(ref) / len(cand))
    return bp * math.exp(sum(logs) / 4)


def oracle_lcs(a: list[str], b: list[str]) -> int:
    """Brute force: longest subsequence of ``a`` that is a subsequence of ``b``."""
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        it = iter(b)
        if all(x in it for x in sub):
            best = max(best, len(sub))
    return best


def lcs_length_dp(a: list[str], b: list[str]) -> int:
    """``lcs_length`` as it was before it went bit-parallel, kept as an oracle."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def ngrams_sliced(tokens: list[str], n: int) -> Counter:
    """The n-gram counter as it was built before, one slice per n-gram."""
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu4_per_order(cand: list[str], ref: list[str]) -> float:
    """BLEU-4 as it was computed before, counting each order's n-grams anew."""
    log_sum = 0.0
    for n in range(1, 5):
        cand_ngrams = ngrams_sliced(cand, n)
        total = sum(cand_ngrams.values())
        if total == 0:
            return 0.0
        ref_ngrams = ngrams_sliced(ref, n)
        clipped = sum(min(c, ref_ngrams[g]) for g, c in cand_ngrams.items())
        if clipped == 0:
            if n == 1:
                return 0.0
            precision = 1.0 / (2.0 * total)
        else:
            precision = clipped / total
        log_sum += math.log(precision)
    bp = 1.0 if len(cand) > len(ref) else math.exp(1.0 - len(ref) / len(cand))
    return bp * math.exp(log_sum / 4.0)


def prf(overlap: int, cand_total: int, ref_total: int) -> RougeScore:
    p = overlap / cand_total if cand_total else 0.0
    r = overlap / ref_total if ref_total else 0.0
    return RougeScore(precision=p, recall=r, f1=2 * p * r / (p + r) if p + r > 0 else 0.0)


def rouge_n_per_metric(cand: list[str], ref: list[str], n: int) -> RougeScore:
    cand_ngrams, ref_ngrams = ngrams_sliced(cand, n), ngrams_sliced(ref, n)
    overlap = sum(min(c, ref_ngrams[g]) for g, c in cand_ngrams.items())
    return prf(overlap, sum(cand_ngrams.values()), sum(ref_ngrams.values()))


def score_per_metric(candidate: str, reference: str) -> MetricReport:
    """``score`` assembled from the oracles above: every metric counts its
    own n-grams and ROUGE-L runs the dynamic program."""
    cand, ref = metric_tokens(candidate), metric_tokens(reference)
    target = normalize(analyze(reference))
    cand_vec = normalize(analyze(candidate))
    return MetricReport(
        css=css(cand_vec, target),
        bleu4=bleu4_per_order(cand, ref),
        rouge1=rouge_n_per_metric(cand, ref, 1),
        rouge2=rouge_n_per_metric(cand, ref, 2),
        rougeL=prf(lcs_length_dp(cand, ref), len(cand), len(ref)),
        style_loss=style_loss(candidate, target),
    )


def normalize_per_feature(raw: StyleVectorRaw) -> StyleVector:
    """``normalize`` as it was before it went table-driven: a cap lookup by
    name, then ``min`` and ``max``, per feature."""
    out = []
    for name, value in zip(REGISTRY, raw.values):
        cap = NORMALIZATION_CAPS.get(name)
        if cap is not None:
            value = value / cap
        out.append(min(max(value, 0.0), 1.0))
    return StyleVector(values=tuple(out), schema=raw.schema)


def vec(values) -> StyleVector:
    return StyleVector(values=tuple(values))


# -- css -----------------------------------------------------------------------


def test_css_identity():
    v = normalize(analyze("def f(a):\n    return a"))
    assert css(v, v) == 1.0


def test_css_maximal_distance():
    a = vec([0.0] * 14 + [0.3] * 20)
    b = vec([1.0] * 14 + [0.3] * 20)
    assert css(a, b) == 0.0


def test_css_hand_case():
    base = [0.2] * 34
    other = list(base)
    other[3] += 0.7
    assert css(vec(base), vec(other)) == pytest.approx(0.95)


def test_css_symmetry_and_bounds_1000_pairs():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = vec(rng.random(34))
        b = vec(rng.random(34))
        ab, ba = css(a, b), css(b, a)
        assert ab == ba
        assert 0.0 <= ab <= 1.0


def test_css_ignores_non_naming_dims():
    rng = np.random.default_rng(11)
    base = rng.random(34)
    a = vec(base)
    perturbed = base.copy()
    perturbed[14:] = rng.random(20)
    assert css(a, vec(perturbed)) == 1.0


def test_css_schema_mismatch():
    a = normalize(analyze("x = 1"))
    b = StyleVector(values=a.values, schema="s2c-style-v0")
    with pytest.raises(SchemaMismatch):
        css(a, b)


def test_css_and_style_loss_add_left_to_right_on_every_python():
    """Ten terms of 1, then terms too small to move 10.0 one at a time, but
    a unit in its last place or two all together. Added left to right, as
    Python 3.11's ``sum`` adds them, each vanishes; from 3.12 the built-in
    ``sum`` compensates, and both results would move in their last bits."""
    def padded(values):
        return vec(values + [0.0] * (len(REGISTRY) - len(values)))

    zero = padded([])
    assert repr(css(padded([1.0] * 10 + [2.0 ** -51] * 4), zero)) == repr(1.0 - 10.0 / 14)
    assert repr(_style_loss(padded([1.0] * 10 + [2.0 ** -26] * 16), zero)) == repr(10.0 / 34)


# -- style loss -----------------------------------------------------------------


def test_style_loss_zero_on_own_vector():
    src = "def f(a, b):\n    return a + b"
    assert style_loss(src, normalize(analyze(src))) == 0.0


def test_style_loss_single_dim_hand_case():
    src = "def f(a, b):\n    return a + b"
    target = list(normalize(analyze(src)).values)
    idx = REGISTRY.index("comment_ratio")
    target[idx] += 0.5
    assert style_loss(src, vec(target)) == pytest.approx(0.25 / 34)


def test_style_loss_decreases_after_reformat_toward_target():
    target_src = "def f(a):\n    if a:\n        return a\n    return 0"
    candidate = "def f(a):\n  if a:\n    return a\n  return 0"
    target = normalize(analyze(target_src))
    before = style_loss(candidate, target)
    reindented = "\n".join(
        " " * (2 * (len(l) - len(l.lstrip(" ")))) + l.lstrip(" ")
        for l in candidate.splitlines()
    )
    after = style_loss(reindented, target)
    assert after < before
    assert after == 0.0


# -- total loss -------------------------------------------------------------------


def test_total_loss_cases():
    assert total_loss(2.0, 0.5, LossConfig(0.1)) == pytest.approx(2.05)
    assert total_loss(3.7, 9.9, LossConfig(0.0)) == 3.7
    assert total_loss(0.0, 0.42, LossConfig(1.0)) == pytest.approx(0.42)


def test_total_loss_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        total_loss(float("nan"), 0.1)
    with pytest.raises(NonFiniteInput):
        total_loss(1.0, float("inf"))


@given(st.floats(0, 10), st.floats(0, 10), st.floats(0, 10), st.floats(0, 5))
@settings(max_examples=100, deadline=None)
def test_total_loss_linear_in_style(ce, s1, s2, lam):
    cfg = LossConfig(lam)
    lhs = total_loss(ce, s1 + s2, cfg) - total_loss(ce, s1, cfg)
    assert lhs == pytest.approx(lam * s2, abs=1e-9)


# -- bleu ---------------------------------------------------------------------------


def test_bleu_identity():
    src = "def f(a):\n    return a + 1"
    assert bleu4(src, src) == pytest.approx(1.0)


def test_bleu_disjoint_is_zero():
    assert bleu4("a b c", "x y z") == 0.0


def test_bleu_frozen_hand_value():
    # 4/5 * 3/4 * 2/3 * 1/2 geometric mean, brevity penalty 1
    assert bleu4("a b c d e", "a b c d f") == pytest.approx(
        0.668740304976422, abs=1e-12
    )


def test_bleu_matches_oracle_on_random_sequences():
    rng = np.random.default_rng(3)
    vocab = ["a", "b", "c", "x"]
    for _ in range(200):
        cand = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 12))]
        ref = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 12))]
        got = bleu4(" ".join(cand), " ".join(ref))
        assert got == pytest.approx(oracle_bleu(cand, ref), abs=1e-12)
        assert 0.0 <= got <= 1.0


def test_bleu_smoothing_for_missing_higher_orders():
    # shared unigrams, no shared bigram: orders 2..4 take the 1/(2H) floor
    got = bleu4("a x b y c", "a p b q c")
    assert 0.0 < got < 1.0
    assert got == pytest.approx(
        oracle_bleu("a x b y c".split(), "a p b q c".split()), abs=1e-12
    )


def test_bleu_empty_input():
    with pytest.raises(EmptyInput):
        bleu4("", "a b")
    with pytest.raises(EmptyInput):
        bleu4("a b", "   ")


def test_metric_tokens_are_layout_insensitive():
    assert metric_tokens("a=1") == metric_tokens("a = 1")
    assert metric_tokens("def f():\n    return 1") == metric_tokens(
        "def f():\n\treturn 1"
    )


# -- rouge -----------------------------------------------------------------------


def test_rouge_identity():
    src = "def f(a):\n    return a"
    for variant in ("R1", "R2", "RL"):
        assert rouge(src, src, variant).f1 == pytest.approx(1.0)


def test_rouge_l_hand_case():
    got = rouge("a c", "a b c", "RL")
    assert got.precision == 1.0
    assert got.recall == pytest.approx(2 / 3)
    assert got.f1 == pytest.approx(0.8)


def test_rouge_disjoint_all_zero():
    for variant in ("R1", "R2", "RL"):
        s = rouge("a b", "x y", variant)
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)


def test_rouge_l_matches_bruteforce_lcs():
    rng = np.random.default_rng(5)
    alphabet = ["a", "b", "c"]
    for _ in range(150):
        cand = [alphabet[i] for i in rng.integers(0, 3, rng.integers(1, 13))]
        ref = [alphabet[i] for i in rng.integers(0, 3, rng.integers(1, 13))]
        expected = oracle_lcs(cand, ref)
        assert lcs_length(cand, ref) == expected
        got = rouge(" ".join(cand), " ".join(ref), "RL")
        p = expected / len(cand)
        r = expected / len(ref)
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        assert got.f1 == pytest.approx(f1, abs=1e-12)


def test_rouge_unknown_variant():
    with pytest.raises(ValueError):
        rouge("a", "a", "R3")


def test_rouge_empty_input():
    with pytest.raises(EmptyInput):
        rouge("", "a", "R1")


# -- combined report ----------------------------------------------------------------


def test_score_report_fields():
    candidate = "def add(a, b):\n    return a + b"
    reference = "def add(x, y):\n    return x + y"
    report = score(candidate, reference)
    d = report.as_dict()
    assert set(d) == {"css", "bleu4", "rouge1", "rouge2", "rougeL", "style_loss"}
    assert 0.0 <= d["css"] <= 1.0
    assert 0.0 <= d["bleu4"] <= 1.0
    assert d["style_loss"] >= 0.0


def test_score_identity_pair():
    src = "def f(a):\n    return a + 1"
    report = score(src, src)
    assert report.css == 1.0
    assert report.bleu4 == pytest.approx(1.0)
    assert report.rougeL.f1 == pytest.approx(1.0)
    assert report.style_loss == 0.0


# -- exactness of the fast paths ------------------------------------------------------


def _alphabet_pair(max_len: int):
    return st.integers(1, 8).flatmap(lambda k: st.tuples(
        st.lists(st.integers(0, k - 1).map(str), max_size=max_len),
        st.lists(st.integers(0, k - 1).map(str), max_size=max_len),
    ))


@given(_alphabet_pair(300))
@settings(max_examples=150, deadline=None)
def test_lcs_matches_the_dynamic_program(pair):
    a, b = pair
    assert lcs_length(a, b) == lcs_length(b, a) == lcs_length_dp(a, b)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 300])
def test_lcs_at_word_boundaries(n):
    rng = np.random.default_rng(n)
    seq = [str(x) for x in rng.integers(0, 4, n)]
    other = [str(x) for x in rng.integers(0, 4, n + 1)]
    assert lcs_length(seq, seq) == n
    assert lcs_length(seq, [str(x + 4) for x in range(n)]) == 0
    assert lcs_length(seq, []) == lcs_length([], seq) == 0
    assert lcs_length(seq, other) == lcs_length(other, seq) == lcs_length_dp(seq, other)
    assert lcs_length(seq, seq[1:]) == n - 1


# Twenty stdlib modules of at least 2 KB, each lexed as the metrics lex it,
# in pairs; the first 600 tokens of each keep the dynamic program quick.
STDLIB_STREAMS = [metric_tokens(p.read_text(encoding="utf-8"))[:600]
                  for p in sorted(Path(sysconfig.get_paths()["stdlib"]).glob("*.py"))
                  if p.stat().st_size >= 2_000][:20]


@pytest.mark.parametrize("i", range(0, 20, 2))
def test_lcs_on_stdlib_token_streams(i):
    a, b = STDLIB_STREAMS[i], STDLIB_STREAMS[i + 1]
    assert lcs_length(a, b) == lcs_length_dp(a, b)


def test_score_equals_the_per_metric_report_on_archetype_pairs():
    files = [source for _, source, _ in make_corpus(n_files=60, seed=4)]
    for cand, ref in zip(files[::2], files[1::2]):
        assert score(cand, ref) == score_per_metric(cand, ref)


# Sides of 1 to 3 scored tokens, where some higher-order n-gram totals are 0,
# and token-disjoint sides: names and "+" on one, numbers and "-" on the other.
_FEW_TOKENS = st.lists(st.sampled_from(("a", "b", "1", "+", "(", ")", "'s'")),
                       min_size=1, max_size=3).map(" ".join)
_NAMES = st.lists(st.sampled_from(("a", "b", "c", "+")), min_size=1, max_size=12).map(" ".join)
_NUMBERS = st.lists(st.sampled_from(("1", "2", "3", "-")), min_size=1, max_size=12).map(" ".join)


def _scored(text: str) -> bool:
    """Whether ``score`` takes the text: it analyzes strictly and holds a
    scored token."""
    try:
        analyze(text)
    except InputError:
        return False
    return bool(metric_tokens(text))


@given(st.one_of(
    st.tuples(source_texts(), source_texts()),
    st.tuples(_FEW_TOKENS, _FEW_TOKENS),
    st.tuples(_FEW_TOKENS, source_texts()),
    st.tuples(source_texts(), _FEW_TOKENS),
    st.tuples(_NAMES, _NUMBERS),
    st.one_of(source_texts(), _FEW_TOKENS).map(lambda text: (text, text)),
))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@example(("a", "a b c d"))          # no 2-, 3- or 4-grams in the candidate
@example(("a b c d", "a b"))        # nor 3- or 4-grams in the reference
@example(("a + b", "1 - 2"))        # token-disjoint
@example(("x = f(y)\n", "x = f(y)\n"))
def test_score_equals_the_per_metric_report_on_generated_pairs(pair):
    cand, ref = pair
    assume(_scored(cand) and _scored(ref))
    report = score(cand, ref)
    assert repr(report) == repr(score_per_metric(cand, ref))
    assert bleu4(cand, ref) == report.bleu4
    assert rouge(cand, ref, "R1") == report.rouge1
    assert rouge(cand, ref, "R2") == report.rouge2
    assert rouge(cand, ref, "RL") == report.rougeL
    d = report.as_dict()
    assert d == dataclasses.asdict(report)
    assert list(d) == list(dataclasses.asdict(report))
    assert list(d["rouge1"]) == ["precision", "recall", "f1"]
    d["rouge1"]["f1"] = -1.0  # a fresh dict, as ``asdict`` gives
    assert report.rouge1.f1 != -1.0


# Each feature's cap, a value above it, a negative value, -0.0 and 0.0, the
# edges 1.0 and just past it, infinities and NaN.
_RAW_VALUES = st.one_of(
    st.sampled_from((-0.0, 0.0, 1.0, 1.0000000000000002, -1e-300, 5e-324,
                     math.inf, -math.inf, math.nan, *NORMALIZATION_CAPS.values())),
    st.floats(-50.0, 2_000.0),
    st.floats(),
)


@given(st.lists(_RAW_VALUES, min_size=len(REGISTRY), max_size=len(REGISTRY)))
@settings(max_examples=300, deadline=None)
@example([-0.0] * len(REGISTRY))
@example([-1.0] * len(REGISTRY))
@example([2_000.0] * len(REGISTRY))
def test_normalize_equals_the_per_feature_clamp_bit_for_bit(values):
    raw = StyleVectorRaw(values=tuple(values))
    assert repr(normalize(raw)) == repr(normalize_per_feature(raw))
