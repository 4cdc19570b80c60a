from __future__ import annotations

import math
import os
import signal
import time
import warnings

import numpy as np
import pytest

from stylekit import contrastive
from stylekit.contrastive import (
    ContrastivePair,
    EmptyHeldout,
    InsufficientSnippets,
    InvalidSetting,
    NonFiniteLoss,
    SkippedPair,
    TrainConfig,
    UnnormalizedInput,
    UntrainedPairs,
    UnusablePair,
    build_pairs,
    embed_pairs,
    eval_retrieval,
    extract_snippets,
    info_nce,
    info_nce_with_grad,
    pairs_from_jsonl,
    pairs_to_jsonl,
    recall_at_k,
    train,
)
from stylekit.corpus import DEFAULT_MAX_TOKENS, from_sources, token_count
from stylekit.lexer import InputError
from stylekit.nn import CodeTower, EncoderModel, StyleTower, l2_normalize
from stylekit.syntax import SourceDoc

THREE_FUNCS = (
    "def a(x):\n    u = x + 1\n    v = u * 2\n    return v\n"
    "\n"
    "def b(y):\n    p = y - 1\n    q = p * 3\n    return q\n"
    "\n"
    "def c(z):\n    r = z * z\n    s = r + 4\n    return s\n"
)


def unit_rows(rng, shape):
    return l2_normalize(rng.standard_normal(shape))


# -- snippets / pairs ----------------------------------------------------------


def test_extract_snippets_function_bodies():
    snippets = extract_snippets(THREE_FUNCS)
    assert len(snippets) == 3
    assert all(s.lstrip().startswith(("u =", "p =", "r =")) for s in snippets)


def test_extract_snippets_loop_body_and_comment_block():
    src = (
        "# one\n# two\n# three\n"
        "for i in range(10):\n"
        "    a = i + 1\n"
        "    b = a * 2\n"
        "    print(b)\n"
    )
    snippets = extract_snippets(src)
    assert any("# one" in s for s in snippets)
    assert any("a = i + 1" in s for s in snippets)


def test_extract_snippets_span_after_form_feed():
    # Snippet spans are token line numbers, which a form feed does not move.
    src = "x = 1\x0c\ndef f(a):\n    b = a\n    c = b\n    return c\n"
    assert extract_snippets(src) == ["    b = a\n    c = b\n    return c"]


def test_extract_snippets_minimum_three_nonblank_lines():
    src = "def tiny(x):\n    return x\n"
    assert extract_snippets(src) == []


def test_extract_snippets_of_a_string_left_open_by_a_backslash_at_the_end():
    # The inline body's string takes the final line feed: the body still
    # ends on line 1, and is too short to be a snippet.
    assert extract_snippets("def:'\\\n") == []


def test_code_inputs_hash_like_bucket_ids_of_each_text():
    # Newline, Indent and Dedent all have empty text, so a key without the
    # kind would give them one bucket.
    texts = ["def f(a):\n    if a:\n        return 'a'\n    pass\n", "x = ²\n", "  \n",
             "y = f(1)  # if\n", "def f(a):\n    if a:\n        return 'a'\n    pass\n",
             "class C:\n    pass_ = 1\n", "\n\n"]
    code = CodeTower(seed=0, hash_seed=3)
    distinct_ids, slot = contrastive.code_inputs(code, texts)
    assert slot == [0, 1, 2, 3, 0, 4, 5]
    for text, j in zip(texts, slot):
        try:
            tokens = SourceDoc.of(text, lenient=True).tokens
            want = code.bucket_ids(tokens)
        except InputError as exc:
            assert type(distinct_ids[j]) is type(exc) and str(distinct_ids[j]) == str(exc)
            continue
        assert distinct_ids[j].dtype == np.int64
        assert np.array_equal(distinct_ids[j], want)
        assert distinct_ids[j].tolist() == [code.bucket(t.kind.value, t.text) for t in tokens]


def test_extract_snippets_skips_bodies_over_the_corpus_token_cap():
    depth = 100
    src = "".join("    " * i + f"for i{i} in x:\n" for i in range(depth)) + "    " * depth + "y = 1\n"
    # A body of k loop headers (5 tokens each) and ``y = 1`` has 5k + 3
    # tokens: k = 75 is exactly at the cap, and below k = 2 it is too short.
    assert 5 * 75 + 3 == DEFAULT_MAX_TOKENS
    assert [token_count(s) for s in extract_snippets(src)] == [5 * k + 3 for k in range(75, 1, -1)]
    # one def over the cap is skipped, its small neighbour kept
    big = "def big():\n" + "".join(f"    v{i} = {i}\n" for i in range(130))  # 390 tokens
    assert extract_snippets(big + THREE_FUNCS) == extract_snippets(THREE_FUNCS)


def test_build_pairs_one_per_snippet():
    corp = from_sources([("f1", THREE_FUNCS)])
    pairs = build_pairs(corp)
    assert len(pairs) == 3
    assert {p.file_id for p in pairs} == {"f1"}
    assert [p.id for p in pairs] == ["f1:0", "f1:1", "f1:2"]
    assert all(p.anchor == THREE_FUNCS for p in pairs)


def test_build_pairs_skips_thin_files_with_warning():
    corp = from_sources([("thin", "x = 1\n"), ("ok", THREE_FUNCS)])
    with pytest.warns(InsufficientSnippets):
        pairs = build_pairs(corp)
    assert {p.file_id for p in pairs} == {"ok"}


def test_build_pairs_skips_a_file_the_lexer_rejects_and_names_the_error():
    corp = from_sources([("bad", "x = ²\n" + THREE_FUNCS), ("ok", THREE_FUNCS)])
    with pytest.warns(InsufficientSnippets) as caught:
        pairs = build_pairs(corp)
    assert {p.file_id for p in pairs} == {"ok"}
    assert [str(w.message) for w in caught] == [
        "file 'bad' has 0 extractable snippet(s) (InvalidCharacter: invalid character "
        "'²' (U+00B2) on line 1); skipped"]


def test_build_pairs_deterministic_under_seed():
    corp = from_sources([("f1", THREE_FUNCS), ("f2", THREE_FUNCS.replace("x", "w"))])
    a = build_pairs(corp, seed=3, max_pairs_per_file=2)
    b = build_pairs(corp, seed=3, max_pairs_per_file=2)
    assert a == b
    c = build_pairs(corp, seed=4, max_pairs_per_file=2)
    assert [p.id for p in c] != [p.id for p in a] or a == c


def test_pairs_jsonl_round_trip(tmp_path):
    corp = from_sources([("f1", THREE_FUNCS)])
    pairs = build_pairs(corp)
    path = tmp_path / "pairs.jsonl"
    pairs_to_jsonl(pairs, path)
    assert pairs_from_jsonl(path) == pairs
    path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert pairs_from_jsonl(path) == pairs


# -- info_nce -------------------------------------------------------------------


def test_info_nce_uniform_batch_is_log_b():
    anchor = np.tile(l2_normalize(np.ones((1, 8))), (16, 1))
    positive = anchor.copy()
    assert info_nce(anchor, positive, tau=0.07) == pytest.approx(math.log(16), abs=1e-9)


def test_info_nce_b2_hand_case():
    anchor = np.eye(2)
    positive = np.eye(2)
    # sim(z, z+) = 1, sim(z, z-) = 0, tau = 1 -> -log(e / (e + 1))
    assert info_nce(anchor, positive, tau=1.0) == pytest.approx(0.313262, abs=1e-6)


def test_info_nce_hard_max_limit():
    anchor = np.eye(2)
    positive = np.eye(2)
    assert info_nce(anchor, positive, tau=1e-3) == pytest.approx(0.0, abs=1e-9)


def test_info_nce_requires_normalized_rows():
    rng = np.random.default_rng(0)
    bad = rng.standard_normal((4, 8)) * 3
    good = unit_rows(rng, (4, 8))
    with pytest.raises(UnnormalizedInput):
        info_nce(bad, good, tau=0.07)
    with pytest.raises(UnnormalizedInput):
        info_nce(good, bad, tau=0.07)


def test_info_nce_batch_of_one_rejected():
    with pytest.raises(ValueError):
        info_nce(np.ones((1, 4)) / 2, np.ones((1, 4)) / 2, tau=1.0)


def test_info_nce_non_negative():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = unit_rows(rng, (6, 16))
        p = unit_rows(rng, (6, 16))
        assert info_nce(a, p, tau=0.07) >= 0.0


def test_info_nce_rotation_invariant():
    rng = np.random.default_rng(2)
    a = unit_rows(rng, (8, 32))
    p = unit_rows(rng, (8, 32))
    q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
    base = info_nce(a, p, tau=0.07)
    rotated = info_nce(a @ q, p @ q, tau=0.07)
    assert rotated == pytest.approx(base, abs=1e-9)


def test_info_nce_symmetric_mode_averages_directions():
    rng = np.random.default_rng(3)
    a = unit_rows(rng, (5, 12))
    p = unit_rows(rng, (5, 12))
    sym = info_nce(a, p, tau=0.5, symmetric=True)
    assert sym == pytest.approx(
        (info_nce(a, p, tau=0.5) + info_nce(p, a, tau=0.5)) / 2, abs=1e-12
    )


def test_info_nce_gradients_match_finite_differences():
    # the gradients treat the (normalized) inputs as free variables, so a
    # tiny raw perturbation (well inside the 1e-4 norm tolerance) checks
    # them directly
    rng = np.random.default_rng(4)
    a = l2_normalize(rng.standard_normal((3, 6)))
    p = l2_normalize(rng.standard_normal((3, 6)))
    _, da, dp = info_nce_with_grad(a, p, tau=0.3)
    h = 1e-6
    for mat, grad, is_anchor in ((a, da, True), (p, dp, False)):
        for i in range(3):
            for j in range(6):
                plus, minus = mat.copy(), mat.copy()
                plus[i, j] += h
                minus[i, j] -= h
                if is_anchor:
                    num = (info_nce(plus, p, tau=0.3) - info_nce(minus, p, tau=0.3)) / (2 * h)
                else:
                    num = (info_nce(a, plus, tau=0.3) - info_nce(a, minus, tau=0.3)) / (2 * h)
                assert num == pytest.approx(grad[i, j], abs=1e-5)


# -- training -----------------------------------------------------------------


def tiny_pairs(n_files=8):
    from archetype_corpus import make_corpus

    sources = [(fid, src) for fid, src, _ in make_corpus(n_files, seed=0)]
    return build_pairs(from_sources(sources), seed=0, max_pairs_per_file=3)


def test_train_loss_decreases_on_tiny_corpus():
    pairs = tiny_pairs()
    cfg = TrainConfig(epochs=4, batch_size=4, seed=0)
    _, logs = train(pairs, cfg)
    assert logs[-1].mean_loss < logs[0].mean_loss


def test_train_warns_once_when_the_sampler_leaves_pairs_out(tmp_path):
    # 7 pairs of file A and 1 of file B: each epoch's one batch is [A_k, B]
    pairs = [ContrastivePair(p.id, "B" if i == 7 else "A", p.anchor, p.positive)
             for i, p in enumerate(tiny_pairs()[:8])]
    log = tmp_path / "log.csv"
    with pytest.warns(UntrainedPairs) as caught:
        train(pairs, TrainConfig(epochs=3, batch_size=4, seed=0), log_path=log)
    messages = [str(w.message) for w in caught if w.category is UntrainedPairs]
    assert len(messages) == 1 and "only 2 of 8 pairs" in messages[0]
    assert log.read_text().splitlines()[0] == "epoch,mean_loss,wall_ms"


@pytest.fixture(params=[True, False], ids=["overlapped", "in_turn"])
def overlap(request, monkeypatch):
    """Run ``train``'s code tower in a forked worker beside the style tower,
    or the towers one after the other, whatever this host's CPUs and BLAS
    threads would select."""
    monkeypatch.setattr(contrastive, "_overlap_towers", lambda: request.param)
    return request.param


@pytest.mark.parametrize("blas, cpus, expected", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({}, 2, False),                              # OpenBLAS default: one per CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),   # one CPU
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, True),
    ({"OPENBLAS_NUM_THREADS": "8"}, 4, False),
    ({"OMP_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, False),   # unset to OpenBLAS
    ({"OPENBLAS_NUM_THREADS": "one"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "1abc"}, 2, True),  # read as C's atoi reads it
    ({"OPENBLAS_NUM_THREADS": "+1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "²"}, 2, False),    # a digit to str.isdigit, not to atoi
])
def test_towers_overlap_only_where_both_blas_pools_fit(monkeypatch, blas, cpus, expected):
    for var in contrastive._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert contrastive._overlap_towers() is expected


def test_overlapped_and_in_turn_training_are_bit_identical(monkeypatch, tmp_path):
    results = []
    for overlapped in (True, False):
        monkeypatch.setattr(contrastive, "_overlap_towers", lambda: overlapped)
        path = tmp_path / f"{overlapped}.ckpt"
        with pytest.warns(UntrainedPairs):
            model, logs = train(tiny_pairs(), TrainConfig(epochs=2, batch_size=4, seed=11),
                                checkpoint_path=path)
        results.append((path.read_bytes(), [repr(e.mean_loss) for e in logs]))
        # no tensor is left a view of the memory the worker shared
        assert all(p.flags.owndata for tower in (model.code, model.style)
                   for p in tower.params.values())
    assert results[0] == results[1]


def test_diverging_train_raises_non_finite_loss_with_warnings_as_errors(overlap):
    # the code tower's worker must ignore the overflow as the caller does, or
    # its RuntimeWarning is raised here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLoss):
            train(tiny_pairs(), TrainConfig(epochs=2, batch_size=4, seed=0, lr=1e30))


def test_train_leaves_the_callers_numpy_error_state_as_it_found_it(overlap):
    with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):
        before = np.geterr()
        train(tiny_pairs(), TrainConfig(epochs=1, batch_size=4, seed=0))
        assert np.geterr() == before
        with pytest.raises(NonFiniteLoss):
            train(tiny_pairs(), TrainConfig(epochs=1, batch_size=4, seed=0, lr=1e30))
        assert np.geterr() == before


class TowerFailure(RuntimeError):
    pass


def broken(self, cache, dout):
    raise TowerFailure(f"{type(self).__name__} failed")


@pytest.mark.parametrize("failing, other", [(CodeTower, StyleTower), (StyleTower, CodeTower)],
                         ids=["code", "style"])
def test_train_raises_a_tower_error_after_both_sides_finish(monkeypatch, tmp_path, failing,
                                                           other):
    """With the towers overlapped, one tower's backward raises and the
    other's is slow. ``train`` raises that error only once the slow side
    has finished, and leaves no worker. The slow side records that it
    finished in a file, which the worker's writes reach."""
    finished = tmp_path / "finished"
    original = other.backward

    def slow(self, cache, dout):
        time.sleep(0.2)
        grads = original(self, cache, dout)
        with finished.open("a") as fh:
            fh.write(f"{type(self).__name__}\n")
        return grads

    monkeypatch.setattr(contrastive, "_overlap_towers", lambda: True)
    monkeypatch.setattr(other, "backward", slow)
    monkeypatch.setattr(failing, "backward", broken)
    with pytest.raises(TowerFailure, match=f"^{failing.__name__} failed$"):
        train(tiny_pairs(), TrainConfig(epochs=1, batch_size=4, seed=0))
    assert finished.read_text().splitlines() == [other.__name__]
    assert no_child_left()


@pytest.mark.parametrize("step", ["forward", "backward"])
def test_train_raises_the_code_towers_error_when_both_towers_fail(monkeypatch, overlap, step):
    monkeypatch.setattr(CodeTower, step, broken)
    monkeypatch.setattr(StyleTower, step, broken)
    with pytest.raises(TowerFailure, match="^CodeTower failed$"):
        train(tiny_pairs(), TrainConfig(epochs=1, batch_size=4, seed=0))
    assert no_child_left()


def test_train_runs_the_code_tower_where_selected_on_a_helper_that_ends_with_it(
        monkeypatch, tmp_path, overlap):
    """The code tower's forward runs in one process: a forked worker where
    the towers overlap, else the caller. The pids go to a file, which the
    worker's writes reach, and no worker outlives the call."""
    ran_in = tmp_path / "pids"
    original = CodeTower.forward

    def recorded(self, *args):
        with ran_in.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(self, *args)

    monkeypatch.setattr(CodeTower, "forward", recorded)
    train(tiny_pairs(), TrainConfig(epochs=1, batch_size=4, seed=0))
    pids = set(ran_in.read_text().split())
    assert len(pids) == 1
    assert (str(os.getpid()) not in pids) is overlap
    assert no_child_left()


def interrupting_log(entry):
    raise KeyboardInterrupt


@pytest.mark.parametrize("cause, cfg, raised", [
    ("interrupt", dict(), KeyboardInterrupt),
    ("diverged", dict(lr=1e30), NonFiniteLoss),
    ("code_tower", dict(), TowerFailure),
], ids=["interrupt", "diverged", "code_tower"])
def test_no_worker_outlives_a_train_call_that_raises(monkeypatch, cause, cfg, raised):
    monkeypatch.setattr(contrastive, "_overlap_towers", lambda: True)
    if cause == "code_tower":
        monkeypatch.setattr(CodeTower, "backward", broken)
    log_fn = interrupting_log if cause == "interrupt" else None
    with pytest.raises(raised):
        train(tiny_pairs(), TrainConfig(epochs=2, batch_size=4, seed=0, **cfg), log_fn=log_fn)
    assert no_child_left()


@pytest.mark.parametrize("fault, message", [
    (lambda: os._exit(7), "exited with status 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "died of signal 9"),
], ids=["exit", "signal"])
def test_a_worker_that_ends_mid_step_raises_runtime_error(monkeypatch, fault, message):
    caller, real = os.getpid(), CodeTower.backward

    def backward(self, cache, dout):
        if os.getpid() != caller:
            fault()
        return real(self, cache, dout)

    monkeypatch.setattr(contrastive, "_overlap_towers", lambda: True)
    monkeypatch.setattr(CodeTower, "backward", backward)
    with pytest.raises(RuntimeError, match=f"^the code tower's worker {message}$"):
        train(tiny_pairs(), TrainConfig(epochs=1, batch_size=4, seed=0))
    assert no_child_left()


def test_the_worker_runs_no_exit_handler_and_flushes_no_buffer_of_the_callers(monkeypatch,
                                                                            capfd):
    import atexit
    import io
    import sys

    monkeypatch.setattr(contrastive, "_overlap_towers", lambda: True)
    with io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w"))) as out:
        monkeypatch.setattr(sys, "stdout", out)
        print("once", end="")                    # buffered across the fork
        atexit.register(os.write, 2, b"an exit handler ran\n")
        try:
            train(tiny_pairs(), TrainConfig(epochs=1, batch_size=4, seed=0))
        finally:
            atexit.unregister(os.write)
    assert capfd.readouterr() == ("once", "")
    assert no_child_left()


def test_a_non_finite_gradient_is_named_in_params_order_on_both_schedules(monkeypatch, overlap):
    """The worker updates ``wr`` while the caller updates ``w4``: both
    reject a non-finite gradient, and the caller's ``w4`` comes first."""
    from stylekit.nn import NonFiniteGradient

    real = StyleTower.backward

    def backward(self, cache, dout):
        grads = real(self, cache, dout)
        grads["w4"][0, 0] = grads["wr"][0, 0] = np.nan
        return grads

    monkeypatch.setattr(StyleTower, "backward", backward)
    with pytest.raises(NonFiniteGradient) as caught:
        train(tiny_pairs(), TrainConfig(epochs=1, batch_size=4, seed=0))
    assert caught.value.tensor_name == "w4"
    assert no_child_left()


def test_train_equals_a_dense_adam_reference_bit_for_bit(monkeypatch):
    """Two epochs of ``train``, with the code tower in a forked worker and
    in turn, and the same steps again with every ``emb`` gradient densified
    and the whole-tensor Adam of ``test_nn``."""
    from test_nn import adam_step_dense

    from stylekit import contrastive
    from stylekit.nn import l2_normalize_backward, new_adam_state

    pairs = tiny_pairs()
    cfg = TrainConfig(epochs=2, batch_size=4, seed=3)
    models = []
    for overlapped in (True, False):
        monkeypatch.setattr(contrastive, "_overlap_towers", lambda: overlapped)
        models.append(train(pairs, cfg)[0])

    rng = np.random.default_rng(cfg.seed)
    style = StyleTower(seed=cfg.seed)
    code = CodeTower(seed=cfg.seed + 1, hash_seed=cfg.seed)
    distinct_ids, slot = contrastive.code_inputs(code, [p.anchor for p in pairs])
    style_vecs = np.stack(contrastive.style_inputs([p.positive for p in pairs]))
    opt_style, opt_code = new_adam_state(style.params), new_adam_state(code.params)
    quiet = set()   # emb rows that had a gradient once and then a silent batch
    seen = set()
    for _ in range(cfg.epochs):
        for batch in contrastive._stratified_batches(pairs, cfg.batch_size, rng):
            code_cache, style_cache = {}, {}
            code_out = code.forward([distinct_ids[slot[i]] for i in batch],
                                    code_cache).astype(np.float64)
            style_out = style.forward(style_vecs[batch], style_cache).astype(np.float64)
            _, da, dp = info_nce_with_grad(l2_normalize(code_out), l2_normalize(style_out),
                                           cfg.temperature, cfg.symmetric_loss)
            code_grads = code.backward(
                code_cache, l2_normalize_backward(code_out, da).astype(np.float32))
            style_grads = style.backward(
                style_cache, l2_normalize_backward(style_out, dp).astype(np.float32))
            rows = set(code_grads["emb"].rows.tolist())
            quiet |= seen - rows
            seen |= rows
            code_grads["emb"] = np.asarray(code_grads["emb"])
            adam_step_dense(code.params, code_grads, opt_code, lr=cfg.lr)
            adam_step_dense(style.params, style_grads, opt_style, lr=cfg.lr)
    assert quiet
    for model in models:
        for trained, reference in ((model.code, code), (model.style, style)):
            for name, value in reference.params.items():
                assert np.array_equal(trained.params[name], value), name


def test_train_duplicate_pair_floor():
    # one pair repeated across the whole batch: every candidate equals the
    # positive, so the softmax stays uniform and the loss is ln(B) forever
    base = tiny_pairs(2)[0]
    pairs = [
        ContrastivePair(id=f"d{i}", file_id=f"f{i}", anchor=base.anchor,
                        positive=base.positive)
        for i in range(8)
    ]
    cfg = TrainConfig(epochs=2, batch_size=8, seed=0)
    _, logs = train(pairs, cfg)
    assert logs[-1].mean_loss >= math.log(8) - 1e-6


def test_train_deterministic_checkpoints(tmp_path):
    pairs = tiny_pairs()
    cfg = TrainConfig(epochs=2, batch_size=4, seed=11)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    for path in (p1, p2):
        with pytest.warns(UntrainedPairs, match="only 23 of 24 pairs"):
            train(pairs, cfg, checkpoint_path=path)
    assert p1.read_bytes() == p2.read_bytes()


def test_train_writes_log_csv(tmp_path):
    pairs = tiny_pairs()
    log = tmp_path / "log.csv"
    train(pairs, TrainConfig(epochs=2, batch_size=4, seed=0), log_path=log)
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,mean_loss,wall_ms"
    assert len(lines) == 3


def test_train_needs_enough_pairs():
    with pytest.raises(InvalidSetting):
        train(tiny_pairs(2)[:3], TrainConfig(epochs=1, batch_size=16, seed=0))


@pytest.mark.parametrize("setting", [
    {"lr": math.nan}, {"lr": math.inf}, {"lr": 0.0}, {"lr": -1e-3},
    {"temperature": math.nan}, {"temperature": 0.0}, {"batch_size": 1}, {"epochs": 0},
    {"seed": -1},
])
def test_train_config_rejects_a_bad_setting(setting):
    with pytest.raises(InvalidSetting):
        TrainConfig(**setting)


def test_bad_pair_cap_seed_or_k_is_rejected():
    corpus = from_sources([("a", "x = 1\n")])
    for kwargs in ({"seed": -1}, {"max_pairs_per_file": -1}):
        with pytest.raises(InvalidSetting):
            build_pairs(corpus, **kwargs)
    embs = np.eye(2)
    for k in (0, -3):
        with pytest.raises(InvalidSetting):
            recall_at_k(embs, embs, ["p0", "p1"], k)


def test_train_batches_avoid_same_file():
    from stylekit.contrastive import _stratified_batches

    pairs = tiny_pairs(6)  # 3 pairs per file
    rng = np.random.default_rng(0)
    for batch in _stratified_batches(pairs, 4, rng):
        files = [pairs[i].file_id for i in batch]
        assert len(files) == len(set(files))


def test_train_and_embed_survive_an_unparseable_positive():
    from stylekit.features import analyze
    from stylekit.syntax import SyntaxUnsupported

    colonless = "def g(x)\n    y = x\n    return y\n"
    with pytest.raises(SyntaxUnsupported):
        analyze(colonless)
    bad = ContrastivePair(id="bad:0", file_id="bad", anchor=colonless, positive=colonless)
    pairs = tiny_pairs() + [bad]
    with pytest.warns(UntrainedPairs, match="only 24 of 25 pairs"):
        model, logs = train(pairs, TrainConfig(epochs=1, batch_size=4, seed=0))
    assert len(logs) == 1 and math.isfinite(logs[0].mean_loss)
    anchors, styles = embed_pairs(model, pairs[-4:])
    assert anchors.shape == styles.shape and np.all(np.isfinite(styles))


def test_training_does_not_change_analyzer_outputs():
    from stylekit.features import analyze, to_json

    src = THREE_FUNCS
    before = to_json(analyze(src))
    train(tiny_pairs(), TrainConfig(epochs=1, batch_size=4, seed=0))
    assert to_json(analyze(src)) == before


# -- retrieval ------------------------------------------------------------------


def test_recall_perfect_when_positives_equal_anchors():
    rng = np.random.default_rng(5)
    embs = unit_rows(rng, (12, 16))
    ids = [f"p{i}" for i in range(12)]
    assert recall_at_k(embs, embs.copy(), ids, 1) == 1.0


def test_recall_at_n_is_one():
    rng = np.random.default_rng(6)
    a = unit_rows(rng, (9, 8))
    s = unit_rows(rng, (9, 8))
    assert recall_at_k(a, s, [f"p{i}" for i in range(9)], 9) == 1.0


def test_recall_monotone_in_k():
    rng = np.random.default_rng(7)
    a = unit_rows(rng, (15, 8))
    s = unit_rows(rng, (15, 8))
    ids = [f"p{i}" for i in range(15)]
    values = [recall_at_k(a, s, ids, k) for k in range(1, 16)]
    assert values == sorted(values)
    assert values[-1] == 1.0


def recall_at_k_by_sorting(anchor_embs, style_embs, pair_ids, k):
    """``recall_at_k`` as it was before it was vectorized, kept as an oracle."""
    if len(pair_ids) == 0:
        raise EmptyHeldout("no held-out pairs")
    sims = anchor_embs @ style_embs.T
    hits = 0
    n = len(pair_ids)
    for i in range(n):
        order = sorted(range(n), key=lambda j: (-sims[i, j], pair_ids[j]))
        if i in order[:k]:
            hits += 1
    return hits / n


@pytest.mark.parametrize("seed", range(6))
def test_recall_equals_sorting_reference_under_ties(seed):
    rng = np.random.default_rng(seed)
    n = 24
    if seed % 2:
        a = np.round(unit_rows(rng, (n, 4)) * 4) / 4   # rounded: equal cosines
        s = np.round(unit_rows(rng, (n, 4)) * 4) / 4
    else:
        a = rng.integers(-1, 2, (n, 3)).astype(np.float64)   # ties everywhere
        s = rng.integers(-1, 2, (n, 3)).astype(np.float64)
    s[[5, 11]] = s[2]                  # duplicated columns
    a[7] = a[3]
    ids = [f"p{j:02d}" for j in rng.permutation(n)]   # id order is not column order
    ids[9] = ids[4]                    # a repeated id falls back to column order
    sims = a @ s.T
    ties = np.sum(sims == np.diag(sims)[:, None]) - n
    assert ties >= 6   # off the diagonal: the duplicated columns at least
    for k in range(1, n + 1):
        assert recall_at_k(a, s, ids, k) == recall_at_k_by_sorting(a, s, ids, k)


def test_recall_random_embeddings_expectation():
    # with random frozen embeddings recall@1 concentrates near 1/N
    rng = np.random.default_rng(8)
    n = 20
    total = 0.0
    runs = 60
    for _ in range(runs):
        a = unit_rows(rng, (n, 32))
        s = unit_rows(rng, (n, 32))
        total += recall_at_k(a, s, [f"p{i}" for i in range(n)], 1)
    mean = total / runs
    assert 0.2 / n < mean < 3.0 / n


def test_embed_pairs_names_a_pair_a_tower_cannot_take():
    model = EncoderModel(
        style=StyleTower(seed=0, layers=(34, 8, 8, 8, 16)),
        code=CodeTower(seed=1, vocab=64, embed_dim=8, hidden_dim=8, out_dim=16),
    )
    pairs = tiny_pairs(2)
    anchors, styles = embed_pairs(model, pairs)
    assert anchors.shape == styles.shape == (len(pairs), 16)
    bad = ContrastivePair(id="bad:0", file_id="bad", anchor="x = \u00b2\n",
                          positive=pairs[0].positive)
    with pytest.raises(UnusablePair, match="^pair 'bad:0': anchor: InvalidCharacter: "):
        embed_pairs(model, [*pairs, bad])


def test_eval_retrieval_empty_heldout():
    pairs = tiny_pairs(2)
    model, _ = train(pairs, TrainConfig(epochs=1, batch_size=4, seed=0))
    with pytest.raises(EmptyHeldout):
        eval_retrieval(model, [], 1)


def test_eval_retrieval_runs_end_to_end():
    pairs = tiny_pairs(6)
    model, _ = train(pairs, TrainConfig(epochs=1, batch_size=4, seed=0))
    value = eval_retrieval(model, pairs[:6], 3)
    assert 0.0 <= value <= 1.0


# -- inputs built on several CPUs ----------------------------------------------


def split_batch():
    """Pairs of 12 files, three to an anchor, and in the last slice, which a
    child builds: an anchor of about 100 KB of bucket ids, more than a pipe
    holds, an ``x = ²`` positive and an anchor without a real token."""
    pairs = tiny_pairs(12)
    return [*pairs,
            ContrastivePair("big:0", "big", THREE_FUNCS * 200, THREE_FUNCS),
            ContrastivePair("sup:0", "sup", pairs[0].anchor, "x = ²\n"),
            ContrastivePair("blank:0", "blank", "\n\n", pairs[1].positive)]


def usable(batch):
    return [p for p in batch if p.file_id not in ("sup", "blank")]


def small_model():
    return EncoderModel(style=StyleTower(seed=0, layers=(34, 8, 8, 8, 16)),
                        code=CodeTower(seed=1, vocab=64, embed_dim=8, hidden_dim=8, out_dim=16))


def build_on(monkeypatch, cpus):
    """Build pair inputs serially (one CPU) or split over ``cpus``, which
    the batches here fill at any host's CPU count."""
    monkeypatch.setattr(contrastive, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(contrastive, "SPLIT_MIN_TEXTS", 8)


@pytest.fixture(params=[1, 3], ids=["serial", "split"])
def cpus(request, monkeypatch):
    build_on(monkeypatch, request.param)
    return request.param


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def in_children(monkeypatch, fail, parent=False):
    """Make ``analyze`` call ``fail`` in every forked child, or in the caller."""
    caller, real = os.getpid(), contrastive.analyze

    def analyze(text, lenient=False):
        if (os.getpid() == caller) is parent:
            fail()
        return real(text, lenient=lenient)

    monkeypatch.setattr(contrastive, "analyze", analyze)


def inputs_as_bytes(code, batch):
    """``_pair_inputs`` of ``batch`` as comparable values, with its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kept, distinct_ids, slot, rows = contrastive._pair_inputs(code, batch, skip=True)
    as_bytes = [(type(x).__name__, str(x)) if isinstance(x, InputError)
                else (x.dtype.str, x.shape, x.tobytes()) for x in [*distinct_ids, *rows]]
    return ([p.id for p in kept], slot, as_bytes,
            [(w.category, str(w.message)) for w in caught])


def test_split_and_serial_pair_inputs_are_identical(monkeypatch):
    code, batch = CodeTower(seed=1, hash_seed=5), split_batch()
    got = []
    for n in (1, 2, 3):
        build_on(monkeypatch, n)
        got.append(inputs_as_bytes(code, batch))
        assert no_child_left()
    assert got[0] == got[1] == got[2]
    skipped = [message for category, message in got[0][3] if category is SkippedPair]
    assert skipped == [
        "pair 'sup:0': positive: InvalidCharacter: invalid character '²' (U+00B2) on line 1; skipped",
        "pair 'blank:0': anchor: EmptyTokenStream: code tower needs at least one real token; skipped"]


def test_split_and_serial_retrieval_embedding_and_training_are_identical(monkeypatch, tmp_path):
    import hashlib

    model, batch = small_model(), split_batch()
    results = []
    for n in (1, 3):
        build_on(monkeypatch, n)
        with pytest.warns(SkippedPair):
            recall = eval_retrieval(model, batch, 3)
        anchors, styles = embed_pairs(model, usable(batch))
        path = tmp_path / f"{n}.ckpt"
        with pytest.warns((SkippedPair, UntrainedPairs)):
            train(batch, TrainConfig(epochs=2, batch_size=4, seed=3), checkpoint_path=path)
        results.append((recall, hashlib.sha256(anchors.tobytes() + styles.tobytes()).hexdigest(),
                        path.read_bytes()))
        assert no_child_left()
    assert results[0] == results[1]


def test_a_childs_bug_is_raised_in_the_caller_and_the_cli_exits_3(monkeypatch, tmp_path, capsys):
    from stylekit import checkpoint
    from stylekit.cli import EXIT_INTERNAL, main

    build_on(monkeypatch, 3)
    in_children(monkeypatch, lambda: [][0])
    with pytest.raises(IndexError) as caught:
        contrastive._pair_inputs(CodeTower(seed=1), split_batch(), skip=True)
    assert "IndexError" in str(caught.value.__cause__)   # the child's traceback
    assert no_child_left()
    pairs_path, ckpt_path = tmp_path / "p.jsonl", tmp_path / "m.ckpt"
    pairs_to_jsonl(split_batch(), pairs_path)
    checkpoint.save(small_model(), ckpt_path)
    code = main(["eval-retrieval", "--pairs", str(pairs_path), "--ckpt", str(ckpt_path),
                 "--k", "1", "--json"])
    assert code == EXIT_INTERNAL and '"error": "IndexError"' in capsys.readouterr().err
    assert no_child_left()


def truncating_dumps(monkeypatch):
    """Make ``pickle.dumps`` drop its last 5 bytes in every forked child."""
    import pickle

    caller, real = os.getpid(), pickle.dumps

    def dumps(*args):
        return real(*args)[:-5] if os.getpid() != caller else real(*args)

    monkeypatch.setattr(pickle, "dumps", dumps)


@pytest.mark.parametrize("fault, message", [
    (lambda mp: in_children(mp, lambda: os._exit(7)), "exited with status 7"),
    (lambda mp: in_children(mp, lambda: os.kill(os.getpid(), signal.SIGKILL)),
     "died of signal 9"),
    (truncating_dumps, "sent a short payload"),
], ids=["exit", "signal", "short"])
def test_a_child_that_fails_to_reply_raises_runtime_error(monkeypatch, fault, message):
    build_on(monkeypatch, 3)
    fault(monkeypatch)
    with pytest.raises(RuntimeError, match=message):
        contrastive._pair_inputs(CodeTower(seed=1), split_batch(), skip=True)
    assert no_child_left()


def test_no_child_outlives_a_call_whose_own_slice_raises(monkeypatch):
    # the children block on writes of more than a pipe holds until the
    # caller closes the read ends
    build_on(monkeypatch, 3)
    in_children(monkeypatch, lambda: [][0], parent=True)
    with pytest.raises(IndexError):
        contrastive._pair_inputs(CodeTower(seed=1), split_batch(), skip=True)
    assert no_child_left()


def test_children_run_no_exit_handler_and_flush_no_buffer_of_the_callers(cpus, monkeypatch,
                                                                         capfd):
    import atexit
    import io
    import sys

    with io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w"))) as out:
        monkeypatch.setattr(sys, "stdout", out)
        print("once", end="")                    # buffered across the fork
        atexit.register(os.write, 2, b"an exit handler ran\n")
        try:
            with pytest.warns(SkippedPair):
                contrastive._pair_inputs(CodeTower(seed=1), split_batch(), skip=True)
        finally:
            atexit.unregister(os.write)
    assert capfd.readouterr() == ("once", "")
    assert no_child_left()
