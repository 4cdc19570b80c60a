from __future__ import annotations

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from stylekit import checkpoint, nn
from stylekit.lexer import lex
from stylekit.nn import (
    ADAM_BLOCK,
    CodeTower,
    DimensionMismatch,
    EmptyTokenStream,
    EncoderModel,
    NonFiniteGradient,
    RowGrad,
    ShapeMismatch,
    StyleTower,
    adam_step,
    l2_normalize,
    l2_normalize_backward,
    new_adam_state,
)

# Reference forward passes, hashed once and pinned.
STYLE_GOLDEN_SHA = "437df6af78f89335b51e4dfc68aa346caec37c809a288d33cccfdac37ca52009"
CODE_GOLDEN_SHA = "44456ba8e53d8595c5b1060c11e4f4cdd6d479be44f17c968e74a1b3c3747c7e"


def small_style(seed=0, dtype=np.float64):
    return StyleTower(seed=seed, layers=(34, 8, 8, 8, 16), dtype=dtype)


def small_code(seed=0, dtype=np.float64):
    return CodeTower(seed=seed, vocab=32, embed_dim=6, hidden_dim=8,
                     out_dim=10, dtype=dtype)


def test_style_param_count_pinned():
    assert StyleTower(seed=0).param_count() == 1_777_280


def test_param_count_matches_analytic_formula():
    for layers in [(34, 128, 512, 768, 1024), (34, 8, 8, 8, 16), (10, 3, 5, 7, 9)]:
        tower = StyleTower(seed=0, layers=layers)
        assert tower.param_count() == StyleTower.analytic_param_count(layers)


def test_style_forward_shape():
    tower = StyleTower(seed=0)
    out = tower.forward(np.zeros(34, dtype=np.float32))
    assert out.shape == (1024,)
    batch = tower.forward(np.zeros((5, 34), dtype=np.float32))
    assert batch.shape == (5, 1024)


def test_style_forward_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        StyleTower(seed=0).forward(np.zeros(33))


def test_zero_weights_give_zero_output():
    tower = StyleTower(seed=0)
    for p in tower.params.values():
        p[...] = 0
    out = tower.forward(np.linspace(0, 1, 34))
    assert np.all(out == 0)


def test_style_forward_golden_hash():
    tower = StyleTower(seed=42)
    s = np.linspace(0.0, 1.0, 34, dtype=np.float32)
    digest = hashlib.sha256(tower.forward(s).astype("<f4").tobytes()).hexdigest()
    assert digest == STYLE_GOLDEN_SHA


def test_code_forward_golden_hash():
    tower = CodeTower(seed=43, hash_seed=7)
    toks = lex("def add_nums(a, b):\n    return a + b")
    emb = tower.forward([tower.bucket_ids(toks)])[0]
    digest = hashlib.sha256(emb.astype("<f4").tobytes()).hexdigest()
    assert digest == CODE_GOLDEN_SHA


def test_forward_deterministic_across_instances():
    s = np.random.default_rng(0).random((4, 34)).astype(np.float32)
    a = StyleTower(seed=9).forward(s)
    b = StyleTower(seed=9).forward(s)
    assert np.array_equal(a, b)


def test_code_mean_pool_invariances():
    tower = small_code()
    one = tower.forward([np.array([5])])
    many = tower.forward([np.array([5] * 17)])
    assert np.allclose(one, many)
    perm = tower.forward([np.array([1, 2, 3])])
    perm2 = tower.forward([np.array([3, 1, 2])])
    assert np.allclose(perm, perm2)


def test_code_empty_stream_rejected():
    tower = CodeTower(seed=0)
    with pytest.raises(EmptyTokenStream):
        tower.bucket_ids([])
    with pytest.raises(EmptyTokenStream):
        tower.bucket_ids(lex("\n\n"))


@pytest.mark.parametrize("texts", [
    ["x"],                                              # one token and its Newline
    ["x", "def f(a):\n    return a + 1\n"],
    ["def f(a):\n    return a + 1\n", "y = [1, 2]  # c\n", "def f(a):\n    return a + 1\n"],
    ["x", "if a:\n    b = 'two'\n", "x", "c = a ** 2\n", "for i in r:\n    pass\n",
     "z = {1: 2}\n", "w"],
], ids=["1-row", "2-rows", "3-rows-repeated", "7-rows-ragged"])
def test_embed_rows_equals_one_row_forward_bit_for_bit(texts):
    # Full size, in float32: BLAS chooses its kernel by shape, and a batched
    # 2-D product rounds some rows differently from a one-row one.
    tower = CodeTower(seed=6, hash_seed=5)
    ids = [tower.bucket_ids(lex(text)) for text in texts]
    rows = tower.embed_rows(ids)
    assert rows.shape == (len(texts), tower.out_dim) and rows.dtype == np.float32
    for got, one in zip(rows, ids):
        assert np.array_equal(got, tower.forward([one])[0])


def test_code_hash_seed_changes_buckets():
    a = CodeTower(seed=0, hash_seed=0)
    b = CodeTower(seed=0, hash_seed=1)
    toks = lex("value = 1")
    assert not np.array_equal(a.bucket_ids(toks), b.bucket_ids(toks))
    assert np.array_equal(a.bucket_ids(toks), CodeTower(seed=5, hash_seed=0).bucket_ids(toks))


def test_zero_upstream_gradient_gives_zero_grads():
    tower = small_style()
    cache = {}
    tower.forward(np.random.default_rng(0).random((2, 34)), cache)
    grads = tower.backward(cache, np.zeros((2, 16)))
    assert all(np.all(g == 0) for g in grads.values())


def test_dead_relu_receives_zero_gradient():
    tower = small_style()
    # force the first hidden unit dead for this input
    tower.params["w1"][0, :] = -1.0
    tower.params["b1"][0] = -5.0
    cache = {}
    tower.forward(np.ones((1, 34)), cache)
    grads = tower.backward(cache, np.ones((1, 16)))
    assert np.all(grads["w1"][0] == 0)
    assert grads["b1"][0] == 0


def test_backward_shape_mismatch():
    tower = small_style()
    cache = {}
    tower.forward(np.ones((2, 34)), cache)
    with pytest.raises(ShapeMismatch):
        tower.backward(cache, np.ones((3, 16)))


def _central_diff_check(tower, inputs, out_dim, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((len(inputs) if isinstance(inputs, list) else inputs.shape[0], out_dim))

    def loss():
        return float(np.sum(tower.forward(inputs) * w))

    cache = {}
    tower.forward(inputs, cache)
    grads = tower.backward(cache, w)
    h = 1e-5
    worst = 0.0
    for name, p in tower.params.items():
        flat = p.reshape(-1)
        idxs = range(flat.size) if flat.size <= 200 else rng.choice(flat.size, 200, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            ana = np.asarray(grads[name]).reshape(-1)[i]
            rel = abs(num - ana) / max(abs(num) + abs(ana), 1e-8)
            worst = max(worst, rel)
    return worst


@pytest.mark.parametrize("seed", range(5))
def test_style_tower_gradcheck(seed):
    tower = small_style(seed=seed)
    x = np.random.default_rng(seed + 50).random((3, 34))
    assert _central_diff_check(tower, x, 16, seed) < 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_code_tower_gradcheck(seed):
    tower = small_code(seed=seed)
    rng = np.random.default_rng(seed + 90)
    ids = [rng.integers(0, 32, rng.integers(1, 9)) for _ in range(3)]
    assert _central_diff_check(tower, ids, 10, seed) < 1e-4


def test_l2_normalize_unit_norm():
    x = np.random.default_rng(1).standard_normal((8, 1024))
    y = l2_normalize(x)
    assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-6)


def test_l2_normalize_backward_matches_finite_difference():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 5))
    w = rng.standard_normal((2, 5))
    ana = l2_normalize_backward(x, w)
    h = 1e-6
    for i in range(2):
        for j in range(5):
            xp = x.copy(); xp[i, j] += h
            xm = x.copy(); xm[i, j] -= h
            num = (np.sum(l2_normalize(xp) * w) - np.sum(l2_normalize(xm) * w)) / (2 * h)
            assert ana[i, j] == pytest.approx(num, abs=1e-5)


def test_code_backward_emb_grad_equals_per_row_scatter():
    rng = np.random.default_rng(11)
    for dtype in (np.float32, np.float64):
        tower = CodeTower(seed=4, vocab=12, embed_dim=5, hidden_dim=8, out_dim=6,
                          dtype=dtype)
        # ids repeat within rows and across rows
        ids_batch = [np.array([1, 4, 1, 1, 9]), np.array([4, 4, 2]), np.array([9]),
                     rng.integers(0, 6, 40), rng.integers(0, 12, 7)]
        cache = {}
        tower.forward(ids_batch, cache)
        dout = rng.standard_normal((5, 6)).astype(dtype)
        grads = tower.backward(cache, dout)
        # the per-row loop the single scatter replaced
        p = tower.params
        dz1 = (dout @ p["w2"]) * (cache["z1"] > 0)
        dpooled = dz1 @ p["w1"]
        expected = np.zeros_like(p["emb"])
        for row, ids in enumerate(ids_batch):
            np.add.at(expected, ids, dpooled[row] / len(ids))
        demb = np.asarray(grads["emb"])
        assert demb.dtype == expected.dtype
        assert demb.tobytes() == expected.tobytes()


# -- adam -----------------------------------------------------------------------


def adam_step_dense(params, grads, state, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """``adam_step`` as it was before it was blocked, kept as an oracle."""
    for name in params:
        if name not in grads:
            raise ShapeMismatch(f"missing gradient for {name!r}")
        if grads[name].shape != params[name].shape:
            raise ShapeMismatch(
                f"gradient {name!r}: {grads[name].shape} vs {params[name].shape}"
            )
        if not np.all(np.isfinite(grads[name])):
            raise NonFiniteGradient(name)
    state["t"] += 1
    t = state["t"]
    for name, p in params.items():
        g = grads[name].astype(p.dtype, copy=False)
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * np.square(g)
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.dtype, copy=False)
    return params


@pytest.mark.parametrize("block", [ADAM_BLOCK, 100])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_blocked_equals_dense_bit_for_bit(monkeypatch, block, dtype):
    monkeypatch.setattr(nn, "ADAM_BLOCK", block)
    rng = np.random.default_rng(block)
    shapes = {
        "small": (block // 3 + 1,),           # less than one block
        "exact": (3, block),                  # an exact multiple of it
        "ragged": (2 * block + 7,),           # not a multiple
        "bias": (5,),
    }
    blocked = {k: rng.standard_normal(sh).astype(dtype) for k, sh in shapes.items()}
    dense = {k: v.copy() for k, v in blocked.items()}
    st_blocked, st_dense = new_adam_state(blocked), new_adam_state(dense)
    for step in range(12):
        scale = 10.0 ** rng.integers(-6, 3)
        grads = {k: (rng.standard_normal(sh) * scale).astype(dtype)
                 for k, sh in shapes.items()}
        grads["bias"][step % 5] = 0.0
        adam_step(blocked, grads, st_blocked, lr=3e-3)
        adam_step_dense(dense, grads, st_dense, lr=3e-3)
    assert st_blocked["t"] == st_dense["t"] == 12
    for name in shapes:
        assert blocked[name].dtype == dtype
        assert np.array_equal(blocked[name], dense[name])
        assert np.array_equal(st_blocked["m"][name], st_dense["m"][name])
        assert np.array_equal(st_blocked["v"][name], st_dense["v"][name])


def row_grad(rows, values, shape):
    return RowGrad(np.asarray(rows, dtype=np.int64), np.asarray(values), shape)


# Each step's gradient of a 40-row table, by row; every other row is silent.
# Row 0 goes quiet after step 1, rows 1 and 2 always get exactly 0.0 and
# -0.0, row 3 enters at step 4, and from step 7 on most rows are live, so
# the update crosses from the gathered branch to the dense one.
def sparse_schedule(step, rng):
    rows = set(rng.choice(np.arange(10, 18), 3, replace=False).tolist())
    if step <= 1:
        rows.add(0)
    if step >= 4:
        rows.add(3)
    if step >= 7:
        rows |= set(rng.choice(np.arange(4, 40), 18, replace=False).tolist())
    rows |= {1, 2}
    return sorted(rows)


@pytest.mark.parametrize("block", [ADAM_BLOCK, 100])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_row_sparse_equals_dense_bit_for_bit(monkeypatch, block, dtype):
    monkeypatch.setattr(nn, "ADAM_BLOCK", block)
    rng = np.random.default_rng(block + 7)
    shapes = {"emb": (40, block // 40 + 3), "w": (3, 5), "bias": (6,), "mixed": (7,)}
    sparse = {k: rng.standard_normal(sh).astype(dtype) for k, sh in shapes.items()}
    dense = {k: v.copy() for k, v in sparse.items()}
    st_sparse, st_dense = new_adam_state(sparse), new_adam_state(dense)
    live_counts = []
    for step in range(12):
        scale = 10.0 ** rng.integers(-6, 3)
        rows = sparse_schedule(step, rng)
        values = (rng.standard_normal((len(rows), shapes["emb"][1])) * scale).astype(dtype)
        values[rows.index(1)] = 0.0
        values[rows.index(2)] = -0.0
        grads = {"emb": row_grad(rows, values, shapes["emb"]),
                 "w": (rng.standard_normal(shapes["w"]) * scale).astype(dtype),
                 "bias": row_grad([step % 6], rng.standard_normal(1).astype(dtype), (6,)),
                 # a dense gradient makes every row live
                 "mixed": (row_grad([step % 7], np.ones(1, dtype), (7,)) if step % 2
                           else rng.standard_normal(7).astype(dtype))}
        adam_step(sparse, grads, st_sparse, lr=3e-3)
        adam_step_dense(dense, {k: np.asarray(g) for k, g in grads.items()}, st_dense, lr=3e-3)
        live_counts.append(int(st_sparse["live"]["emb"].sum()))
    # both branches ran: at most half the rows live through step 6, more after
    assert max(live_counts[:7]) <= nn.ADAM_SPARSE_SHARE * 40 < live_counts[-1]
    assert st_sparse["t"] == st_dense["t"] == 12
    for name in shapes:
        assert sparse[name].dtype == dtype
        assert np.array_equal(sparse[name], dense[name])
        assert np.array_equal(st_sparse["m"][name], st_dense["m"][name])
        assert np.array_equal(st_sparse["v"][name], st_dense["v"][name])
    # row 0, silent since step 2, still carries momentum, as in dense Adam
    assert not np.array_equal(st_sparse["m"]["emb"][0], np.zeros(shapes["emb"][1]))


def adam_snapshot(params, state):
    return ({k: v.copy() for k, v in params.items()},
            {k: v.copy() for k, v in state["m"].items()},
            {k: v.copy() for k, v in state["v"].items()},
            {k: v.copy() for k, v in state["live"].items()})


def assert_unchanged(params, state, before, t):
    assert state["t"] == t
    for now, then in zip((params, state["m"], state["v"], state["live"]), before):
        assert all(np.array_equal(now[k], then[k]) for k in then)


def test_adam_non_finite_gradient_changes_nothing():
    rng = np.random.default_rng(12)
    params = {"a": rng.standard_normal(300).astype(np.float32),
              "e": rng.standard_normal((6, 3)).astype(np.float32),
              "b": rng.standard_normal((4, 5)).astype(np.float32)}
    state = new_adam_state(params)
    for step in range(2):
        grads = {k: rng.standard_normal(v.shape).astype(np.float32) for k, v in params.items()}
        grads["e"] = row_grad([step], np.ones((1, 3), dtype=np.float32), (6, 3))
        adam_step(params, grads, state)
    before = adam_snapshot(params, state)
    grads = {"a": np.ones(300, dtype=np.float32),
             "e": row_grad([2, 4], np.ones((2, 3), dtype=np.float32), (6, 3)),
             "b": np.ones((4, 5), dtype=np.float32)}
    grads["b"][3, 1] = np.inf       # the last tensor: "a" and "e" would be updated first
    with pytest.raises(NonFiniteGradient):
        adam_step(params, grads, state)
    assert_unchanged(params, state, before, 2)
    assert state["live"]["e"].tolist() == [True, True, False, False, False, False]


@pytest.mark.parametrize("grad, error", [
    (row_grad([1, 2], np.ones((2, 3)), (6, 4)), ShapeMismatch),
    (row_grad([1, 2], np.ones((2, 4)), (6, 3)), ShapeMismatch),
    (row_grad([1, 2], np.ones((3, 3)), (6, 3)), ShapeMismatch),
    (row_grad([2, 1], np.ones((2, 3)), (6, 3)), ShapeMismatch),
    (row_grad([1, 1], np.ones((2, 3)), (6, 3)), ShapeMismatch),
    (row_grad([-1, 2], np.ones((2, 3)), (6, 3)), ShapeMismatch),
    (row_grad([1, 6], np.ones((2, 3)), (6, 3)), ShapeMismatch),
    (RowGrad(np.array([1.0, 2.0]), np.ones((2, 3)), (6, 3)), ShapeMismatch),
    (row_grad([1, 2], [[1.0, np.nan, 1.0], [1.0, 1.0, 1.0]], (6, 3)), NonFiniteGradient),
], ids=["shape", "values_width", "values_rows", "unsorted", "repeated", "negative",
        "past_end", "float_rows", "non_finite"])
def test_adam_rejects_a_malformed_row_grad_up_front(grad, error):
    rng = np.random.default_rng(13)
    params = {"a": rng.standard_normal(8).astype(np.float32),
              "e": rng.standard_normal((6, 3)).astype(np.float32)}
    state = new_adam_state(params)
    adam_step(params, {"a": np.ones(8, dtype=np.float32),
                       "e": row_grad([0], np.ones((1, 3), dtype=np.float32), (6, 3))}, state)
    before = adam_snapshot(params, state)
    with pytest.raises(error):
        adam_step(params, {"a": np.ones(8, dtype=np.float32), "e": grad}, state)
    assert_unchanged(params, state, before, 1)


def test_adam_rejects_non_contiguous_tensor():
    base = np.ones((4, 6), dtype=np.float32)
    params = {"w": base[:, ::2]}     # a strided view: a flat reshape would copy
    state = new_adam_state(params)
    with pytest.raises(ValueError, match="C-contiguous"):
        adam_step(params, {"w": np.ones((4, 3), dtype=np.float32)}, state)
    assert state["t"] == 0
    assert np.all(base == 1)


def test_adam_zero_gradient_keeps_params():
    params = {"w": np.ones((3, 3), dtype=np.float32)}
    state = new_adam_state(params)
    before = params["w"].copy()
    adam_step(params, {"w": np.zeros((3, 3), dtype=np.float32)}, state, lr=0.1)
    assert np.array_equal(params["w"], before)


def test_adam_constant_gradient_approaches_lr_sign():
    params = {"w": np.zeros(4, dtype=np.float64)}
    state = new_adam_state(params)
    g = np.array([0.5, -2.0, 3.0, -0.01])
    prev = params["w"].copy()
    lr = 1e-3
    for _ in range(500):
        prev = params["w"].copy()
        adam_step(params, {"w": g}, state, lr=lr)
    step = params["w"] - prev
    assert np.allclose(step, -lr * np.sign(g), atol=1e-6)


def test_adam_deterministic_bit_identical():
    def run():
        tower = small_style(seed=3, dtype=np.float32)
        state = new_adam_state(tower.params)
        x = np.random.default_rng(4).random((4, 34)).astype(np.float32)
        for _ in range(10):
            cache = {}
            out = tower.forward(x, cache)
            grads = tower.backward(cache, out)  # quadratic pseudo-loss
            adam_step(tower.params, grads, state, lr=1e-3)
        return {k: v.copy() for k, v in tower.params.items()}

    a, b = run(), run()
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_adam_rejects_non_finite_and_names_tensor():
    params = {"ok": np.ones(2, dtype=np.float32), "bad": np.ones(2, dtype=np.float32)}
    state = new_adam_state(params)
    grads = {"ok": np.ones(2, dtype=np.float32),
             "bad": np.array([1.0, np.nan], dtype=np.float32)}
    before = {k: v.copy() for k, v in params.items()}
    with pytest.raises(NonFiniteGradient) as exc:
        adam_step(params, grads, state, lr=0.1)
    assert exc.value.tensor_name == "bad"
    assert all(np.array_equal(params[k], before[k]) for k in params)  # aborted


# -- checkpoints --------------------------------------------------------------------


def fresh_model(seed=0):
    return EncoderModel(
        style=StyleTower(seed=seed, layers=(34, 8, 8, 8, 16)),
        code=CodeTower(seed=seed + 1, vocab=64, embed_dim=8, hidden_dim=8,
                       out_dim=16, hash_seed=seed),
    )


def test_checkpoint_round_trip_forward_bit_identical(tmp_path):
    for seed in range(10):
        model = fresh_model(seed)
        x = np.random.default_rng(seed).random((2, 34)).astype(np.float32)
        before = model.style.forward(x)
        toks = lex("def f(a):\n    return a + 1")
        code_before = model.code.forward([model.code.bucket_ids(toks)])[0]
        path = tmp_path / f"m{seed}.ckpt"
        checkpoint.save(model, path)
        loaded = checkpoint.load(path)
        assert np.array_equal(loaded.style.forward(x), before)
        assert np.array_equal(loaded.code.forward([loaded.code.bucket_ids(toks)])[0],
                              code_before)


def test_checkpoint_loads_writeable_tensors_that_own_their_memory(tmp_path):
    """Each loaded tensor is an array of its own, as a freshly built
    tower's is: not a read-only view of a buffer the file was read into."""
    path = tmp_path / "m.ckpt"
    checkpoint.save(fresh_model(4), path)
    loaded = checkpoint.load(path)
    for tensor in [*loaded.style.params.values(), *loaded.code.params.values()]:
        assert tensor.flags.writeable
        assert (tensor if tensor.base is None else tensor.base).flags.owndata


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    model = fresh_model(3)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    checkpoint.save(model, p1)
    checkpoint.save(checkpoint.load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    checkpoint.save(fresh_model(), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(checkpoint.BadMagic):
        checkpoint.load(path)


def test_checkpoint_truncated_blob(tmp_path):
    path = tmp_path / "m.ckpt"
    checkpoint.save(fresh_model(), path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(checkpoint.TruncatedBlob):
        checkpoint.load(path)


def _edit_header(path, edit):
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[4:8])
    header = edit(json.loads(data[8:8 + hlen]))
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(data[:4] + struct.pack("<I", len(raw)) + raw + data[8 + hlen:])


def test_checkpoint_caps_mismatch(tmp_path):
    path = tmp_path / "m.ckpt"
    checkpoint.save(fresh_model(), path)
    _edit_header(path, lambda header: {**header, "caps": {**header["caps"], "name_length": 99.0}})
    with pytest.raises(checkpoint.SchemaVersionMismatch):
        checkpoint.load(path)


def _without_code_b2(header):
    header["tensors"] = [e for e in header["tensors"] if e["name"] != "code.b2"]
    return header


def _emb_listed_twice(header):
    header["tensors"].append(header["tensors"][0])
    return header


def _code_dims(**dims):
    def edit(header):
        header["dims"]["code"].update(dims)
        for entry in header["tensors"]:
            if entry["name"] == "code.emb":
                entry["shape"] = [dims.get("vocab", 64), dims.get("embed_dim", 8)]
        return header
    return edit


def _hash_seed(value):
    return lambda header: {**header, "hash_seed": value}


def _first_two_swapped(header):
    header["tensors"][:2] = header["tensors"][1::-1]
    return header


def _style_b1_as_f8(header):
    assert header["tensors"][0]["name"] == "style.b1"
    header["tensors"][0]["dtype"] = "<f8"
    return header


def _follow_manifest(path, model):
    """Rewrite the payload as ``model``'s tensors in the order and dtypes of
    the file's manifest, so that only the manifest differs from ``save``'s."""
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[4:8])
    towers = {"style": model.style.params, "code": model.code.params}
    payload = b"".join(
        towers[prefix][name].astype(entry["dtype"]).tobytes()
        for entry in json.loads(data[8:8 + hlen])["tensors"]
        for prefix, name in [entry["name"].split(".", 1)])
    path.write_bytes(data[:8 + hlen] + payload)


BAD_LAYOUTS = {
    "tensor_missing": (_without_code_b2, checkpoint.SchemaVersionMismatch),
    "tensor_listed_twice": (_emb_listed_twice, checkpoint.SchemaVersionMismatch),
    "vocab_negative": (_code_dims(vocab=-64), checkpoint.MalformedHeader),
    "vocab_not_an_int": (_code_dims(vocab=64.5), checkpoint.MalformedHeader),
    "hash_seed_negative": (_hash_seed(-1), checkpoint.MalformedHeader),
    "hash_seed_not_a_number": (_hash_seed("x"), checkpoint.MalformedHeader),
    "vocab_larger_than_the_file": (_code_dims(vocab=65), checkpoint.TruncatedBlob),
    "manifest_reordered": (_first_two_swapped, checkpoint.SchemaVersionMismatch),
    "manifest_mixed_dtypes": (_style_b1_as_f8, checkpoint.SchemaVersionMismatch),
}
# Manifests that ``save`` never writes, with a payload that follows them:
# a loader that read each entry on its own terms would accept both.
PAYLOAD_FOLLOWS = {"manifest_reordered", "manifest_mixed_dtypes"}


@pytest.mark.parametrize("case", sorted(BAD_LAYOUTS))
def test_checkpoint_bad_layout(tmp_path, case):
    edit, error = BAD_LAYOUTS[case]
    path = tmp_path / "m.ckpt"
    model = fresh_model()
    checkpoint.save(model, path)
    _edit_header(path, edit)
    if case in PAYLOAD_FOLLOWS:
        _follow_manifest(path, model)
    with pytest.raises(error):
        checkpoint.load(path)


def _no_draws(*args, **kwargs):
    raise AssertionError("random numbers were drawn")


def test_checkpoint_load_draws_no_random_weights(tmp_path, monkeypatch):
    model = fresh_model(2)
    path = tmp_path / "m.ckpt"
    checkpoint.save(model, path)
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    loaded = checkpoint.load(path)
    for tower, other in ((model.style, loaded.style), (model.code, loaded.code)):
        assert list(tower.params) == list(other.params)
        assert all(np.array_equal(tower.params[k], other.params[k]) for k in tower.params)
    assert loaded.code.hash_seed == model.code.hash_seed


def test_checkpoint_huge_declared_size_fails_before_allocating(tmp_path):
    path = tmp_path / "m.ckpt"
    checkpoint.save(fresh_model(), path)
    # 100,000 x 128 weights: about 51 MB as float32, and the file holds 7 KB.
    _edit_header(path, _code_dims(vocab=100_000, embed_dim=128))
    _edit_header(path, lambda header: {**header, "tensors": [
        {**e, "shape": [8, 128]} if e["name"] == "code.w1" else e
        for e in header["tensors"]]})
    tracemalloc.start()
    try:
        with pytest.raises(checkpoint.TruncatedBlob):
            checkpoint.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_checkpoint_float64_round_trip_byte_identical(tmp_path):
    model = EncoderModel(style=StyleTower(seed=5, layers=(34, 8, 8, 8, 16), dtype=np.float64),
                         code=CodeTower(seed=6, vocab=64, embed_dim=8, hidden_dim=8,
                                        out_dim=16, hash_seed=5, dtype=np.float64))
    checkpoint.save(model, tmp_path / "a.ckpt")
    loaded = checkpoint.load(tmp_path / "a.ckpt")
    assert loaded.style.dtype == loaded.code.dtype == np.float64
    assert all(p.dtype == np.float64 for tower in (loaded.style, loaded.code)
               for p in tower.params.values())
    checkpoint.save(loaded, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_save_refuses_towers_of_different_dtypes(tmp_path):
    model = EncoderModel(style=StyleTower(seed=0, layers=(34, 8, 8, 8, 16), dtype=np.float64),
                         code=fresh_model().code)
    with pytest.raises(ValueError, match="dtypes differ"):
        checkpoint.save(model, tmp_path / "m.ckpt")
    assert not (tmp_path / "m.ckpt").exists()


# -- building a tower from given parameters ---------------------------------------


TOWER_SIZES = {
    "style": (StyleTower, {"layers": (34, 8, 8, 8, 16)}),
    "code": (CodeTower, {"vocab": 32, "embed_dim": 6, "hidden_dim": 8, "out_dim": 10}),
}


@pytest.mark.parametrize("kind", sorted(TOWER_SIZES))
def test_tower_given_params_holds_them_and_draws_nothing(monkeypatch, kind):
    cls, sizes = TOWER_SIZES[kind]
    params = cls(seed=3, **sizes).params
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    tower = cls(**sizes, params=dict(reversed(params.items())))
    assert list(tower.params) == list(params)       # creation order, whatever was given
    assert all(tower.params[name] is params[name] for name in params)


@pytest.mark.parametrize("fault", ["missing", "wrong_shape", "extra"])
@pytest.mark.parametrize("kind", sorted(TOWER_SIZES))
def test_tower_given_params_that_do_not_fit_raise(kind, fault):
    cls, sizes = TOWER_SIZES[kind]
    params = dict(cls(seed=3, **sizes).params)
    name = next(iter(params))
    if fault == "missing":
        del params[name]
    elif fault == "wrong_shape":
        params[name] = params[name][:-1]
    else:
        params["extra"] = params[name]
    with pytest.raises(ShapeMismatch):
        cls(**sizes, params=params)
