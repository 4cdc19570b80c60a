"""Dense towers with hand-written backprop on numpy arrays.

Two encoders share one 1024-dim embedding space:

* ``StyleTower`` maps the 34-dim style vector through a 4-layer MLP
  (34 -> 128 -> 512 -> 768 -> 1024, ReLU after each hidden layer) plus a
  learned 512 -> 1024 projection of the second hidden activation added to
  the output pre-activation. The residual is a projection because the
  bridged dimensions differ, so an identity shortcut cannot exist.
* ``CodeTower`` hashes tokens into an 8192-bucket embedding table
  (128-dim), mean-pools, then projects 128 -> 512 -> 1024 with one ReLU.

Each tower has one constructor. Without ``params`` it draws seeded
weights; with ``params`` it holds those arrays, which must have exactly the
shapes ``param_shapes`` gives for its sizes, and draws nothing (a
checkpoint load builds its towers this way).

Training runs in float32; float64 is for gradient checking. Forward
passes are deterministic for fixed weights and inputs.

``adam_step`` is cache-blocked: it updates params and moments in place,
``ADAM_BLOCK`` elements at a time, so one slice of params, gradient, both
moments and two scratch buffers stays in L2 across the update's dozen
elementwise passes. It runs the same float operations in the same order as
a whole-tensor update, so its results are bit-exact, at any block size.

The ``emb`` gradient is a :class:`RowGrad` of the batch's rows, and Adam
updates only rows that ever had one: any other row has zero moments, and
``p -= lr * 0 / (0 + eps)`` leaves it as it is, so this is bit-exact. Live
rows a batch skips still decay as in dense Adam (not LazyAdam). Past
``ADAM_SPARSE_SHARE`` of the rows live, the dense update is faster and runs.

The towers share no array, so each step of ``contrastive.train`` is two
phases, the forwards and then each tower's backward and ``adam_step``, and
where both towers' BLAS threads fit on the CPUs a forked worker process runs
the code tower's side of each, plus the ``adam_step`` of some style tower
tensors (``contrastive.WORKER_SHARE``). ``adam_step`` updates each tensor on
its own, elementwise, so splitting one step's tensors between two calls with
the same step count ``t`` is bit-exact. No state lives outside a tower's own
params and Adam state, and each side's operations keep their order, so
results are bit-identical to running the towers in turn. Retrieval's
embedding follows the same rule from ``_fork.BESIDE_MIN_ROWS`` rows: a
forked child runs ``CodeTower.embed_rows`` while the caller runs the style
forward, so 1000 held-out pairs embed in 55.6 ms, not 77.7 ms in turn.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .lexer import InputError, Token


# Elements per Adam slice (128 KB of float32): with the gradient, both
# moments and two scratch buffers that is about 768 KB, inside a 2 MB L2.
# Median step over both towers' 3.4M float32 params on a 2-core Xeon
# (2 MB L2), numpy 2.4: 8K 23.0 ms, 16K 18.5, 32K 16.0, 64K 16.3,
# 128K 17.2; the whole-tensor update took 26-31 ms.
ADAM_BLOCK = 32_768
# Past this share of live rows, Adam updates a ``RowGrad`` tensor densely. Median
# ``emb`` step (8192 x 128 float32, the host above), rows: gathered vs dense ms:
# 646 0.79 vs 4.29, 2048 2.12 vs 4.31, 4096 3.93 vs 4.21, 4352 4.09 vs 4.00.
ADAM_SPARSE_SHARE = 0.5
# A token's hash key, read in C: hashing the enum would run ``Enum.__hash__``.
_BUCKET_KEY = operator.attrgetter("kind._value_", "text")


class DimensionMismatch(InputError, ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


class EmptyTokenStream(InputError, ValueError):
    pass


class NonFiniteGradient(RuntimeError):
    def __init__(self, tensor_name: str):
        super().__init__(f"non-finite gradient in tensor {tensor_name!r}")
        self.tensor_name = tensor_name

    def __reduce__(self):
        return type(self), (self.tensor_name,)


@dataclass(frozen=True, eq=False)
class RowGrad:
    """A ``shape`` gradient that is zero but for row ``rows[i]``, which is
    ``values[i]``; ``rows`` are sorted and unique. ``np.asarray`` densifies."""
    rows: np.ndarray
    values: np.ndarray
    shape: tuple[int, ...]

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, self.values.dtype if dtype is None else dtype)
        dense[self.rows] = self.values
        return dense


def _positive_dims(sizes) -> tuple[int, ...]:
    """Layer sizes as ints, each at least 1 (a float or a string raises)."""
    sizes = tuple(operator.index(x) for x in sizes)
    if min(sizes, default=1) < 1:
        raise ValueError(f"layer sizes must be positive, got {sizes}")
    return sizes


def _fitted(params: dict[str, np.ndarray], shapes: dict) -> dict[str, np.ndarray]:
    """``params`` in the creation order of ``shapes``, which they must fit."""
    got = {name: arr.shape for name, arr in params.items()}
    if got != shapes:
        raise ShapeMismatch(f"parameters {got} do not fit the sizes {shapes}")
    return {name: params[name] for name in shapes}


def _kaiming_uniform(rng: np.random.Generator, fan_in: int, shape, dtype):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class StyleTower:
    """Eq-style MLP encoder for normalized style vectors."""

    DEFAULT_LAYERS = (34, 128, 512, 768, 1024)

    def __init__(self, seed: int = 0, layers=DEFAULT_LAYERS, dtype=np.float32,
                 params: dict[str, np.ndarray] | None = None):
        self.layers = _positive_dims(layers)
        self.dtype = np.dtype(dtype)
        shapes = self.param_shapes(self.layers)
        if params is not None:
            self.params = _fitted(params, shapes)
            return
        rng = np.random.default_rng(seed)
        # w1..w4, then the residual projection wr from the second hidden
        # activation; biases start at zero.
        self.params: dict[str, np.ndarray] = {
            name: (_kaiming_uniform(rng, shape[1], shape, self.dtype) if len(shape) == 2
                   else np.zeros(shape, dtype=self.dtype))
            for name, shape in shapes.items()
        }

    @staticmethod
    def param_shapes(layers) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape, in creation order; checks the sizes."""
        layers = _positive_dims(layers)
        if len(layers) != 5:
            raise ValueError("StyleTower takes exactly five layer sizes")
        shapes = {}
        for i, (din, dout) in enumerate(zip(layers, layers[1:]), start=1):
            shapes[f"w{i}"] = (dout, din)
            shapes[f"b{i}"] = (dout,)
        shapes["wr"] = (layers[4], layers[2])
        shapes["br"] = (layers[4],)
        return shapes

    @property
    def out_dim(self) -> int:
        return self.layers[-1]

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    @staticmethod
    def analytic_param_count(layers) -> int:
        stack = sum(din * dout + dout for din, dout in zip(layers, layers[1:]))
        return stack + layers[2] * layers[4] + layers[4]

    def forward(self, s: np.ndarray, cache: dict | None = None) -> np.ndarray:
        s = np.asarray(s, dtype=self.dtype)
        squeeze = s.ndim == 1
        if squeeze:
            s = s[None, :]
        if s.shape[1] != self.layers[0]:
            raise DimensionMismatch(f"expected {self.layers[0]} features, got {s.shape[1]}")
        p = self.params
        z1 = s @ p["w1"].T + p["b1"]
        h1 = np.maximum(z1, 0)
        z2 = h1 @ p["w2"].T + p["b2"]
        h2 = np.maximum(z2, 0)
        z3 = h2 @ p["w3"].T + p["b3"]
        h3 = np.maximum(z3, 0)
        out = h3 @ p["w4"].T + p["b4"] + h2 @ p["wr"].T + p["br"]
        if cache is not None:
            cache.update(s=s, z1=z1, h1=h1, z2=z2, h2=h2, z3=z3, h3=h3)
        return out[0] if squeeze else out

    def backward(self, cache: dict, dout: np.ndarray) -> dict[str, np.ndarray]:
        dout = np.asarray(dout, dtype=self.dtype)
        if dout.ndim == 1:
            dout = dout[None, :]
        if dout.shape != (cache["s"].shape[0], self.out_dim):
            raise ShapeMismatch(f"upstream gradient has shape {dout.shape}")
        p = self.params
        s, z1, h1, z2, h2, z3, h3 = (
            cache["s"], cache["z1"], cache["h1"], cache["z2"],
            cache["h2"], cache["z3"], cache["h3"],
        )
        grads = {}
        grads["w4"] = dout.T @ h3
        grads["b4"] = dout.sum(axis=0)
        grads["wr"] = dout.T @ h2
        grads["br"] = grads["b4"].copy()
        dh3 = dout @ p["w4"]
        dz3 = dh3 * (z3 > 0)
        grads["w3"] = dz3.T @ h2
        grads["b3"] = dz3.sum(axis=0)
        dh2 = dz3 @ p["w3"] + dout @ p["wr"]
        dz2 = dh2 * (z2 > 0)
        grads["w2"] = dz2.T @ h1
        grads["b2"] = dz2.sum(axis=0)
        dh1 = dz2 @ p["w2"]
        dz1 = dh1 * (z1 > 0)
        grads["w1"] = dz1.T @ s
        grads["b1"] = dz1.sum(axis=0)
        return grads


class CodeTower:
    """Hash-embedding encoder for token streams.

    Tokens are bucketed by a keyed blake2b hash of ``kind:text`` so the
    mapping is stable across processes for a fixed ``hash_seed``.
    """

    def __init__(self, seed: int = 0, vocab: int = 8192, embed_dim: int = 128,
                 hidden_dim: int = 512, out_dim: int = 1024, hash_seed: int = 0,
                 dtype=np.float32, params: dict[str, np.ndarray] | None = None):
        dims = _positive_dims((vocab, embed_dim, hidden_dim, out_dim))
        self.vocab, self.embed_dim, self.hidden_dim, self.out_dim = dims
        self.hash_seed = hash_seed
        # the blake2b key of ``bucket``; a seed outside [0, 2**64) raises
        self._key = int(hash_seed).to_bytes(8, "little", signed=False)
        self.dtype = np.dtype(dtype)
        shapes = self.param_shapes(*dims)
        if params is not None:
            self.params = _fitted(params, shapes)
            return
        rng = np.random.default_rng(seed)
        self.params = {
            "emb": (rng.uniform(-1.0, 1.0, size=(vocab, embed_dim))
                    / np.sqrt(embed_dim)).astype(self.dtype),
            "w1": _kaiming_uniform(rng, embed_dim, (hidden_dim, embed_dim), self.dtype),
            "b1": np.zeros(hidden_dim, dtype=self.dtype),
            "w2": _kaiming_uniform(rng, hidden_dim, (out_dim, hidden_dim), self.dtype),
            "b2": np.zeros(out_dim, dtype=self.dtype),
        }

    @staticmethod
    def param_shapes(vocab: int, embed_dim: int, hidden_dim: int,
                     out_dim: int) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape, in creation order; checks the sizes."""
        vocab, embed_dim, hidden_dim, out_dim = _positive_dims(
            (vocab, embed_dim, hidden_dim, out_dim))
        return {"emb": (vocab, embed_dim), "w1": (hidden_dim, embed_dim),
                "b1": (hidden_dim,), "w2": (out_dim, hidden_dim), "b2": (out_dim,)}

    def bucket(self, kind: str, text: str) -> int:
        digest = hashlib.blake2b(
            f"{kind}:{text}".encode("utf-8"), digest_size=8, key=self._key
        ).digest()
        return int.from_bytes(digest, "little") % self.vocab

    def bucket_ids(self, tokens: list[Token]) -> np.ndarray:
        (ids,) = self.bucket_ids_batch([tokens])
        if isinstance(ids, InputError):
            raise ids
        return ids

    def bucket_ids_batch(self, token_lists) -> list:
        """:meth:`bucket_ids` of each list, with each distinct ``(kind, text)``
        of the batch hashed once, by a memo that lives for this call. A list is
        kept only as codes (where the batch first had each token's key), so an
        iterator that lexes as it goes holds one text's tokens at a time. An
        ``InputError`` item stays in place, as does the :class:`EmptyTokenStream`
        of a list without a real token."""
        first: dict[tuple[str, str], int] = {}
        places = itertools.count()
        codes = []
        for tokens in token_lists:
            if not isinstance(tokens, InputError) and all(map(Token.is_synthetic, tokens)):
                tokens = EmptyTokenStream("code tower needs at least one real token")
            codes.append(tokens if isinstance(tokens, InputError) else np.fromiter(
                map(first.setdefault, map(_BUCKET_KEY, tokens), places), np.int64, len(tokens)))
        buckets = np.zeros(next(places), dtype=np.int64)
        buckets[list(first.values())] = [self.bucket(*key) for key in first]
        for c in codes:
            if not isinstance(c, InputError):
                c[:] = buckets[c]   # in place: one text's copy at a time
        return codes

    def _pool(self, ids_batch: list[np.ndarray]) -> np.ndarray:
        return np.stack([self.params["emb"][ids].mean(axis=0)
                         for ids in ids_batch]).astype(self.dtype)

    def forward(self, ids_batch: list[np.ndarray], cache: dict | None = None) -> np.ndarray:
        pooled = self._pool(ids_batch)
        z1 = pooled @ self.params["w1"].T + self.params["b1"]
        h1 = np.maximum(z1, 0)
        out = h1 @ self.params["w2"].T + self.params["b2"]
        if cache is not None:
            cache.update(ids_batch=ids_batch, pooled=pooled, z1=z1, h1=h1)
        return out

    def embed_rows(self, ids_batch: list[np.ndarray]) -> np.ndarray:
        """``forward([ids])[0]`` of each ``ids``, bit for bit, as the rows of
        one pass. A batched ``forward`` differs: numpy runs a one-row product
        as BLAS gemv and a larger one as gemm, which sums in another order.
        The stacked ``(n, 1, k)`` products here run one gemv per row."""
        p = self.params
        h1 = np.maximum(self._pool(ids_batch)[:, None, :] @ p["w1"].T + p["b1"], 0)
        return (h1 @ p["w2"].T + p["b2"])[:, 0]

    def backward(self, cache: dict, dout: np.ndarray) -> dict[str, np.ndarray]:
        dout = np.asarray(dout, dtype=self.dtype)
        if dout.shape != (len(cache["ids_batch"]), self.out_dim):
            raise ShapeMismatch(f"upstream gradient has shape {dout.shape}")
        p = self.params
        pooled, z1, h1 = cache["pooled"], cache["z1"], cache["h1"]
        grads = {}
        grads["w2"] = dout.T @ h1
        grads["b2"] = dout.sum(axis=0)
        dh1 = dout @ p["w2"]
        dz1 = dh1 * (z1 > 0)
        grads["w1"] = dz1.T @ pooled
        grads["b1"] = dz1.sum(axis=0)
        dpooled = dz1 @ p["w1"]
        # One scatter over the batch's ids in row order, so every element
        # sums its contributions in the same order as a per-row loop. It
        # runs on the batch's rows, flat, where numpy's 1-D ``add.at`` is fastest.
        ids_batch = cache["ids_batch"]
        counts = [len(ids) for ids in ids_batch]
        terms = np.repeat(dpooled / np.asarray(counts, dtype=self.dtype)[:, None],
                          counts, axis=0)
        rows, slot = np.unique(np.concatenate(ids_batch), return_inverse=True)
        cells = slot[:, None] * self.embed_dim + np.arange(self.embed_dim)
        values = np.zeros((rows.size, self.embed_dim), dtype=self.dtype)
        np.add.at(values.reshape(-1), cells.reshape(-1), terms.reshape(-1))
        grads["emb"] = RowGrad(rows, values, p["emb"].shape)
        return grads


@dataclass
class EncoderModel:
    """The trained pair of towers; the hashing seed is ``code.hash_seed``."""
    style: StyleTower
    code: CodeTower


def l2_normalize(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(norms, eps)


def l2_normalize_backward(x: np.ndarray, dy: np.ndarray, eps: float = 1e-12):
    """Gradient of y = x / ||x|| given upstream dy (row-wise)."""
    norms = np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), eps)
    y = x / norms
    return (dy - y * np.sum(y * dy, axis=-1, keepdims=True)) / norms


def new_adam_state(params: dict[str, np.ndarray]) -> dict:
    """Step count, moments, and per tensor the rows that ever had a gradient."""
    return {
        "t": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
        "live": {k: np.zeros(v.shape[:1], dtype=bool) for k, v in params.items()},
    }


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray | RowGrad],
              state: dict, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> dict[str, np.ndarray]:
    """One in-place Adam update; rejects bad input up front, so a rejected
    step changes nothing.

    Each tensor is updated ``ADAM_BLOCK`` elements at a time through flat
    views, with two scratch buffers per dtype for the whole call. For a
    :class:`RowGrad` that is only the rows that ever had a gradient.
    """
    for name, p in params.items():
        if name not in grads:
            raise ShapeMismatch(f"missing gradient for {name!r}")
        g = grads[name]
        if tuple(g.shape) != p.shape:
            raise ShapeMismatch(f"gradient {name!r}: {g.shape} vs {p.shape}")
        if not all(a.flags.c_contiguous for a in (p, state["m"][name], state["v"][name])):
            raise ValueError(f"tensor {name!r} or its moments are not C-contiguous")
        if isinstance(g, RowGrad):
            rows = np.asarray(g.rows)
            if not (p.ndim and rows.ndim == 1 and rows.dtype.kind in "iu"
                    and np.shape(g.values) == (rows.size, *p.shape[1:])
                    and np.all(rows[1:] > rows[:-1]) and np.all((rows >= 0) & (rows < len(p)))):
                raise ShapeMismatch(f"gradient {name!r}: malformed rows or values for {p.shape}")
            g = g.values
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(name)
    state["t"] += 1
    t = state["t"]
    c1 = 1 - beta1 ** t
    c2 = 1 - beta2 ** t
    size = min(ADAM_BLOCK, max((p.size for p in params.values()), default=0))
    scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}

    def update(p, m, v, g):
        if p.dtype not in scratch:
            scratch[p.dtype] = (np.empty(size, p.dtype), np.empty(size, p.dtype))
        buf_a, buf_b = scratch[p.dtype]
        gf, pf, mf, vf = (x.reshape(-1) for x in (g, p, m, v))
        for lo in range(0, p.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, p.size)
            gs, ps, ms, vs = gf[lo:hi], pf[lo:hi], mf[lo:hi], vf[lo:hi]
            a, b = buf_a[:hi - lo], buf_b[:hi - lo]
            ms *= beta1                            # m = b1 m + (1 - b1) g
            np.multiply(gs, 1 - beta1, out=a)
            ms += a
            vs *= beta2                            # v = b2 v + (1 - b2) g^2
            np.square(gs, out=a)
            a *= 1 - beta2
            vs += a
            np.divide(ms, c1, out=a)               # m_hat
            np.divide(vs, c2, out=b)               # v_hat
            np.sqrt(b, out=b)
            b += eps
            a *= lr                                # p -= lr m_hat / (sqrt(v_hat) + eps)
            a /= b
            ps -= a

    for name, p in params.items():
        g, m, v, live = grads[name], state["m"][name], state["v"][name], state["live"][name]
        sparse = isinstance(g, RowGrad)
        live[g.rows if sparse else ...] = True
        rows = np.flatnonzero(live)
        if not sparse or rows.size > ADAM_SPARSE_SHARE * live.size:
            update(p, m, v, np.asarray(g, dtype=p.dtype))
            continue
        compact = np.zeros((rows.size, *p.shape[1:]), dtype=p.dtype)
        compact[np.searchsorted(rows, g.rows)] = g.values
        ps, ms, vs = p[rows], m[rows], v[rows]
        update(ps, ms, vs, compact)
        p[rows], m[rows], v[rows] = ps, ms, vs
    return params
