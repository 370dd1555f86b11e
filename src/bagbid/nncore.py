"""Double-precision neural-net kernels with explicit backward passes.

Everything here is plain numpy float64: affine, layer norm, GELU, causal
self-attention, embedding lookup, a bias-corrected Adam step, and a
central-difference gradient checker.  No graphs, no broadcasting magic
beyond a leading batch dimension; each op caches what its backward needs
and training is bitwise deterministic for a fixed seed.

The ops are written to make few passes over memory.  Affine ops run one
2-D GEMM over the flattened leading dims.  Causal attention projects q, k
and v with one GEMM over ``wq|wk|wv`` concatenated at call time (the
parameters keep their names, so checkpoints are unchanged) and is
block-causal: queries go in blocks of ``ATTN_BLOCK`` rows, each block
scores only the keys at or before its last row, and only its diagonal
square is masked, so the fully masked upper blocks cost nothing in
either direction.  The same attention forward takes an optional per-layer
key/value cache, so KV-cached inference runs the training kernels on the
tokens it has not fed yet.

Checkpoints (version 2) are one JSON object: ``format``, ``version``,
``meta`` and, per parameter name, its ``shape`` and its ``data`` as base64
of the little-endian float64 bytes in C order.  The bytes round-trip every
value bitwise (signed zeros, subnormals and infinities included), saving
the same parameters twice writes the same file, and loading costs a
base64 decode instead of parsing a float list.  ``load_payload`` raises
``CheckpointError`` for a file of another format or version (version 1
stored float lists and is no longer read) and for data that does not fill
its shape.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from bagbid.trajectory import atomic_write_text

CHECKPOINT_FORMAT = "bagbid-checkpoint"
CHECKPOINT_VERSION = 2
_CHECKPOINT_DTYPE = np.dtype("<f8")


class CheckpointError(ValueError):
    """A checkpoint file this version cannot read."""


class NonFiniteGradientError(RuntimeError):
    """A parameter gradient contained NaN or inf; the update was rejected."""


class ShapeError(ValueError):
    pass


class Parameter:
    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


class ParameterSet:
    """Named parameters with paired gradient and Adam moment buffers."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}
        self.adam_t = 0

    def add(self, name: str, value) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Parameter(value)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for p in self._params.values():
            p.grad[...] = 0.0

    @property
    def size(self) -> int:
        return sum(p.value.size for p in self._params.values())

    def all_finite(self) -> bool:
        return all(np.isfinite(p.value).all() for p in self._params.values())

    def state_dict(self):
        return {name: p.value.copy() for name, p in self._params.items()}

    def load_state_dict(self, state):
        for name, p in self._params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.value.shape:
                raise ShapeError(
                    f"{name}: checkpoint shape {arr.shape} != {p.value.shape}"
                )
            p.value[...] = arr

    def save(self, path, meta: dict | None = None):
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "meta": meta or {},
            "params": {
                name: {
                    "shape": list(p.value.shape),
                    "data": base64.b64encode(
                        p.value.astype(_CHECKPOINT_DTYPE, copy=False).tobytes()
                    ).decode("ascii"),
                }
                for name, p in self._params.items()
            },
        }
        atomic_write_text(path, json.dumps(payload, separators=(",", ":")))

    @staticmethod
    def load_payload(path) -> tuple[dict, dict]:
        """Read a checkpoint file into ({name: array}, meta)."""
        with open(path) as f:
            payload = json.load(f)
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
        version = payload.get("version")
        if version == 1:
            raise CheckpointError(
                f"{path} is a version 1 checkpoint, which this version no longer "
                f"reads; retrain with `bagbid train`"
            )
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
        state = {}
        for name, rec in payload["params"].items():
            shape = tuple(rec["shape"])
            try:
                raw = base64.b64decode(rec["data"], validate=True)
            except ValueError as e:  # binascii.Error or non-ASCII text
                raise CheckpointError(f"{path}: {name}: bad data ({e})") from None
            if len(raw) != _CHECKPOINT_DTYPE.itemsize * math.prod(shape):
                raise CheckpointError(
                    f"{path}: {name}: {len(raw)} bytes do not fill shape {shape}"
                )
            state[name] = np.frombuffer(raw, dtype=_CHECKPOINT_DTYPE).astype(
                np.float64).reshape(shape)
        return state, payload.get("meta", {})


def adam_step(params: ParameterSet, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update over every parameter.

    Rejects the whole step (raises, no state mutated) when any gradient is
    non-finite.
    """
    for name, p in params.items():
        if not np.isfinite(p.grad).all():
            raise NonFiniteGradientError(f"non-finite gradient for {name!r}")
    params.adam_t += 1
    t = params.adam_t
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        m = params._adam_m.get(name)
        if m is None:
            m = params._adam_m[name] = np.zeros_like(p.value)
        v = params._adam_v.get(name)
        if v is None:
            v = params._adam_v[name] = np.zeros_like(p.value)
        m *= beta1
        m += (1.0 - beta1) * p.grad
        v *= beta2
        v += (1.0 - beta2) * np.square(p.grad)
        p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ---------------------------------------------------------------------------
# functional ops: forward returns (y, cache), backward consumes cache
# ---------------------------------------------------------------------------


def affine_forward(x, w, b):
    """``x @ w + b`` over the last axis as one 2-D GEMM on the flattened
    leading dims (numpy would otherwise loop a batched matmul over them)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"inner dims disagree: {x.shape} @ {w.shape}")
    x2 = x.reshape(-1, x.shape[-1])
    y = x2 @ w
    y += b
    return y.reshape(*x.shape[:-1], w.shape[1]), (x2, w, x.shape)


def affine_backward(dy, cache):
    x2, w, x_shape = cache
    dy2 = dy.reshape(-1, dy.shape[-1])
    dx = (dy2 @ w.T).reshape(x_shape)
    return dx, x2.T @ dy2, dy2.sum(axis=0)


def layer_norm_forward(x, gamma, beta, eps=1e-5):
    # add.reduce / d is what .mean computes, without its per-call overhead
    d = x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(np.square(xhat), axis=-1, keepdims=True) / d
    var += eps
    inv_std = 1.0 / np.sqrt(var)
    xhat *= inv_std
    y = xhat * gamma
    y += beta
    return y, (xhat, inv_std, gamma)


def layer_norm_backward(dy, cache):
    xhat, inv_std, gamma = cache
    d = xhat.shape[-1]
    t = dy * xhat
    dgamma = t.reshape(-1, d).sum(axis=0)
    dbeta = dy.reshape(-1, d).sum(axis=0)
    # dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    dxhat = dy * gamma
    t *= gamma
    np.multiply(xhat, t.mean(axis=-1, keepdims=True), out=t)
    dxhat -= dxhat.mean(axis=-1, keepdims=True)
    dxhat -= t
    dxhat *= inv_std
    return dxhat, dgamma, dbeta


_GELU_C = math.sqrt(2.0 / math.pi)
_MASK_CACHE: dict[int, np.ndarray] = {}

# Query rows per attention block.  Smaller blocks skip more masked scores
# but pay numpy call overhead per block; of 12-144 rows, 24 gave the
# fastest forward plus backward at the default model (batch 8, 144 tokens,
# 4 heads of 16) on a 2-vCPU x86 VM with OpenBLAS.
ATTN_BLOCK = 24


def _future_mask(length: int) -> np.ndarray:
    """Boolean (L, L) mask of strictly-future positions (upper triangle)."""
    mask = _MASK_CACHE.get(length)
    if mask is None:
        mask = _MASK_CACHE[length] = ~np.tril(np.ones((length, length), dtype=bool))
    return mask


def gelu_forward(x):
    """tanh-approximate GELU, ``x * h`` with ``h = (1 + tanh(u)) / 2`` and
    ``u = c (x + 0.044715 x^3)``; caches ``h`` for the backward."""
    h = x * x
    h *= _GELU_C * 0.044715
    h += _GELU_C
    h *= x
    np.tanh(h, out=h)
    h += 1.0
    h *= 0.5
    return x * h, (x, h)


def gelu_backward(dy, cache):
    # d(x h)/dx = h + x h'(x), and with 1 - tanh^2 = 4 h (1 - h):
    # x h' = x h (1 - h) * 2c (1 + 3 * 0.044715 x^2)
    x, h = cache
    g = 1.0 - h
    g *= h
    g *= x
    du = x * x
    du *= 2.0 * _GELU_C * 3.0 * 0.044715
    du += 2.0 * _GELU_C
    g *= du
    g += h
    g *= dy
    return g


def softmax(x, axis=-1):
    # ufunc reductions: the same sums as .max/.sum with less call overhead,
    # which dominates at the one- and two-token shapes of cached inference
    z = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    np.exp(z, out=z)
    s = np.add.reduce(z, axis=axis, keepdims=True)
    np.reciprocal(s, out=s)
    z *= s
    return z


def causal_attention_forward(x, wq, bq, wk, bk, wv, bv, wo, bo, n_heads, kv=None,
                             start=0):
    """Multi-head self-attention with a strict causal mask.

    ``x`` is (L, d) or (batch, L, d); output matches.  Position i attends
    to positions <= i only.  One GEMM projects q, k and v together, and
    the queries go in blocks of ``ATTN_BLOCK`` rows: block ``[lo, hi)``
    scores keys ``[0, hi)`` only and sets the future part of its diagonal
    square to -inf, so future tokens carry exactly zero weight.

    ``kv = (k_buf, v_buf)``, both (batch, heads, max_L, dh), is a key/value
    cache: ``x`` holds positions ``[start, start + L)`` of a longer
    sequence whose earlier keys and values are already in the buffers.
    The new ones are written at ``[start, start + L)`` and the queries
    also attend to everything before ``start``.  The cached call returns
    no backward cache (None).
    """
    squeezed = x.ndim == 2
    if squeezed:
        x = x[None]
    b, length, d = x.shape
    if d % n_heads != 0:
        raise ShapeError(f"model dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads

    qkv, c_qkv = affine_forward(
        x, np.concatenate([wq, wk, wv], axis=1), np.concatenate([bq, bk, bv])
    )
    # (3, b, heads, L, dh) views of the (b, L, 3, heads, dh) projection
    q, k, v = qkv.reshape(b, length, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    q *= 1.0 / math.sqrt(dh)
    if kv is not None:
        k_buf, v_buf = kv
        k_buf[:, :, start:start + length] = k
        v_buf[:, :, start:start + length] = v
        k, v = k_buf, v_buf
    merged = np.empty((b, length, n_heads, dh))
    probs = []
    for lo in range(0, length, ATTN_BLOCK):
        hi = min(lo + ATTN_BLOCK, length)
        scores = q[:, :, lo:hi] @ k[:, :, :start + hi].transpose(0, 1, 3, 2)
        np.copyto(scores[..., start + lo:], -np.inf, where=_future_mask(hi - lo))
        p = softmax(scores, axis=-1)
        merged[:, lo:hi] = (p @ v[:, :, :start + hi]).transpose(0, 2, 1, 3)
        probs.append(p)
    y, co = affine_forward(merged.reshape(b, length, d), wo, bo)
    cache = None if kv is not None else (c_qkv, co, q, k, v, probs, squeezed)
    return (y[0] if squeezed else y), cache


def causal_attention_backward(dy, cache):
    """Gradients (dx, dwq, dbq, dwk, dbk, dwv, dbv, dwo, dbo).

    Works block by block like the forward and overwrites the cached
    probabilities, so a cache serves one backward only.
    """
    c_qkv, co, q, k, v, probs, squeezed = cache
    if squeezed:
        dy = dy[None]
    b, n_heads, length, dh = q.shape
    d = n_heads * dh

    dmerged, dwo, dbo = affine_backward(dy, co)
    dctx = dmerged.reshape(b, length, n_heads, dh).transpose(0, 2, 1, 3)
    dqkv = np.zeros((b, length, 3, n_heads, dh))
    dq, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)
    for lo, p in zip(range(0, length, ATTN_BLOCK), probs):
        hi = lo + p.shape[-2]
        dc = dctx[:, :, lo:hi]
        dv[:, :, :hi] += p.transpose(0, 1, 3, 2) @ dc
        # softmax backward, in place: ds = p * dp - p * rowsum(p * dp);
        # masked entries have p = 0 and contribute nothing
        ds = dc @ v[:, :, :hi].transpose(0, 1, 3, 2)
        ds *= p
        p *= ds.sum(axis=-1, keepdims=True)
        ds -= p
        dq[:, :, lo:hi] = ds @ k[:, :, :hi]
        dk[:, :, :hi] += ds.transpose(0, 1, 3, 2) @ q[:, :, lo:hi]
    # q was scaled by 1/sqrt(dh) after its projection
    dq *= 1.0 / math.sqrt(dh)
    dx, dw, db = affine_backward(dqkv.reshape(b, length, 3 * d), c_qkv)
    if squeezed:
        dx = dx[0]
    return (dx, dw[:, :d], db[:d], dw[:, d:2 * d], db[d:2 * d],
            dw[:, 2 * d:], db[2 * d:], dwo, dbo)


def embedding_forward(table, idx):
    idx = np.asarray(idx)
    if idx.min(initial=0) < 0 or idx.max(initial=-1) >= table.shape[0]:
        raise ShapeError("embedding index out of range")
    return table[idx], (table.shape, idx)


def embedding_backward(dy, cache):
    # one (rows, N) one-hot GEMM: np.add.at's unbuffered scatter is far slower
    shape, idx = cache
    one_hot = np.equal.outer(np.arange(shape[0]), idx.reshape(-1)).astype(np.float64)
    return one_hot @ dy.reshape(-1, shape[1])


# ---------------------------------------------------------------------------
# layer wrappers used by model code
# ---------------------------------------------------------------------------


class Affine:
    def __init__(self, ps: ParameterSet, name, n_in, n_out, rng, w_std=0.02,
                 zero_init=False):
        w = np.zeros((n_in, n_out)) if zero_init else rng.normal(0.0, w_std, (n_in, n_out))
        self.w = ps.add(f"{name}.w", w)
        self.b = ps.add(f"{name}.b", np.zeros(n_out))

    def forward(self, x):
        y, self._cache = affine_forward(x, self.w.value, self.b.value)
        return y

    def backward(self, dy):
        dx, dw, db = affine_backward(dy, self._cache)
        self.w.grad += dw
        self.b.grad += db
        return dx


class LayerNorm:
    def __init__(self, ps: ParameterSet, name, dim, eps=1e-5):
        self.gamma = ps.add(f"{name}.gamma", np.ones(dim))
        self.beta = ps.add(f"{name}.beta", np.zeros(dim))
        self.eps = eps

    def forward(self, x):
        y, self._cache = layer_norm_forward(x, self.gamma.value, self.beta.value, self.eps)
        return y

    def backward(self, dy):
        dx, dgamma, dbeta = layer_norm_backward(dy, self._cache)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        return dx


class Gelu:
    def forward(self, x):
        y, self._cache = gelu_forward(x)
        return y

    def backward(self, dy):
        return gelu_backward(dy, self._cache)


class CausalSelfAttention:
    def __init__(self, ps: ParameterSet, name, dim, n_heads, rng, w_std=0.02):
        self.n_heads = n_heads
        self.params = []
        for stem in ("q", "k", "v", "o"):
            self.params.append(ps.add(f"{name}.w{stem}", rng.normal(0.0, w_std, (dim, dim))))
            self.params.append(ps.add(f"{name}.b{stem}", np.zeros(dim)))

    def forward(self, x, kv=None, start=0):
        vals = [p.value for p in self.params]
        y, self._cache = causal_attention_forward(x, *vals, self.n_heads, kv, start)
        return y

    def backward(self, dy):
        grads = causal_attention_backward(dy, self._cache)
        dx = grads[0]
        for p, g in zip(self.params, grads[1:]):
            p.grad += g
        return dx


class Embedding:
    def __init__(self, ps: ParameterSet, name, n_rows, dim, rng, w_std=0.02):
        self.table = ps.add(f"{name}.table", rng.normal(0.0, w_std, (n_rows, dim)))

    def forward(self, idx):
        y, self._cache = embedding_forward(self.table.value, idx)
        return y

    def backward(self, dy):
        self.table.grad += embedding_backward(dy, self._cache)


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------


def grad_check(loss_fn, tensors, analytic_grads, h=1e-5):
    """Max relative error between analytic and central-difference grads.

    ``loss_fn()`` must recompute the scalar loss from the current contents
    of ``tensors`` (mutated in place while probing).  Per tensor the error
    is ``max|a - n| / max(max|a|, max|n|, 1)``; the worst tensor is
    returned.  Double precision only.
    """
    worst = 0.0
    for arr, analytic in zip(tensors, analytic_grads):
        numeric = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            lp = loss_fn()
            arr[ix] = orig - h
            lm = loss_fn()
            arr[ix] = orig
            numeric[ix] = (lp - lm) / (2.0 * h)
        scale = max(
            float(np.abs(analytic).max(initial=0.0)),
            float(np.abs(numeric).max(initial=0.0)),
            1.0,
        )
        err = float(np.abs(analytic - numeric).max(initial=0.0)) / scale
        worst = max(worst, err)
    return worst
