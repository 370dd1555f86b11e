"""Double-precision neural-net kernels with explicit backward passes.

Everything here is plain numpy float64: affine, layer norm, GELU, causal
self-attention, embedding lookup and a bias-corrected Adam step.  No
graphs, no broadcasting magic beyond a leading batch dimension; each op
caches what its backward needs and training is bitwise deterministic for
a fixed seed.

A ``ParameterSet`` keeps every parameter in one arena: one flat float64
buffer of values and one of gradients, each allocated at its final size
on its first use (so a loaded model that only runs has no gradients),
with each ``Parameter.value`` and ``.grad`` a view into them.  So copying
a model's values or gradients in or out, ``zero_grad`` and the finiteness
check are one call each.  ``ParameterSet.place`` moves either buffer into
an array the caller gives, such as a row of a mapping shared with other
processes, and the parameters take their views of it again.  Adam is one
region function, ``adam_region``: it updates the elements ``[lo, hi)``
of the arena with a few ufuncs over fixed-size slices, into one slice of
preallocated scratch, which gives bitwise the per-parameter update
however the arena is cut.  ``adam_step`` runs it over the whole arena;
the training workers (``shard_worker``) run it over one half each.
Parameters are only updated in place; binding another array to one
raises.  The Adam state is allocated at the first step, so a loaded
model does not carry it.
Parameters refer to the buffers and not to their set, and the buffers
refer to no parameter, so no model holds a reference cycle: a model and
its arena are freed as soon as the last reference to the model goes,
with no cyclic garbage collection involved.

The ops are written to make few passes over memory.  Affine ops run one
2-D GEMM over the flattened leading dims.  Causal attention keeps
its q, k and v weights as one contiguous (d, 3d) parameter ``wqkv`` and
their biases as one (3d,) parameter ``bqkv``: one GEMM projects q, k and
v with no copy, and the backward adds their weight gradient in one op.
Attention takes its query rows as an argument: k and v serve every row,
but only the chosen q rows are kept, so a caller that reads some rows'
outputs pays for the scores, the output projection and their
backward on those rows only (the q gradient of the other rows is zero).
Attention is block-causal: queries go in blocks of ``ATTN_BLOCK`` rows,
each block scores only the keys up to its last query's position, and one
mask built from the positions hides each key past its own query's, so
the keys after a block cost nothing in either direction.  The same
attention forward takes an optional per-layer key/value cache, so
KV-cached inference runs the training kernels on the tokens it has not
fed yet.

Checkpoints (version 3) are one compact JSON header line, then ``\n``,
then the parameters' little-endian float64 bytes in C order, one
parameter after another.  The header holds ``format``, ``version``,
``meta`` and ``params``, which maps each parameter name to its ``shape``
in declaration order, so each parameter's offset in the data follows from
the shapes before it.  The bytes round-trip every value bitwise (signed
zeros, subnormals and infinities included), and saving the same
parameters twice writes the same file.  ``read_checkpoint`` reads the file
once, parses only the header and returns read-only views of the data at
those offsets; ``ParameterSet.load_records`` copies each view into its
slot of an arena laid out without drawing an init.  Every file this
version cannot read raises ``CheckpointError`` naming its path: another
format or version (versions 1 and 2 were JSON throughout and are no
longer read), a header line that is missing, cut, not UTF-8 JSON or
malformed, data shorter or longer than the shapes need, a checkpoint of
another kind than the caller asked for, and the first missing,
unexpected or mis-shaped parameter.  Datasets share the layout, and
``trajectory.BinaryFormat`` writes and checks the header line and data
of both.
"""

from __future__ import annotations

import math

import numpy as np

# perfbench/spans.py wraps ``atomic_write_text`` where this module looks it
# up, so the name stays here although checkpoints are written as bytes
from bagbid.trajectory import BinaryFormat, atomic_write_text

CHECKPOINT_FORMAT = "bagbid-checkpoint"
CHECKPOINT_VERSION = 3


class CheckpointError(ValueError):
    """A checkpoint file this version cannot read."""


def _retired_checkpoint(header: dict) -> str | None:
    version = header.get("version")
    if header.get("format") == CHECKPOINT_FORMAT and version in (1, 2):
        return (f"is a version {version} checkpoint, which this version no longer "
                f"reads; retrain with `bagbid train`")
    return None


_CHECKPOINT = BinaryFormat(name=CHECKPOINT_FORMAT, version=CHECKPOINT_VERSION,
                           noun="checkpoint", data="parameter", sized_by="shapes",
                           error=CheckpointError, retired=_retired_checkpoint)


class ConfigError(ValueError):
    """A model or training setting out of range."""


class NonFiniteGradientError(RuntimeError):
    """A parameter gradient contained NaN or inf; the update was rejected."""


class ShapeError(ValueError):
    pass


class _Buffers:
    """The value and gradient buffers of one ``ParameterSet``: their size,
    the initial values by offset until the value buffer exists, and each
    buffer once it does.  It refers to no ``Parameter``, so the parameters
    that refer to it make no reference cycle."""

    __slots__ = ("size", "init", "values", "grads")

    def __init__(self):
        self.size = 0
        self.init: dict[int, np.ndarray] = {}
        self.values = self.grads = None

    def value_buffer(self) -> np.ndarray:
        if self.values is None:
            self.place("values", np.zeros(self.size))
        return self.values

    def grad_buffer(self) -> np.ndarray:
        if self.grads is None:
            self.grads = np.zeros(self.size)
        return self.grads

    def place(self, kind: str, buf: np.ndarray):
        """Make ``buf`` the ``"values"`` or ``"grads"`` buffer, holding
        what that buffer holds: its contents once it exists; before, the
        initial values, or zero gradients."""
        current = getattr(self, kind)
        if current is not None:
            buf[...] = current
        else:
            buf.fill(0.0)
            if kind == "values":
                for offset, value in self.init.items():
                    buf[offset:offset + value.size] = value.reshape(-1)
                self.init = None
        setattr(self, kind, buf)


class Parameter:
    """A value and its gradient, both views into the buffers of the
    ``ParameterSet`` that made it, each taken on its first use.  A
    parameter refers to those buffers and not to its set, so a layer whose
    set is gone still runs.  A parameter is only ever updated in place:
    ``p.value[...] = x`` and ``p.grad += g`` work, while binding another
    array to ``value`` or ``grad`` raises ``AttributeError``."""

    __slots__ = ("_buffers", "_offset", "_shape", "_value", "_grad")

    def __init__(self, buffers: _Buffers, offset: int, shape: tuple):
        self._buffers, self._offset, self._shape = buffers, offset, shape
        self._value = self._grad = None

    def _view(self, buf: np.ndarray) -> np.ndarray:
        return buf[self._offset:self._offset + math.prod(self._shape)].reshape(self._shape)

    @property
    def value(self) -> np.ndarray:
        if self._value is None:
            self._value = self._view(self._buffers.value_buffer())
        return self._value

    @value.setter
    def value(self, new):
        # ``p.value += x`` assigns the updated view back to itself
        if new is not self.value:
            raise AttributeError("parameters are only updated in place")

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = self._view(self._buffers.grad_buffer())
        return self._grad

    @grad.setter
    def grad(self, new):
        if new is not self.grad:
            raise AttributeError("parameters are only updated in place")


class ParameterSet:
    """Named parameters in one arena.

    Every value lives in one flat float64 buffer (``values``) and every
    gradient in a second one of the same layout (``grads``);
    ``Parameter.value`` and ``.grad`` are views into them, one contiguous
    region per parameter.

    Parameters are declared first, each with its initial value or zeros;
    each buffer is allocated at its final size when it is first used (the
    values when a value or ``values`` is, the gradients when a gradient
    or ``grads`` is), and no parameter can be added after that.  So a
    model that is only loaded and run never allocates gradients.  The set
    keeps the names and the Adam state; the buffers are held by a holder
    that the set and each parameter refer to and that refers to neither,
    so a model is freed as soon as its last reference goes, without the
    cyclic garbage collector.  A caller that shares values or gradients
    with another process places the buffer in memory it gives (``place``);
    one that shares them with another set copies them into or out of
    ``values`` and ``grads``.  The Adam state (``adam``) is allocated at
    the first ``adam_step``.
    """

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._buffers = _Buffers()
        self.adam: AdamState | None = None

    def add(self, name: str, value=None, *, shape=None) -> Parameter:
        """Name a new region holding a copy of ``value``, or zeros of
        ``shape``."""
        buffers = self._buffers
        if buffers.values is not None or buffers.grads is not None:
            raise ValueError("parameters cannot be added once the arena is in use")
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if value is not None:
            value = np.array(value, dtype=np.float64)
            shape = value.shape
            buffers.init[buffers.size] = value
        shape = tuple(shape)
        p = self._params[name] = Parameter(buffers, buffers.size, shape)
        buffers.size += math.prod(shape)
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    @property
    def values(self) -> np.ndarray:
        return self._buffers.value_buffer()

    @property
    def grads(self) -> np.ndarray:
        return self._buffers.grad_buffer()

    def zero_grad(self):
        self.grads.fill(0.0)

    def place(self, kind: str, buf: np.ndarray):
        """Move the ``"values"`` or ``"grads"`` buffer into ``buf``, a
        float64 array of ``size`` elements that the caller gives (a row of
        a shared mapping, say).  ``buf`` takes the buffer's contents (the
        initial values, or zero gradients, if it was never used) and each
        parameter takes its views of it again."""
        self._buffers.place(kind, buf)
        view = "_value" if kind == "values" else "_grad"
        for p in self._params.values():
            setattr(p, view, None)

    def check_finite(self, grads: np.ndarray, lo: int = 0):
        """Raise ``NonFiniteGradientError``, naming the parameter of the
        first non-finite element, if ``grads``, the gradient of the
        elements from ``lo`` on, holds a NaN or an infinity."""
        finite = np.isfinite(grads)
        if not finite.all():
            first = lo + int(np.argmin(finite))
            name = next(n for n, p in self._params.items()
                        if first < p._offset + math.prod(p._shape))
            raise NonFiniteGradientError(f"non-finite gradient for {name!r}")

    @property
    def size(self) -> int:
        return self._buffers.size

    def load_records(self, records: dict, path):
        """Copy the parameter arrays of a checkpoint (``read_checkpoint``)
        into the arena.  Raises ``CheckpointError`` naming the first
        missing, unexpected or mis-shaped parameter."""
        for name, p in self._params.items():
            if name not in records:
                raise CheckpointError(f"{path}: missing parameter {name!r}")
            if records[name].shape != p.value.shape:
                raise CheckpointError(f"{path}: {name}: checkpoint shape "
                                      f"{records[name].shape} != {p.value.shape}")
        for name in records:
            if name not in self._params:
                raise CheckpointError(f"{path}: unexpected parameter {name!r}")
        for name, data in records.items():
            self._params[name].value[...] = data

    def save(self, path, meta: dict | None = None):
        _CHECKPOINT.write(path, {
            "meta": meta or {},
            "params": {name: {"shape": list(p.value.shape)} for name, p in self._params.items()},
        }, [p.value for p in self._params.values()])


def read_checkpoint(path, kind: str | None = None) -> tuple[dict, dict]:
    """The parameters of a checkpoint file ({name: read-only float64 view
    of its shape into the file's bytes}) and its meta.  ``kind``, if
    given, is the ``meta["kind"]`` the caller reads."""
    with open(path, "rb") as f:
        raw = f.read()
    header, offset = _CHECKPOINT.split(raw, path)
    meta, params = header.get("meta", {}), header.get("params")
    if not (isinstance(meta, dict) and isinstance(params, dict) and all(
            isinstance(rec, dict) and isinstance(rec.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in rec["shape"])
            for rec in params.values())):
        raise CheckpointError(f"{path}: the header's params or meta are malformed")
    shapes = {name: tuple(rec["shape"]) for name, rec in params.items()}
    if kind is not None and meta.get("kind") != kind:
        raise CheckpointError(
            f"{path} is a {meta.get('kind', 'kindless')} checkpoint, not a {kind} one")
    data = _CHECKPOINT.views(raw, offset, [math.prod(s) for s in shapes.values()], path)
    return {name: v.reshape(shape) for (name, shape), v in zip(shapes.items(), data)}, meta


# Elements per slice of an Adam update.  The two scratch buffers hold one
# slice, so they stay small and in cache whatever the size of the model.
ADAM_CHUNK = 16384


class AdamState:
    """Adam's state for the elements ``[lo, hi)`` of an arena: the two
    moments, the step count and the two scratch buffers of one slice."""

    __slots__ = ("lo", "hi", "m", "v", "t", "scratch")

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi = lo, hi
        self.m, self.v = np.zeros(hi - lo), np.zeros(hi - lo)
        self.t = 0
        n = min(hi - lo, ADAM_CHUNK)
        self.scratch = np.empty(n), np.empty(n)


def adam_step(params: ParameterSet, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update over the whole arena.

    Rejects the whole step (raises, no state mutated) when any gradient is
    non-finite."""
    grads = params.grads
    params.check_finite(grads)
    if params.adam is None:
        params.adam = AdamState(0, params.size)
    adam_region(params.values, grads, params.adam, lr, beta1, beta2, eps)


def adam_region(values: np.ndarray, grads: np.ndarray, state: AdamState, lr,
                beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step of the region ``[state.lo, state.hi)`` of the arena
    ``values``, from ``grads``, that region's finite gradient.

    The region is updated in slices of ``ADAM_CHUNK`` elements.  Each line
    of the loop is one elementwise op on a slice, written into the
    state's scratch, in the order of the per-parameter formula
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g^2``,
    ``w -= lr (m / bc1) / (sqrt(v / bc2) + eps)``, so the result is
    bitwise that of updating each parameter on its own, however the arena
    is cut into regions.
    """
    state.t += 1
    t = state.t
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    w_all = values[state.lo:state.hi]
    for lo in range(0, grads.size, ADAM_CHUNK):
        part = slice(lo, lo + ADAM_CHUNK)
        g, m, v, w = grads[part], state.m[part], state.v[part], w_all[part]
        s, u = (buf[:g.size] for buf in state.scratch)
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=s)
        m += s
        v *= beta2
        np.square(g, out=s)
        s *= 1.0 - beta2
        v += s
        np.divide(m, bc1, out=s)
        s *= lr
        np.divide(v, bc2, out=u)
        np.sqrt(u, out=u)
        u += eps
        s /= u
        w -= s


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

# Query rows per attention block.  Smaller blocks skip more masked scores
# but pay numpy call overhead per block; of 12-144 rows, 24 gave the
# fastest forward plus backward at the default model (batch 8, 144 tokens,
# 4 heads of 16) on a 2-vCPU x86 VM with OpenBLAS.
ATTN_BLOCK = 24


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


def causal_attention_forward(x, wqkv, bqkv, wo, bo, n_heads, kv=None, start=0, rows=None):
    """Multi-head self-attention with a strict causal mask.

    ``x`` is (batch, L, d).  ``wqkv`` (d, 3d) and ``bqkv`` (3d,) hold the
    q, k and v projections side by side, so one GEMM projects all three
    for every row.  ``rows`` (a slice or an ascending int array of
    positions within ``x``; None means every row) picks the query rows: the
    output has one row per query, (batch, len(rows), d), while every row
    of ``x`` still serves as a key and a value.

    A query at position i attends to positions <= i only.  The queries go
    in blocks of ``ATTN_BLOCK`` rows: a block scores the keys up to its
    last query's position and sets each key past its own query's position
    to -inf, so future tokens carry exactly zero weight.

    ``kv = (k_buf, v_buf)``, both (batch, heads, max_L, dh), is a key/value
    cache: ``x`` holds positions ``[start, start + L)`` of a longer
    sequence whose earlier keys and values are already in the buffers.
    The new ones are written at ``[start, start + L)`` and the queries
    also attend to everything before ``start``.  The cached call returns
    no backward cache (None).
    """
    b, length, d = x.shape
    if d % n_heads != 0:
        raise ShapeError(f"model dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    if rows is None:
        rows = slice(None)

    qkv, c_qkv = affine_forward(x, wqkv, bqkv)
    # (3, b, heads, L, dh) views of the (b, L, 3, heads, dh) projection
    q, k, v = qkv.reshape(b, length, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    q = q[:, :, rows]
    q *= 1.0 / math.sqrt(dh)
    pos = np.arange(start, start + length)[rows]
    if kv is not None:
        k_buf, v_buf = kv
        k_buf[:, :, start:start + length] = k
        v_buf[:, :, start:start + length] = v
        k, v = k_buf, v_buf
    n_rows = pos.size
    merged = np.empty((b, n_rows, n_heads, dh))
    probs = []
    for lo in range(0, n_rows, ATTN_BLOCK):
        hi = min(lo + ATTN_BLOCK, n_rows)
        # keys before ``first`` are visible to every query of the block;
        # a lone query (as in cached inference) has nothing to mask
        first, end = pos[lo] + 1, pos[hi - 1] + 1
        scores = q[:, :, lo:hi] @ k[:, :, :end].transpose(0, 1, 3, 2)
        if first < end:
            np.copyto(scores[..., first:], -np.inf,
                      where=pos[lo:hi, None] < np.arange(first, end))
        p = softmax(scores, axis=-1)
        merged[:, lo:hi] = (p @ v[:, :, :end]).transpose(0, 2, 1, 3)
        probs.append(p)
    y, co = affine_forward(merged.reshape(b, n_rows, d), wo, bo)
    return y, None if kv is not None else (c_qkv, co, q, k, v, probs, rows)


def causal_attention_backward(dy, cache):
    """Gradients (dx, dwqkv, dbqkv, dwo, dbo); ``dy`` has the forward's
    output rows and ``dx`` every row of its input.

    Works block by block like the forward and overwrites the cached
    probabilities, so a cache serves one backward only.  The q gradient
    goes into the query rows of the fused (q, k, v) gradient; the other
    rows of it stay zero.
    """
    c_qkv, co, q, k, v, probs, rows = cache
    b, n_heads, n_rows, dh = q.shape
    length = k.shape[2]
    d = n_heads * dh

    dmerged, dwo, dbo = affine_backward(dy, co)
    dctx = dmerged.reshape(b, n_rows, n_heads, dh).transpose(0, 2, 1, 3)
    dqkv = np.zeros((b, length, 3, n_heads, dh))
    _, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)
    dq = np.empty(q.shape)
    for lo, p in zip(range(0, n_rows, ATTN_BLOCK), probs):
        hi, end = lo + p.shape[-2], p.shape[-1]
        dc = dctx[:, :, lo:hi]
        dv[:, :, :end] += p.transpose(0, 1, 3, 2) @ dc
        # softmax backward, in place: ds = p * dp - p * rowsum(p * dp);
        # masked entries have p = 0 and contribute nothing
        ds = dc @ v[:, :, :end].transpose(0, 1, 3, 2)
        ds *= p
        p *= ds.sum(axis=-1, keepdims=True)
        ds -= p
        dq[:, :, lo:hi] = ds @ k[:, :, :end]
        dk[:, :, :end] += ds.transpose(0, 1, 3, 2) @ q[:, :, lo:hi]
    # q was scaled by 1/sqrt(dh) after its projection
    dq *= 1.0 / math.sqrt(dh)
    dqkv[:, rows, 0] = dq.transpose(0, 2, 1, 3)
    dx, dwqkv, dbqkv = affine_backward(dqkv.reshape(b, length, 3 * d), c_qkv)
    return dx, dwqkv, dbqkv, dwo, dbo


def embedding_forward(table, idx):
    idx = np.asarray(idx)
    if (np.minimum.reduce(idx, axis=None, initial=0) < 0
            or np.maximum.reduce(idx, axis=None, initial=-1) >= table.shape[0]):
        raise ShapeError("embedding index out of range")
    return table[idx], (table.shape, idx)


def embedding_backward(dy, cache):
    """Table gradient.  The cached indices match the trailing dims of
    ``dy.shape[:-1]``: a lookup shared by every row of a batch is made
    once, and its gradient repeats the indices over the rows, so the
    one-hot GEMM is the one for the indices tiled over the batch."""
    # one (rows, N) one-hot GEMM: np.add.at's unbuffered scatter is far slower
    shape, idx = cache
    rows = dy.shape[:-1]
    if rows[len(rows) - idx.ndim:] != idx.shape:
        raise ShapeError(f"embedding indices {idx.shape} do not match gradient {dy.shape}")
    flat = idx.reshape(1, -1).repeat(math.prod(rows[:len(rows) - idx.ndim]), axis=0)
    one_hot = np.equal.outer(np.arange(shape[0]), flat.reshape(-1)).astype(np.float64)
    return one_hot @ dy.reshape(-1, shape[1])


# ---------------------------------------------------------------------------
# layer wrappers used by model code
# ---------------------------------------------------------------------------


def _normal(rng, std, shape):
    """A random initial value, or None (zeros) for a layer built without an
    ``rng`` because a checkpoint fills it."""
    return None if rng is None else rng.normal(0.0, std, shape)


class Affine:
    def __init__(self, ps: ParameterSet, name, n_in, n_out, rng, w_std=0.02,
                 zero_init=False):
        w = None if zero_init else _normal(rng, w_std, (n_in, n_out))
        self.w = ps.add(f"{name}.w", w, shape=(n_in, n_out))
        self.b = ps.add(f"{name}.b", shape=(n_out,))

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
        self.beta = ps.add(f"{name}.beta", shape=(dim,))
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
    """Self-attention whose q, k and v projections are the one (d, 3d)
    parameter ``{name}.wqkv`` and the one (3d,) parameter ``{name}.bqkv``,
    their columns in the order q, k, v."""

    def __init__(self, ps: ParameterSet, name, dim, n_heads, rng, w_std=0.02):
        self.n_heads = n_heads
        # the q, k and v draws, in that order, side by side
        wqkv = None if rng is None else np.hstack(
            [_normal(rng, w_std, (dim, dim)) for _ in range(3)])
        self.wqkv = ps.add(f"{name}.wqkv", wqkv, shape=(dim, 3 * dim))
        self.bqkv = ps.add(f"{name}.bqkv", shape=(3 * dim,))
        self.wo = ps.add(f"{name}.wo", _normal(rng, w_std, (dim, dim)), shape=(dim, dim))
        self.bo = ps.add(f"{name}.bo", shape=(dim,))

    def forward(self, x, kv=None, start=0, rows=None):
        y, self._cache = causal_attention_forward(
            x, self.wqkv.value, self.bqkv.value, self.wo.value, self.bo.value,
            self.n_heads, kv, start, rows,
        )
        return y

    def backward(self, dy):
        dx, dwqkv, dbqkv, dwo, dbo = causal_attention_backward(dy, self._cache)
        self.wqkv.grad += dwqkv
        self.bqkv.grad += dbqkv
        self.wo.grad += dwo
        self.bo.grad += dbo
        return dx


class Embedding:
    def __init__(self, ps: ParameterSet, name, n_rows, dim, rng, w_std=0.02):
        self.table = ps.add(f"{name}.table", _normal(rng, w_std, (n_rows, dim)),
                            shape=(n_rows, dim))

    def forward(self, idx):
        y, self._cache = embedding_forward(self.table.value, idx)
        return y

    def backward(self, dy):
        self.table.grad += embedding_backward(dy, self._cache)
