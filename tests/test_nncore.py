import json

import numpy as np
import pytest

from bagbid import nncore as nc
from bagbid import transformer as tf


@pytest.fixture
def gen():
    return np.random.Generator(np.random.PCG64(7))


class TestAffine:
    def test_identity(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        y, _ = nc.affine_forward(x, np.eye(2), np.zeros(2))
        assert np.array_equal(y, x)

    def test_hand_arithmetic(self):
        y, _ = nc.affine_forward(np.array([[1.0, 2.0]]), np.eye(2), np.array([3.0, 3.0]))
        assert np.array_equal(y, np.array([[4.0, 5.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(nc.ShapeError):
            nc.affine_forward(np.ones((2, 3)), np.ones((4, 2)), np.zeros(2))

    def test_grad_check(self, gen, grad_check):
        x = gen.normal(size=(4, 8))
        w = gen.normal(size=(8, 3))
        b = gen.normal(size=3)
        dy = gen.normal(size=(4, 3))

        def loss():
            y, _ = nc.affine_forward(x, w, b)
            return float((y * dy).sum())

        y, cache = nc.affine_forward(x, w, b)
        dx, dw, db = nc.affine_backward(dy, cache)
        assert grad_check(loss, [x, w, b], [dx, dw, db]) < 1e-6


class TestLayerNorm:
    def test_normalized_rows(self, gen):
        x = gen.normal(3.0, 5.0, size=(6, 16))
        y, (xhat, *_ ) = nc.layer_norm_forward(x, np.ones(16), np.zeros(16))
        assert np.abs(xhat.mean(axis=-1)).max() < 1e-6
        assert np.abs(xhat.var(axis=-1) - 1.0).max() < 1e-4  # eps-shifted variance

    def test_grad_check(self, gen, grad_check):
        x = gen.normal(size=(4, 8))
        g = gen.normal(size=8) + 1.0
        b = gen.normal(size=8)
        dy = gen.normal(size=(4, 8))

        def loss():
            y, _ = nc.layer_norm_forward(x, g, b)
            return float((y * dy).sum())

        y, cache = nc.layer_norm_forward(x, g, b)
        dx, dg, dbeta = nc.layer_norm_backward(dy, cache)
        assert grad_check(loss, [x, g, b], [dx, dg, dbeta]) < 1e-5


class TestGelu:
    def test_zero_fixed_point(self):
        y, _ = nc.gelu_forward(np.zeros(3))
        assert np.array_equal(y, np.zeros(3))

    def test_grad_check(self, gen, grad_check):
        x = gen.normal(size=(5, 7))
        dy = gen.normal(size=(5, 7))

        def loss():
            y, _ = nc.gelu_forward(x)
            return float((y * dy).sum())

        y, cache = nc.gelu_forward(x)
        dx = nc.gelu_backward(dy, cache)
        assert grad_check(loss, [x], [dx]) < 1e-5


def naive_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, n_heads):
    """Reference: full L x L scores, separate q/k/v matmuls, masked softmax.

    Returns the output and a backward closure giving
    (dx, dwq, dbq, dwk, dbk, dwv, dbv, dwo, dbo).
    """
    b, length, d = x.shape
    dh = d // n_heads

    def heads(m):
        return m.reshape(b, length, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(m):
        return m.transpose(0, 2, 1, 3).reshape(b, length, d)

    q, k, v = heads(x @ wq + bq), heads(x @ wk + bk), heads(x @ wv + bv)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
    scores[..., np.triu(np.ones((length, length), dtype=bool), 1)] = -np.inf
    p = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    merged = merge(p @ v)
    y = merged @ wo + bo

    def backward(dy):
        rows = b * length
        dwo = merged.reshape(rows, d).T @ dy.reshape(rows, d)
        dctx = heads(dy @ wo.T)
        dp = dctx @ v.transpose(0, 1, 3, 2)
        dscores = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) / np.sqrt(dh)
        dq, dk, dv = merge(dscores @ k), merge(dscores.transpose(0, 1, 3, 2) @ q), \
            merge(p.transpose(0, 1, 3, 2) @ dctx)
        x2 = x.reshape(rows, d)
        dx = dq @ wq.T + dk @ wk.T + dv @ wv.T
        grads = [dx]
        for dm in (dq, dk, dv):
            grads += [x2.T @ dm.reshape(rows, d), dm.sum(axis=(0, 1))]
        return grads + [dwo, dy.sum(axis=(0, 1))]

    return y, backward


def fused(params):
    """(wqkv, bqkv, wo, bo) from separate (wq, bq, wk, bk, wv, bv, wo, bo)."""
    wq, bq, wk, bk, wv, bv, wo, bo = params
    return np.concatenate([wq, wk, wv], axis=1), np.concatenate([bq, bk, bv]), wo, bo


def split(grads):
    """(dx, dwq, dbq, dwk, dbk, dwv, dbv, dwo, dbo) from the fused backward's
    (dx, dwqkv, dbqkv, dwo, dbo)."""
    dx, dw, db, dwo, dbo = grads
    out = [dx]
    for dw_part, db_part in zip(np.split(dw, 3, axis=1), np.split(db, 3)):
        out += [dw_part, db_part]
    return out + [dwo, dbo]


def layer_forward(attn, x):
    """The functional forward on the layer's fused arena blocks."""
    return nc.causal_attention_forward(x, attn.wqkv.value, attn.bqkv.value,
                                       attn.wo.value, attn.bo.value, attn.n_heads)


def attn_views(ps, name):
    """The named parameters of attention layer ``name``, in checkpoint order."""
    return [ps[f"{name}.{k}"] for k in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")]


class TestCausalAttention:
    def _setup(self, gen, length=6, dim=16, heads=4):
        ps = nc.ParameterSet()
        attn = nc.CausalSelfAttention(ps, "a", dim, heads, gen)
        x = gen.normal(size=(length, dim))
        return ps, attn, x

    def test_single_token_is_value_projection(self, gen):
        ps, attn, _ = self._setup(gen, length=1)
        x = gen.normal(size=(1, 16))
        y = attn.forward(x)
        # softmax over one element = 1: output = (x Wv + bv) Wo + bo
        v = x @ ps["a.wv"].value + ps["a.bv"].value
        expected = v @ ps["a.wo"].value + ps["a.bo"].value
        assert np.allclose(y, expected, atol=1e-12)

    def test_prefix_bitwise_invariant(self, gen):
        ps, attn, x = self._setup(gen)
        y1 = attn.forward(x)
        x2 = x.copy()
        x2[3:] += gen.normal(size=x2[3:].shape)
        y2 = attn.forward(x2)
        assert np.array_equal(y1[:3], y2[:3])

    def test_grad_check(self, gen, grad_check):
        ps, attn, x = self._setup(gen)
        dy = gen.normal(size=x.shape)

        def loss():
            y, _ = layer_forward(attn, x)
            return float((y * dy).sum())

        attn.forward(x)
        ps.zero_grad()
        dx = attn.backward(dy)
        views = attn_views(ps, "a")
        tensors = [x] + [p.value for p in views]
        grads = [dx] + [p.grad for p in views]
        assert grad_check(loss, tensors, grads) < 1e-4

    @pytest.mark.parametrize("length", [1, nc.ATTN_BLOCK - 1, nc.ATTN_BLOCK,
                                        2 * nc.ATTN_BLOCK + 3])
    def test_matches_naive_reference(self, gen, length):
        dim, heads = 16, 2  # 1/sqrt(8) is inexact, so folding it into q rounds
        x = gen.normal(size=(3, length, dim))
        params = []
        for _ in range(4):
            params += [gen.normal(0.0, 0.3, (dim, dim)), gen.normal(0.0, 0.3, dim)]
        dy = gen.normal(size=x.shape)
        y, cache = nc.causal_attention_forward(x, *fused(params), heads)
        grads = split(nc.causal_attention_backward(dy, cache))
        y_ref, backward = naive_attention(x, *params, heads)
        assert np.abs(y - y_ref).max() <= 1e-10 * max(1.0, np.abs(y_ref).max())
        ref_grads = backward(dy)
        assert len(grads) == len(ref_grads) == 9
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape
            assert np.abs(g - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("length", [1, nc.ATTN_BLOCK + 1, 2 * nc.ATTN_BLOCK + 3])
    def test_query_rows_match_naive_reference(self, gen, length):
        """Query rows in the transformer's s_t, R_t pattern (two of every
        three, spanning query blocks): the outputs are those rows of the
        full attention, and the gradients those of a full backward whose
        output gradient is zero on the other rows."""
        dim, heads = 16, 2
        x = gen.normal(size=(3, length, dim))
        params = []
        for _ in range(4):
            params += [gen.normal(0.0, 0.3, (dim, dim)), gen.normal(0.0, 0.3, dim)]
        rows = np.flatnonzero(np.arange(length) % 3 != 2)
        dy = np.zeros(x.shape)
        dy[:, rows] = gen.normal(size=(3, rows.size, dim))
        y, cache = nc.causal_attention_forward(x, *fused(params), heads, rows=rows)
        grads = split(nc.causal_attention_backward(dy[:, rows], cache))
        y_ref, backward = naive_attention(x, *params, heads)
        assert y.shape == (3, rows.size, dim)
        assert np.abs(y - y_ref[:, rows]).max() <= 1e-10 * max(1.0, np.abs(y_ref).max())
        for g, ref in zip(grads, backward(dy)):
            assert g.shape == ref.shape
            assert np.abs(g - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    def test_grad_check_batched_blocks(self, gen, grad_check):
        ps = nc.ParameterSet()
        attn = nc.CausalSelfAttention(ps, "a", 8, 2, gen, w_std=0.3)
        x = gen.normal(size=(2, nc.ATTN_BLOCK + 2, 8))
        dy = gen.normal(size=x.shape)

        def loss():
            y, _ = layer_forward(attn, x)
            return float((y * dy).sum())

        attn.forward(x)
        ps.zero_grad()
        dx = attn.backward(dy)
        views = attn_views(ps, "a")
        tensors = [x] + [p.value for p in views]
        grads = [dx] + [p.grad for p in views]
        assert grad_check(loss, tensors, grads) < 1e-4

    @pytest.mark.parametrize("chunk", [1, 2, nc.ATTN_BLOCK, 33])
    def test_kv_cache_chunks_match_one_shot(self, gen, chunk):
        """Feeding a sequence chunk by chunk through the key/value cache
        gives the one-shot outputs; chunks of 24 and 33 rows start at
        nonzero positions and span block edges."""
        batch, length, dim, heads = 2, 60, 16, 2
        x = gen.normal(size=(batch, length, dim))
        params = []
        for _ in range(4):
            params += [gen.normal(0.0, 0.3, (dim, dim)), gen.normal(0.0, 0.3, dim)]
        y_ref, _ = nc.causal_attention_forward(x, *fused(params), heads)
        kv = tuple(np.zeros((batch, heads, length, dim // heads)) for _ in range(2))
        outs = []
        for start in range(0, length, chunk):
            y, cache = nc.causal_attention_forward(x[:, start:start + chunk],
                                                   *fused(params), heads, kv, start)
            assert cache is None
            outs.append(y)
        y = np.concatenate(outs, axis=1)
        assert np.abs(y - y_ref).max() <= 1e-12 * max(1.0, np.abs(y_ref).max())

    def test_head_divisibility(self, gen):
        ps = nc.ParameterSet()
        attn = nc.CausalSelfAttention(ps, "a", 10, 4, gen)
        with pytest.raises(nc.ShapeError):
            attn.forward(gen.normal(size=(3, 10)))


class TestAdam:
    def test_zero_gradient_no_change(self):
        ps = nc.ParameterSet()
        p = ps.add("w", np.array([1.0, -2.0]))
        nc.adam_step(ps, lr=0.1)
        assert np.array_equal(p.value, np.array([1.0, -2.0]))

    def test_first_step_equals_lr(self):
        # bias correction makes the first step lr * g/|g|
        ps = nc.ParameterSet()
        p = ps.add("w", np.array([1.0]))
        p.grad[...] = 1.0
        nc.adam_step(ps, lr=0.1)
        assert p.value[0] == pytest.approx(0.9, abs=1e-8)

    def test_hand_recurrence_two_steps(self):
        ps = nc.ParameterSet()
        p = ps.add("w", np.array([0.0]))
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        m = v = 0.0
        w = 0.0
        for t in (1, 2):
            g = 1.0
            p.grad[...] = g
            nc.adam_step(ps, lr=lr, beta1=b1, beta2=b2, eps=eps)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert p.value[0] == pytest.approx(w, abs=1e-12)

    def test_nonfinite_gradient_rejected(self):
        ps = nc.ParameterSet()
        p = ps.add("w", np.array([1.0]))
        p.grad[...] = np.nan
        with pytest.raises(nc.NonFiniteGradientError):
            nc.adam_step(ps, lr=0.1)
        assert p.value[0] == 1.0 and ps.adam_t == 0

    def test_determinism(self, gen):
        def run():
            ps = nc.ParameterSet()
            p = ps.add("w", np.ones(8))
            r = np.random.Generator(np.random.PCG64(3))
            for _ in range(100):
                p.grad[...] = r.normal(size=8)
                nc.adam_step(ps, lr=0.01)
            return p.value.copy()

        assert np.array_equal(run(), run())


class TestEmbedding:
    def test_lookup_and_grad(self, gen, grad_check):
        table = gen.normal(size=(5, 3))
        idx = np.array([[0, 2], [2, 4]])
        dy = gen.normal(size=(2, 2, 3))
        y, cache = nc.embedding_forward(table, idx)
        assert np.array_equal(y[0, 1], table[2])
        dtable = nc.embedding_backward(dy, cache)

        def loss():
            out, _ = nc.embedding_forward(table, idx)
            return float((out * dy).sum())

        assert grad_check(loss, [table], [dtable]) < 1e-6

    def test_out_of_range(self, gen):
        with pytest.raises(nc.ShapeError):
            nc.embedding_forward(gen.normal(size=(4, 2)), np.array([4]))

    def test_shared_indices_backward_matches_tiled(self, gen):
        """A lookup shared by the rows of a batch gets the same gradient,
        bitwise, as the same indices tiled over the rows."""
        table = gen.normal(size=(5, 3))
        idx = np.array([[0, 2, 4], [1, 1, 3]])
        dy = gen.normal(size=(4, 2, 3, 3))
        y, cache = nc.embedding_forward(table, idx)
        tiled_y, tiled = nc.embedding_forward(table, np.tile(idx, (4, 1, 1)))
        assert np.array_equal(np.broadcast_to(y, tiled_y.shape), tiled_y)
        assert (nc.embedding_backward(dy, cache).tobytes()
                == nc.embedding_backward(dy, tiled).tobytes())
        with pytest.raises(nc.ShapeError, match="do not match"):
            nc.embedding_backward(dy[:, :, :2], cache)


def reload(ps, path):
    """A new set laid out like ``ps`` with checkpoint ``path`` loaded into
    it, and the checkpoint's meta."""
    records, meta = nc.read_checkpoint(path)
    other = nc.ParameterSet()
    for name, p in ps.items():
        other.add(name, shape=p.value.shape)
    other.load_records(records, path)
    return other, meta


class TestCheckpoint:
    def test_roundtrip_bitwise(self, gen, tmp_path):
        ps = nc.ParameterSet()
        ps.add("a.w", gen.normal(size=(3, 4)))
        ps.add("a.b", gen.normal(size=4))
        path = tmp_path / "c.ckpt"
        ps.save(path, meta={"note": "test"})

        loaded, meta = reload(ps, path)
        assert meta["note"] == "test"
        assert np.array_equal(loaded["a.w"].value, ps["a.w"].value)
        assert np.array_equal(loaded["a.b"].value, ps["a.b"].value)

    def test_versioned_header(self, gen, tmp_path, checkpoint_parts):
        ps = nc.ParameterSet()
        ps.add("w", np.ones(2))
        path = tmp_path / "c.ckpt"
        ps.save(path)
        header, _ = checkpoint_parts.split(path)
        assert header["format"] == nc.CHECKPOINT_FORMAT
        assert header["version"] == nc.CHECKPOINT_VERSION

    def test_file_is_header_line_and_raw_bytes(self, tmp_path, checkpoint_parts):
        """A compact JSON header line, then every parameter's little-endian
        float64 bytes in name order: the fused q|k|v block of the arena is
        written column view by column view."""
        model = tf.TrajectoryTransformer(tf.ModelConfig())
        path = tmp_path / "c.ckpt"
        model.save(path, extra_meta={"method": "x"})
        header, data = checkpoint_parts.split(path)
        line = json.dumps(header, separators=(",", ":")).encode()
        assert path.stat().st_size == len(line) + 1 + 8 * model.params.size
        assert path.read_bytes()[:len(line) + 1] == line + b"\n"
        assert data == b"".join(p.value.astype("<f8").tobytes()
                                for _, p in model.params.items())
        assert list(header["params"]) == model.params.names()

    def test_shape_mismatch_rejected(self, tmp_path):
        ps = nc.ParameterSet()
        ps.add("w", np.ones(2))
        path = tmp_path / "c.ckpt"
        ps.save(path)
        other = nc.ParameterSet()
        other.add("w", np.ones(3))
        records, _ = nc.read_checkpoint(path)
        with pytest.raises(nc.CheckpointError, match=r"w: checkpoint shape \(2,\) != \(3,\)"):
            other.load_records(records, path)

    def test_roundtrip_special_values_bitwise(self, tmp_path):
        ps = nc.ParameterSet()
        ps.add("scalar", -0.0)
        ps.add("vec", [5e-324, -1e308, 1e308, 0.0, -0.0])
        ps.add("mat", [[2.5e-310, -7.0], [1.0 / 3.0, -5e-324]])
        path = tmp_path / "c.ckpt"
        ps.save(path)
        loaded, _ = reload(ps, path)
        for name, p in ps.items():
            q = loaded[name].value
            assert q.dtype == np.float64
            assert q.shape == p.value.shape
            assert q.tobytes() == p.value.tobytes()  # keeps the sign of zero
        assert np.signbit(loaded["scalar"].value) and loaded["vec"].value[0] > 0.0

    def test_same_parameters_same_bytes(self, gen, tmp_path):
        ps = nc.ParameterSet()
        ps.add("a.w", gen.normal(size=(3, 4)))
        ps.add("a.b", gen.normal(size=4))
        first, second, again = (tmp_path / n for n in ("1.ckpt", "2.ckpt", "3.ckpt"))
        ps.save(first, meta={"note": "x"})
        ps.save(second, meta={"note": "x"})
        assert first.read_bytes() == second.read_bytes()
        reloaded, meta = reload(ps, first)
        reloaded.save(again, meta=meta)
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("cut", [1, 8], ids=["bad-padding", "short"])
    def test_truncated_data_rejected(self, gen, tmp_path, cut):
        """Data that end inside a value, or one value short."""
        ps = nc.ParameterSet()
        ps.add("w", gen.normal(size=(3, 4)))
        path = tmp_path / "c.ckpt"
        ps.save(path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(nc.CheckpointError,
                           match=f"{96 - cut} bytes of parameter data, but the shapes "
                                 f"in its header need 96"):
            reload(ps, path)

    @pytest.mark.parametrize("content,message", [
        (b"", "the header line is not UTF-8 JSON"),
        (b"hello", "the header line is not UTF-8 JSON"),
        (b'{"format":"bagbid-checkpoint","version":3,"meta":{},"params":{"w":',
         "the header line is not UTF-8 JSON"),
        (b'{"format":"bagbid-checkpoint","version":3,"meta":{},"params":{"w":{"shape":[1]}}}',
         "ends inside its header line"),
        (b'"\xff"\n', "the header line is not UTF-8 JSON"),
        (b"[1, 2]\n", "is not a bagbid-checkpoint file"),
        (b'{"format":"bagbid-checkpoint","version":3,"meta":{},"params":{"w":{"shape":"2"}}}\n',
         "the header's params or meta are malformed"),
        (b'{"format":"bagbid-checkpoint","version":3,"meta":{},"params":{"w":[2]}}\n',
         "the header's params or meta are malformed"),
        (b'{"format":"bagbid-checkpoint","version":3,"meta":[],"params":{}}\n',
         "the header's params or meta are malformed"),
        (b'{"format":"bagbid-checkpoint","version":3,"meta":{},"params":{"w":{"shape":[1]}}}\n'
         + bytes(16), "16 bytes of parameter data, but the shapes in its header need 8"),
    ], ids=["empty", "hello", "header-cut", "no-newline", "not-utf8", "not-object",
            "shape-text", "shape-missing", "meta-list", "padded"])
    def test_malformed_file_rejected(self, tmp_path, content, message):
        path = tmp_path / "c.ckpt"
        path.write_bytes(content)
        with pytest.raises(nc.CheckpointError, match=message) as e:
            nc.read_checkpoint(path)
        assert str(path) in str(e.value)

    @pytest.mark.parametrize("edit,values,message", [
        (lambda params: params.pop("a.b"), -4, "missing parameter 'a.b'"),
        (lambda params: params.update(extra=params["a.b"]), 4, "unexpected parameter 'extra'"),
        (lambda params: params["a.w"].update(shape=[4, 3]), 0, r"a.w: checkpoint shape \(4, 3\)"),
    ], ids=["missing", "unexpected", "misshaped"])
    def test_mismatched_parameters_rejected(self, gen, tmp_path, checkpoint_parts, edit,
                                            values, message):
        """``values`` is the number of float64 values the data gain (or
        lose) with the header edit, so the file itself stays well formed."""
        ps = nc.ParameterSet()
        ps.add("a.w", gen.normal(size=(3, 4)))
        ps.add("a.b", gen.normal(size=4))
        path = tmp_path / "c.ckpt"
        ps.save(path)
        header, data = checkpoint_parts.split(path)
        edit(header["params"])
        data = data[:8 * values] if values < 0 else data + bytes(8 * values)
        checkpoint_parts.join(path, header, data)
        records, _ = nc.read_checkpoint(path)
        other = nc.ParameterSet()
        other.add("a.w", shape=(3, 4))
        other.add("a.b", shape=(4,))
        with pytest.raises(nc.CheckpointError, match=message):
            other.load_records(records, path)

    @pytest.mark.parametrize("header,one_line,message", [
        ({"format": "other"}, False, "not a bagbid-checkpoint"),
        ({"version": 1, "params": {"w": {"shape": [2], "data": [1.0, 1.0]}}}, True,
         "is a version 1 checkpoint, .* retrain with `bagbid train`"),
        ({"version": 2, "params": {"w": {"shape": [2], "data": "AAAAAAAA8D8AAAAAAADwPw=="}}},
         True, "is a version 2 checkpoint, .* retrain with `bagbid train`"),
        ({"version": nc.CHECKPOINT_VERSION + 1}, False,
         f"unsupported checkpoint version {nc.CHECKPOINT_VERSION + 1}"),
    ], ids=["format", "v1", "v2", "v3"])
    def test_other_format_or_version_rejected(self, tmp_path, checkpoint_parts, header,
                                              one_line, message):
        """Versions 1 and 2 were one JSON object, parameter data included,
        with no line after it; the ``v3`` row is a version newer than this
        one."""
        ps = nc.ParameterSet()
        ps.add("w", np.ones(2))
        path = tmp_path / "c.ckpt"
        ps.save(path)
        current, data = checkpoint_parts.split(path)
        if one_line:
            path.write_text(json.dumps({**current, **header}))
        else:
            checkpoint_parts.join(path, {**current, **header}, data)
        with pytest.raises(nc.CheckpointError, match=message):
            nc.read_checkpoint(path)


def default_model_grads(model, seed=0):
    """A closure that fills ``model``'s gradients from one training
    forward and backward on a random default-size batch."""
    r = np.random.Generator(np.random.PCG64(seed))
    t = model.config.context_steps
    states, rtgs = r.normal(0.5, 0.3, (2, t, 8)), r.uniform(0.0, 1.0, (2, t))
    actions, levels = r.uniform(0.0, 5.0, (2, t)), r.integers(0, 2, (2, t))

    def fill():
        model.params.zero_grad()
        rtg_pred, act_pred = model.forward(states, rtgs, actions, levels)
        model.backward(*tf.loss_grads(rtg_pred, act_pred, rtgs, actions))

    return fill


ARCHS = {"full": tf.ARCH_FULL, "dt": tf.ARCH_DT, "bc": tf.ARCH_BC}


def _block_layout(i):
    b = f"block{i}"
    return [
        (f"{b}.ln1.gamma", (64,)), (f"{b}.ln1.beta", (64,)),
        (f"{b}.attn.wq", (64, 64)), (f"{b}.attn.bq", (64,)),
        (f"{b}.attn.wk", (64, 64)), (f"{b}.attn.bk", (64,)),
        (f"{b}.attn.wv", (64, 64)), (f"{b}.attn.bv", (64,)),
        (f"{b}.attn.wo", (64, 64)), (f"{b}.attn.bo", (64,)),
        (f"{b}.ln2.gamma", (64,)), (f"{b}.ln2.beta", (64,)),
        (f"{b}.mlp.fc1.w", (64, 256)), (f"{b}.mlp.fc1.b", (256,)),
        (f"{b}.mlp.fc2.w", (256, 64)), (f"{b}.mlp.fc2.b", (64,)),
    ]


_BODY = _block_layout(0) + _block_layout(1) + [("ln_f.gamma", (64,)), ("ln_f.beta", (64,))]
_STATE_ACTION = [("embed.state.w", (8, 64)), ("embed.state.b", (64,)),
                 ("embed.action.w", (1, 64)), ("embed.action.b", (64,))]
_ACTION_HEAD = [("head.action.w", (64, 1)), ("head.action.b", (1,))]

# (name, shape) in file order of default-config checkpoints
CHECKPOINT_LAYOUTS = {
    "full": _STATE_ACTION + [
        ("embed.rtg.w", (1, 64)), ("embed.rtg.b", (64,)),
        ("embed.modality.table", (3, 64)), ("embed.time.table", (48, 64)),
        ("embed.bag.table", (8, 64)), ("embed.level.table", (2, 64)),
    ] + _BODY + [("head.rtg.w", (64, 1)), ("head.rtg.b", (1,))] + _ACTION_HEAD,
    "dt": _STATE_ACTION + [
        ("embed.rtg.w", (1, 64)), ("embed.rtg.b", (64,)),
        ("embed.modality.table", (3, 64)), ("embed.time.table", (48, 64)),
    ] + _BODY + _ACTION_HEAD,
    "bc": _STATE_ACTION + [
        ("embed.modality.table", (2, 64)), ("embed.time.table", (48, 64)),
    ] + _BODY + _ACTION_HEAD,
}


class TestArena:
    def test_views_stay_in_arena(self, tmp_path, assert_in_arena):
        model = tf.TrajectoryTransformer(tf.ModelConfig())
        ps = model.params
        assert_in_arena(ps)
        fill = default_model_grads(model)
        fill()
        assert_in_arena(ps)
        nc.adam_step(ps, lr=1e-3)
        assert_in_arena(ps)
        ps.zero_grad()
        assert_in_arena(ps)
        assert not ps.grads.any()
        model.save(tmp_path / "c.ckpt")
        loaded = tf.TrajectoryTransformer.load(tmp_path / "c.ckpt")
        assert_in_arena(loaded.params)
        assert loaded.params.values.tobytes() == ps.values.tobytes()
        assert loaded.params.adam_m is None and loaded.params.adam_v is None

    def test_fused_qkv_views(self):
        model = tf.TrajectoryTransformer(tf.ModelConfig())
        attn = model.blocks[1]["attn"]
        d = model.config.d_model
        assert attn.wqkv.value.shape == (d, 3 * d) and attn.wqkv.value.flags.c_contiguous
        for i, stem in enumerate("qkv"):
            for kind, block in (("w", attn.wqkv), ("b", attn.bqkv)):
                p = model.params[f"block1.attn.{kind}{stem}"]
                part = block.value[..., i * d:(i + 1) * d]
                assert np.shares_memory(p.value, part) and np.array_equal(p.value, part)
                assert np.shares_memory(p.grad, block.grad[..., i * d:(i + 1) * d])

    def test_only_updated_in_place(self):
        ps = nc.ParameterSet()
        p = ps.add("w", np.ones(3))
        view = p.value
        p.value += 1.0
        p.grad -= 2.0
        assert p.value is view and np.array_equal(ps.values, [2.0, 2.0, 2.0])
        assert np.array_equal(ps.grads, [-2.0, -2.0, -2.0])
        with pytest.raises(AttributeError, match="in place"):
            p.value = np.zeros(3)
        with pytest.raises(AttributeError, match="in place"):
            p.grad = np.zeros(3)
        with pytest.raises(ValueError, match="in use"):
            ps.add("late", np.ones(1))

    def test_adam_matches_per_parameter_reference(self, adam_matches_reference):
        model = tf.TrajectoryTransformer(tf.ModelConfig())
        adam_matches_reference(model.params, default_model_grads(model), beta2=0.99)

    def test_adam_slices_match_per_parameter_reference(self, adam_matches_reference,
                                                       monkeypatch, gen):
        """An arena of several Adam slices, with slice edges inside
        parameters and a short last slice, updates bitwise like each
        parameter on its own, with scratch of one slice."""
        monkeypatch.setattr(nc, "ADAM_CHUNK", 4)
        ps = nc.ParameterSet()
        for name, shape in [("a", (5,)), ("b", (3, 3)), ("c", (2,)), ("d", (7,))]:
            ps.add(name, gen.normal(size=shape))

        def fill():
            ps.grads[...] = gen.normal(size=ps.size)

        adam_matches_reference(ps, fill)
        assert [buf.size for buf in ps._adam_scratch] == [4, 4]

    def test_nonfinite_gradient_leaves_state_untouched(self):
        model = tf.TrajectoryTransformer(tf.ModelConfig())
        ps = model.params
        fill = default_model_grads(model)
        for _ in range(2):
            fill()
            nc.adam_step(ps, lr=1e-3)
        fill()
        ps["block1.attn.wk"].grad[3, 5] = np.inf
        before = [a.copy() for a in (ps.values, ps.adam_m, ps.adam_v)]
        with pytest.raises(nc.NonFiniteGradientError, match="block1.attn.wk"):
            nc.adam_step(ps, lr=1e-3)
        assert ps.adam_t == 2
        for old, new in zip(before, (ps.values, ps.adam_m, ps.adam_v)):
            assert old.tobytes() == new.tobytes()

    @pytest.mark.parametrize("arch", ARCHS)
    def test_load_draws_nothing_and_resaves_same_bytes(self, arch, tmp_path, monkeypatch):
        first, second = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
        tf.TrajectoryTransformer(tf.ModelConfig(seed=3), ARCHS[arch]).save(first)

        def no_rng(*args, **kwargs):
            raise AssertionError("load drew from the RNG")

        monkeypatch.setattr(np.random, "PCG64", no_rng)
        tf.TrajectoryTransformer.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("arch", ARCHS)
    def test_checkpoint_layout_pinned(self, arch, tmp_path, checkpoint_parts):
        path = tmp_path / "c.ckpt"
        tf.TrajectoryTransformer(tf.ModelConfig(), ARCHS[arch]).save(path)
        params = checkpoint_parts.split(path)[0]["params"]
        assert [(name, tuple(rec["shape"])) for name, rec in params.items()] == \
            CHECKPOINT_LAYOUTS[arch]
