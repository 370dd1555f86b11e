import json

import numpy as np
import pytest

from bagbid import nncore as nc


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

    def test_grad_check(self, gen):
        x = gen.normal(size=(4, 8))
        w = gen.normal(size=(8, 3))
        b = gen.normal(size=3)
        dy = gen.normal(size=(4, 3))

        def loss():
            y, _ = nc.affine_forward(x, w, b)
            return float((y * dy).sum())

        y, cache = nc.affine_forward(x, w, b)
        dx, dw, db = nc.affine_backward(dy, cache)
        assert nc.grad_check(loss, [x, w, b], [dx, dw, db]) < 1e-6


class TestLayerNorm:
    def test_normalized_rows(self, gen):
        x = gen.normal(3.0, 5.0, size=(6, 16))
        y, (xhat, *_ ) = nc.layer_norm_forward(x, np.ones(16), np.zeros(16))
        assert np.abs(xhat.mean(axis=-1)).max() < 1e-6
        assert np.abs(xhat.var(axis=-1) - 1.0).max() < 1e-4  # eps-shifted variance

    def test_grad_check(self, gen):
        x = gen.normal(size=(4, 8))
        g = gen.normal(size=8) + 1.0
        b = gen.normal(size=8)
        dy = gen.normal(size=(4, 8))

        def loss():
            y, _ = nc.layer_norm_forward(x, g, b)
            return float((y * dy).sum())

        y, cache = nc.layer_norm_forward(x, g, b)
        dx, dg, dbeta = nc.layer_norm_backward(dy, cache)
        assert nc.grad_check(loss, [x, g, b], [dx, dg, dbeta]) < 1e-5


class TestGelu:
    def test_zero_fixed_point(self):
        y, _ = nc.gelu_forward(np.zeros(3))
        assert np.array_equal(y, np.zeros(3))

    def test_grad_check(self, gen):
        x = gen.normal(size=(5, 7))
        dy = gen.normal(size=(5, 7))

        def loss():
            y, _ = nc.gelu_forward(x)
            return float((y * dy).sum())

        y, cache = nc.gelu_forward(x)
        dx = nc.gelu_backward(dy, cache)
        assert nc.grad_check(loss, [x], [dx]) < 1e-5


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

    def test_grad_check(self, gen):
        ps, attn, x = self._setup(gen)
        dy = gen.normal(size=x.shape)

        def loss():
            vals = [p.value for p in attn.params]
            y, _ = nc.causal_attention_forward(x, *vals, attn.n_heads)
            return float((y * dy).sum())

        attn.forward(x)
        ps.zero_grad()
        dx = attn.backward(dy)
        tensors = [x] + [p.value for p in attn.params]
        grads = [dx] + [p.grad for p in attn.params]
        assert nc.grad_check(loss, tensors, grads) < 1e-4

    @pytest.mark.parametrize("length", [1, nc.ATTN_BLOCK - 1, nc.ATTN_BLOCK,
                                        2 * nc.ATTN_BLOCK + 3])
    def test_matches_naive_reference(self, gen, length):
        dim, heads = 16, 2  # 1/sqrt(8) is inexact, so folding it into q rounds
        x = gen.normal(size=(3, length, dim))
        params = []
        for _ in range(4):
            params += [gen.normal(0.0, 0.3, (dim, dim)), gen.normal(0.0, 0.3, dim)]
        dy = gen.normal(size=x.shape)
        y, cache = nc.causal_attention_forward(x, *params, heads)
        grads = nc.causal_attention_backward(dy, cache)
        y_ref, backward = naive_attention(x, *params, heads)
        assert np.abs(y - y_ref).max() <= 1e-10 * max(1.0, np.abs(y_ref).max())
        ref_grads = backward(dy)
        assert len(grads) == len(ref_grads) == 9
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape
            assert np.abs(g - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    def test_grad_check_batched_blocks(self, gen):
        ps = nc.ParameterSet()
        attn = nc.CausalSelfAttention(ps, "a", 8, 2, gen, w_std=0.3)
        x = gen.normal(size=(2, nc.ATTN_BLOCK + 2, 8))
        dy = gen.normal(size=x.shape)

        def loss():
            vals = [p.value for p in attn.params]
            y, _ = nc.causal_attention_forward(x, *vals, attn.n_heads)
            return float((y * dy).sum())

        attn.forward(x)
        ps.zero_grad()
        dx = attn.backward(dy)
        tensors = [x] + [p.value for p in attn.params]
        grads = [dx] + [p.grad for p in attn.params]
        assert nc.grad_check(loss, tensors, grads) < 1e-4

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
        y_ref, _ = nc.causal_attention_forward(x, *params, heads)
        kv = tuple(np.zeros((batch, heads, length, dim // heads)) for _ in range(2))
        outs = []
        for start in range(0, length, chunk):
            y, cache = nc.causal_attention_forward(x[:, start:start + chunk], *params,
                                                   heads, kv, start)
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
    def test_lookup_and_grad(self, gen):
        table = gen.normal(size=(5, 3))
        idx = np.array([[0, 2], [2, 4]])
        dy = gen.normal(size=(2, 2, 3))
        y, cache = nc.embedding_forward(table, idx)
        assert np.array_equal(y[0, 1], table[2])
        dtable = nc.embedding_backward(dy, cache)

        def loss():
            out, _ = nc.embedding_forward(table, idx)
            return float((out * dy).sum())

        assert nc.grad_check(loss, [table], [dtable]) < 1e-6

    def test_out_of_range(self, gen):
        with pytest.raises(nc.ShapeError):
            nc.embedding_forward(gen.normal(size=(4, 2)), np.array([4]))


class TestCheckpoint:
    def test_roundtrip_bitwise(self, gen, tmp_path):
        ps = nc.ParameterSet()
        ps.add("a.w", gen.normal(size=(3, 4)))
        ps.add("a.b", gen.normal(size=4))
        path = tmp_path / "ckpt.json"
        ps.save(path, meta={"note": "test"})

        state, meta = nc.ParameterSet.load_payload(path)
        assert meta["note"] == "test"
        assert np.array_equal(state["a.w"], ps["a.w"].value)
        assert np.array_equal(state["a.b"], ps["a.b"].value)

    def test_versioned_header(self, gen, tmp_path):
        ps = nc.ParameterSet()
        ps.add("w", np.ones(2))
        path = tmp_path / "c.json"
        ps.save(path)
        with open(path) as f:
            payload = json.load(f)
        assert payload["format"] == nc.CHECKPOINT_FORMAT
        assert payload["version"] == nc.CHECKPOINT_VERSION

    def test_shape_mismatch_rejected(self, tmp_path):
        ps = nc.ParameterSet()
        ps.add("w", np.ones(2))
        path = tmp_path / "c.json"
        ps.save(path)
        other = nc.ParameterSet()
        other.add("w", np.ones(3))
        state, _ = nc.ParameterSet.load_payload(path)
        with pytest.raises(nc.ShapeError):
            other.load_state_dict(state)
