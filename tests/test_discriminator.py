import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bagbid import discriminator as dsc
from bagbid import nncore as nc
from bagbid.discriminator import DISC_INPUT_DIM
from bagbid.trajectory import STATE_DIM


def toy_sets(rng, n=500, separable=True):
    """Expert actions in a narrow band; offline actions uniform.  With
    ``separable`` the offline draw excludes the expert band entirely."""
    se = rng.normal(0.5, 0.2, size=(n, STATE_DIM))
    so = rng.normal(0.5, 0.2, size=(n, STATE_DIM))
    ae = rng.uniform(2.2, 2.8, size=(n, 1))
    if separable:
        lo = rng.uniform(0.0, 2.0, size=(n, 1))
        hi = rng.uniform(3.0, 8.0, size=(n, 1))
        ao = np.where(rng.random((n, 1)) < 2.0 / 7.0, lo, hi)
    else:
        ao = rng.uniform(0.0, 8.0, size=(n, 1))
    return np.concatenate([se, ae], axis=1), np.concatenate([so, ao], axis=1)


def pairwise_auc(pos_scores, neg_scores):
    """Exhaustive pair-count ranking AUC."""
    pos = np.asarray(pos_scores)[:, None]
    neg = np.asarray(neg_scores)[None, :]
    return float((pos > neg).mean() + 0.5 * (pos == neg).mean())


class TestScore:
    def test_zero_initialized_final_layer(self):
        model = dsc.DiscriminatorModel(seed=0)
        x = np.concatenate([np.linspace(0, 1, STATE_DIM), [1.5]])[None, :]
        (logit,) = model.forward(x)
        assert logit == 0.0
        assert dsc.sigmoid(np.array(logit)) == 0.5

    def test_deterministic(self, rng):
        model = dsc.DiscriminatorModel(seed=1)
        model.params["fc3.w"].value[...] = 0.3
        x = np.concatenate([rng.normal(size=STATE_DIM), [2.0]])[None, :]
        assert model.forward(x)[0] == model.forward(x)[0]

    def test_dimension_mismatch(self):
        model = dsc.DiscriminatorModel(seed=0)
        with pytest.raises(dsc.DatasetSchemaError):
            model.forward(np.zeros((1, STATE_DIM)))  # a state without its action
        with pytest.raises(dsc.DatasetSchemaError):
            model.forward(np.zeros((3, 5)))

    def test_trained_separation(self, rng):
        xe, xo = toy_sets(rng, n=300)
        model, _ = dsc.train_discriminator(
            xe, xo, dsc.DiscConfig(steps=600, lr=3e-3, seed=0, class_prior=0.2)
        )
        assert dsc.sigmoid(model.forward(xe)).mean() > dsc.sigmoid(model.forward(xo)).mean()


class TestNnpuLoss:
    def test_golden_all_zero_logits(self):
        loss, _, _ = dsc.nnpu_loss_from_logits(np.zeros(10), np.zeros(20), 0.01)
        assert loss == pytest.approx(math.log(2), abs=1e-6)

    def test_clamp_active_equals_positive_term(self):
        e = np.full(8, 5.0)
        o = np.full(8, -5.0)
        eta = 0.01
        loss, d_e, d_o = dsc.nnpu_loss_from_logits(e, o, eta)
        expected = eta * float(dsc.softplus(np.array(-5.0)))
        assert loss == expected
        assert np.all(d_o == 0.0)

    def test_eta_to_zero_is_offline_negative_ce(self, rng):
        e = rng.normal(size=12)
        o = rng.normal(size=15)
        loss, _, _ = dsc.nnpu_loss_from_logits(e, o, 1e-12)
        assert loss == pytest.approx(float(dsc.softplus(o).mean()), abs=1e-9)

    def test_unclamped_equals_three_term_sum(self, rng):
        e = rng.normal(size=10) - 3.0  # low expert logits: big slack
        o = rng.normal(size=10) + 1.0
        eta = 0.1
        loss, _, _ = dsc.nnpu_loss_from_logits(e, o, eta)
        three_term = (
            eta * dsc.softplus(-e).mean()
            + dsc.softplus(o).mean()
            - eta * dsc.softplus(e).mean()
        )
        assert loss == pytest.approx(float(three_term), rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(dsc.DatasetSchemaError):
            dsc.nnpu_loss_from_logits(np.array([]), np.zeros(3), 0.1)

    @given(
        e=st.lists(st.floats(-30, 30), min_size=1, max_size=20),
        o=st.lists(st.floats(-30, 30), min_size=1, max_size=20),
        eta=st.floats(1e-6, 0.999),
    )
    @settings(max_examples=300, deadline=None)
    def test_nonnegative(self, e, o, eta):
        loss, _, _ = dsc.nnpu_loss_from_logits(np.array(e), np.array(o), eta)
        assert loss >= 0.0
        assert loss >= eta * dsc.softplus(-np.array(e)).mean() - 1e-12

    def test_grad_check_both_branches(self, rng, grad_check):
        model = dsc.DiscriminatorModel(hidden=8, seed=3)
        model.params["fc3.w"].value[...] = rng.normal(0, 0.5, (8, 1))
        eb = rng.normal(size=(6, DISC_INPUT_DIM))
        ob = rng.normal(size=(7, DISC_INPUT_DIM))

        cases = []
        # unclamped: typical logits
        cases.append((eb, ob, 0.1))
        # clamped: pick inputs the model already scores low for the offline
        # batch and high for the expert batch, with a large prior
        pool = rng.normal(size=(400, DISC_INPUT_DIM))
        logits = model.forward(pool)
        order = np.argsort(logits)
        ob_neg = pool[order[:7]]
        eb_pos = pool[order[-6:]]
        cases.append((eb_pos, ob_neg, 0.9))

        seen_branches = set()
        for e_in, o_in, eta in cases:
            def loss_fn():
                return dsc.nnpu_loss_from_logits(model.forward(e_in), model.forward(o_in), eta)[0]

            model.params.zero_grad()
            logits = model.forward(np.concatenate([e_in, o_in]))
            loss, d_e, d_o = dsc.nnpu_loss_from_logits(
                logits[: len(e_in)], logits[len(e_in):], eta
            )
            seen_branches.add(bool(np.all(d_o == 0.0)))
            model.backward(np.concatenate([d_e, d_o]))
            tensors = [p.value for _, p in model.params.items()]
            grads = [p.grad for _, p in model.params.items()]
            assert grad_check(loss_fn, tensors, grads) < 1e-4
        assert seen_branches == {True, False}  # both clamp branches exercised


class TestPlainCe:
    def test_matches_supervised_ce(self, rng):
        e = rng.normal(size=9)
        o = rng.normal(size=11)
        loss, _, _ = dsc.plain_ce_loss_from_logits(e, o)
        expected = dsc.softplus(-e).mean() + dsc.softplus(o).mean()
        assert loss == pytest.approx(float(expected), rel=1e-12)


class TestTraining:
    def test_separable_auc(self, rng):
        xe, xo = toy_sets(rng, n=400)
        xe_h, xo_h = toy_sets(rng, n=400)
        model, _ = dsc.train_discriminator(
            xe, xo, dsc.DiscConfig(steps=1500, lr=3e-3, seed=0)
        )
        auc = pairwise_auc(
            dsc.sigmoid(model.forward(xe_h)), dsc.sigmoid(model.forward(xo_h))
        )
        assert auc >= 0.95

    def test_loss_curve_trends_down(self, rng):
        xe, xo = toy_sets(rng, n=128)
        cfg = dsc.DiscConfig(steps=300, lr=1e-3, seed=0, batch_size=128)
        _, curve = dsc.train_discriminator(xe, xo, cfg)
        # full-batch steps: compare 10-step moving averages
        avg = np.convolve(curve, np.ones(10) / 10, mode="valid")
        assert avg[-1] <= avg[0]
        # overall trend monotone within optimizer noise
        coarse = avg[:: len(avg) // 6][:6]
        assert all(b <= a + 0.05 for a, b in zip(coarse, coarse[1:]))

    def test_zero_steps_untrained(self, rng):
        xe, xo = toy_sets(rng, n=32)
        model, curve = dsc.train_discriminator(xe, xo, dsc.DiscConfig(steps=0, seed=0))
        assert curve == []
        assert np.all(dsc.sigmoid(model.forward(xo)) == 0.5)

    def test_deterministic_per_seed(self, rng):
        xe, xo = toy_sets(rng, n=64)
        cfg = dsc.DiscConfig(steps=50, seed=4)
        m1, c1 = dsc.train_discriminator(xe, xo, cfg)
        m2, c2 = dsc.train_discriminator(xe, xo, cfg)
        assert c1 == c2
        for (n1, p1), (n2, p2) in zip(m1.params.items(), m2.params.items()):
            assert n1 == n2 and np.array_equal(p1.value, p2.value)

    def test_schema_mismatch(self, rng):
        with pytest.raises(dsc.DatasetSchemaError):
            dsc.train_discriminator(rng.normal(size=(4, STATE_DIM)),
                                    rng.normal(size=(4, DISC_INPUT_DIM)),
                                    dsc.DiscConfig(steps=1))


class TestAssignLevels:
    def test_median_split(self):
        levels = dsc.assign_levels([0.1, 0.2, 0.8, 0.9], 2, [False] * 4)
        assert levels.tolist() == [0, 0, 1, 1]

    def test_expert_forced_to_top(self):
        levels = dsc.assign_levels([0.1, 0.5], 2, [True, True])
        assert levels.tolist() == [1, 1]

    def test_mixed_forcing(self):
        levels = dsc.assign_levels([0.05, 0.1, 0.2, 0.8, 0.9], 2,
                                   [True, False, False, False, False])
        assert levels[0] == 1
        assert levels[1:].tolist() == [0, 0, 1, 1]

    def test_degenerate_constant_scores(self):
        with pytest.raises(dsc.DegenerateBinningError):
            dsc.assign_levels([0.5, 0.5, 0.5, 0.5], 2, [False] * 4)

    def test_k_exceeds_distinct(self):
        with pytest.raises(dsc.DegenerateBinningError):
            dsc.assign_levels([0.1, 0.9, 0.1, 0.9], 3, [False] * 4)

    def test_monotone_in_score(self, rng):
        scores = rng.random(200)
        levels = dsc.assign_levels(scores, 4, np.zeros(200, dtype=bool))
        order = np.argsort(scores)
        assert np.all(np.diff(levels[order]) >= 0)
        assert set(levels.tolist()) == {0, 1, 2, 3}

    def test_k_validation(self):
        with pytest.raises(ValueError):
            dsc.assign_levels([0.1, 0.9], 1, [False, False])
        with pytest.raises(ValueError):
            dsc.assign_levels([], 2, [])


class TestArena:
    def _grads(self, model, rng):
        xe, xo = toy_sets(rng, n=64)

        def fill():
            model.params.zero_grad()
            logits = model.forward(np.concatenate([xe, xo]))
            _, d_e, d_o = dsc.nnpu_loss_from_logits(logits[:64], logits[64:], 0.2)
            model.backward(np.concatenate([d_e, d_o]))

        return fill

    def test_views_stay_in_arena(self, rng, tmp_path, assert_in_arena):
        model = dsc.DiscriminatorModel(seed=1)
        assert_in_arena(model.params)
        self._grads(model, rng)()
        nc.adam_step(model.params, lr=1e-3)
        assert_in_arena(model.params)
        model.params.zero_grad()
        assert_in_arena(model.params)
        model.save(tmp_path / "d.ckpt")
        assert_in_arena(dsc.DiscriminatorModel.load(tmp_path / "d.ckpt").params)

    def test_adam_matches_per_parameter_reference(self, rng, adam_matches_reference):
        model = dsc.DiscriminatorModel(seed=1)
        # the zero-initialised last layer gets gradients from the first step
        adam_matches_reference(model.params, self._grads(model, rng))

    def test_load_draws_nothing_and_resaves_same_bytes(self, rng, tmp_path, monkeypatch):
        xe, xo = toy_sets(rng, n=64)
        model, _ = dsc.train_discriminator(xe, xo, dsc.DiscConfig(steps=5, seed=2))
        first, second = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
        model.save(first)

        def no_rng(*args, **kwargs):
            raise AssertionError("load drew from the RNG")

        monkeypatch.setattr(np.random, "PCG64", no_rng)
        dsc.DiscriminatorModel.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()

    def test_checkpoint_layout_pinned(self, tmp_path, checkpoint_parts):
        path = tmp_path / "d.ckpt"
        dsc.DiscriminatorModel().save(path)
        params = checkpoint_parts.split(path)[0]["params"]
        assert [(name, tuple(rec["shape"])) for name, rec in params.items()] == [
            ("fc1.w", (9, 64)), ("fc1.b", (64,)), ("fc2.w", (64, 64)), ("fc2.b", (64,)),
            ("fc3.w", (64, 1)), ("fc3.b", (1,)),
        ]


class TestPersistence:
    def test_save_load_identical_scores(self, rng, tmp_path):
        xe, xo = toy_sets(rng, n=64)
        model, _ = dsc.train_discriminator(xe, xo, dsc.DiscConfig(steps=40, seed=2))
        path = tmp_path / "disc.ckpt"
        model.save(path)
        loaded = dsc.DiscriminatorModel.load(path)
        x = rng.normal(size=(10, DISC_INPUT_DIM))
        assert np.array_equal(model.forward(x), loaded.forward(x))
        assert loaded.params._buffers.grads is None  # scoring allocates no gradients

    def test_loaded_model_freed_by_refcount(self, rng, tmp_path, without_gc):
        """A loaded model that has scored goes with its last reference, with
        the cyclic garbage collector off."""
        path = tmp_path / "disc.ckpt"
        dsc.DiscriminatorModel(hidden=8, seed=1).save(path)
        loaded = dsc.DiscriminatorModel.load(path)
        values = weakref.ref(loaded.params.values)
        loaded.forward(rng.normal(size=(10, DISC_INPUT_DIM)))
        del loaded
        assert values() is None

    def test_loads_checkpoint_with_class_prior_in_meta(self, rng, tmp_path,
                                                      checkpoint_parts):
        """A checkpoint written when the model still stored the class prior
        loads, and scores as the model that wrote it."""
        path = tmp_path / "disc.ckpt"
        model = dsc.DiscriminatorModel(hidden=4, seed=5)
        model.params["fc3.w"].value[...] = rng.normal(size=(4, 1))
        model.save(path)
        header, data = checkpoint_parts.split(path)
        assert "class_prior" not in header["meta"]
        header["meta"]["class_prior"] = 0.01
        checkpoint_parts.join(path, header, data)
        loaded = dsc.DiscriminatorModel.load(path)
        assert not hasattr(loaded, "class_prior")
        x = rng.normal(size=(6, DISC_INPUT_DIM))
        assert np.array_equal(loaded.forward(x), model.forward(x))
