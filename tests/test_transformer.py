import dataclasses
import math
import weakref

import numpy as np
import pytest

from bagbid import nncore as nc
from bagbid import transformer as tf


@pytest.fixture
def tiny_cfg():
    return tf.ModelConfig(d_model=16, n_layers=1, n_heads=2, context_steps=8,
                          bag_len=4, k_levels=2, seed=0)


def random_steps(rng, batch, steps):
    return (
        rng.normal(size=(batch, steps, 8)),
        rng.normal(size=(batch, steps)),
        rng.uniform(0, 5, size=(batch, steps)),
        rng.integers(0, 2, size=(batch, steps)),
    )


def all_rows_forward(model, states, rtgs, actions, levels):
    """Reference forward with no row cut: every block computes every
    token, and the heads pick their rows out of the final hidden states.
    Returns (rtg_pred, action_pred, backward), where ``backward(d_rtg,
    d_act)`` accumulates the parameter gradients like ``model.backward``."""
    arch, k = model.arch, model.arch.tokens_per_step
    h = model._step_embeddings(states, rtgs, actions, levels)
    for blk in model.blocks:
        h = h + blk["attn"].forward(blk["ln1"].forward(h))
        h = h + blk["fc2"].forward(blk["gelu"].forward(blk["fc1"].forward(blk["ln2"].forward(h))))
    h = model.ln_f.forward(h)
    rtg_pred = model.rtg_head.forward(h[:, 0::k])[..., 0] if arch.use_rtg_head else None
    act_pred = model.act_head.forward(h[:, arch.action_token::k])[..., 0]

    def backward(d_rtg, d_act):
        dh = np.zeros(h.shape)
        if arch.use_rtg_head:
            dh[:, 0::k] += model.rtg_head.backward(d_rtg[..., None])
        dh[:, arch.action_token::k] += model.act_head.backward(d_act[..., None])
        dh = model.ln_f.backward(dh)
        for blk in reversed(model.blocks):
            dh = dh + blk["ln2"].backward(
                blk["fc1"].backward(blk["gelu"].backward(blk["fc2"].backward(dh))))
            dh = dh + blk["ln1"].backward(blk["attn"].backward(dh))
        model._step_embeddings_backward(dh)

    return rtg_pred, act_pred, backward


def perturbed(model, seed=3, std=0.2):
    """``model`` with noise added to every parameter, so that attention
    weights and head outputs are far from their near-zero initial values."""
    gen = np.random.Generator(np.random.PCG64(seed))
    for _, p in model.params.items():
        p.value += gen.normal(0.0, std, p.value.shape)
    return model


ROW_CUT_ARCHS = {"full": tf.ARCH_FULL, "no-level": tf.ARCH_NO_LEVEL, "dt": tf.ARCH_DT,
                 "bc": tf.ARCH_BC}


class TestConfigValidation:
    def test_context_bag_divisibility(self):
        with pytest.raises(tf.ConfigError):
            tf.ModelConfig(context_steps=10, bag_len=8)

    def test_head_divisibility(self):
        with pytest.raises(tf.ConfigError):
            tf.ModelConfig(d_model=30, n_heads=4)


class TestTokenization:
    def test_token_index_arithmetic(self, tiny_cfg, rng):
        """s_t, R_t, a_t occupy token slots 3t, 3t+1, 3t+2."""
        model = tf.TrajectoryTransformer(tiny_cfg)
        s, r, a, lv = random_steps(rng, 1, 4)
        tokens = model._step_embeddings(s, r, a, lv)
        assert tokens.shape[1] == 3 * 4
        # rebuild one token by hand: slot 3t must be the state embedding
        t = 2
        e_s = s[:, t] @ model.params["embed.state.w"].value + model.params["embed.state.b"].value
        shared = (
            model.params["embed.time.table"].value[t]
            + model.params["embed.bag.table"].value[t % tiny_cfg.bag_len]
            + model.params["embed.level.table"].value[lv[0, t]]
            + model.params["embed.modality.table"].value[0]
        )
        assert np.allclose(tokens[0, 3 * t], e_s[0] + shared, atol=1e-12)

    def test_single_bag_positions(self, rng):
        cfg = tf.ModelConfig(d_model=16, n_layers=1, n_heads=2, context_steps=8,
                             bag_len=8, seed=0)
        model = tf.TrajectoryTransformer(cfg)
        s, r, a, lv = random_steps(rng, 1, 8)
        model._step_embeddings(s, r, a, lv)
        # the bag table is looked up once per step and shared by the batch
        _, bag_idx = model.bag_emb._cache
        assert bag_idx.tolist() == list(range(8))

    def test_mod_arithmetic_positions(self, rng):
        cfg = tf.ModelConfig(d_model=16, n_layers=1, n_heads=2, context_steps=16,
                             bag_len=8, seed=0)
        model = tf.TrajectoryTransformer(cfg)
        s, r, a, lv = random_steps(rng, 1, 16)
        model._step_embeddings(s, r, a, lv)
        _, bag_idx = model.bag_emb._cache
        assert bag_idx[9] == 1

    def test_level_changes_tokens(self, tiny_cfg, rng):
        model = tf.TrajectoryTransformer(tiny_cfg)
        s, r, a, lv = random_steps(rng, 1, 4)
        t1 = model._step_embeddings(s, r, a, np.zeros_like(lv))
        t2 = model._step_embeddings(s, r, a, np.ones_like(lv))
        assert not np.array_equal(t1, t2)

    def test_context_overflow(self, tiny_cfg, rng):
        model = tf.TrajectoryTransformer(tiny_cfg)
        s, r, a, lv = random_steps(rng, 1, 9)
        with pytest.raises(tf.ContextOverflowError):
            model._step_embeddings(s, r, a, lv)


class TestForward:
    def test_causality_last_action(self, tiny_cfg, rng):
        model = tf.TrajectoryTransformer(tiny_cfg)
        s, r, a, lv = random_steps(rng, 1, 8)
        rp1, ap1 = model.forward(s, r, a, lv)
        a2 = a.copy()
        a2[0, -1] += 10.0
        rp2, ap2 = model.forward(s, r, a2, lv)
        assert np.array_equal(rp1, rp2)
        assert np.array_equal(ap1, ap2)

    def test_causality_midpoint(self, tiny_cfg, rng):
        model = tf.TrajectoryTransformer(tiny_cfg)
        s, r, a, lv = random_steps(rng, 1, 8)
        rp1, ap1 = model.forward(s, r, a, lv)
        s2 = s.copy()
        s2[0, 5] += 1.0
        rp2, ap2 = model.forward(s2, r, a, lv)
        assert np.array_equal(rp1[:, :5], rp2[:, :5])
        assert np.array_equal(ap1[:, :5], ap2[:, :5])
        assert not np.array_equal(rp1[:, 5:], rp2[:, 5:])

    def test_seeds_give_different_outputs(self, tiny_cfg, rng):
        s, r, a, lv = random_steps(rng, 1, 4)
        m1 = tf.TrajectoryTransformer(dataclasses.replace(tiny_cfg, seed=1))
        m2 = tf.TrajectoryTransformer(dataclasses.replace(tiny_cfg, seed=2))
        rp1, ap1 = m1.forward(s, r, a, lv)
        rp2, ap2 = m2.forward(s, r, a, lv)
        assert not np.array_equal(ap1, ap2)
        assert np.std(ap1) > 0  # no degenerate constant head

    def test_grad_check_full_loss(self, tiny_cfg, rng, grad_check):
        cfg = tf.ModelConfig(d_model=16, n_layers=1, n_heads=2, context_steps=2,
                             bag_len=2, seed=0)
        model = tf.TrajectoryTransformer(cfg)
        s, r, a, lv = random_steps(rng, 1, 2)
        rt, at = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))

        def loss_fn():
            rp, ap = model.forward(s, r, a, lv)
            return tf.loss_terms(rp, ap, rt, at)[0]

        model.params.zero_grad()
        rp, ap = model.forward(s, r, a, lv)
        d_r, d_a = tf.loss_grads(rp, ap, rt, at)
        model.backward(d_r, d_a)
        tensors = [p.value for _, p in model.params.items()]
        grads = [p.grad for _, p in model.params.items()]
        assert grad_check(loss_fn, tensors, grads) < 1e-4


    @pytest.mark.parametrize("arch", ["full", "dt", "bc"])
    def test_grad_check_two_layers(self, arch, rng, grad_check):
        """With two layers the last block, which computes only the rows the
        heads read, is not also the first."""
        cfg = tf.ModelConfig(d_model=8, n_layers=2, n_heads=2, context_steps=2,
                             bag_len=2, seed=0)
        model = perturbed(tf.TrajectoryTransformer(cfg, ROW_CUT_ARCHS[arch]))
        s, r, a, lv = random_steps(rng, 1, 2)
        rt, at = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))

        def loss_fn():
            rp, ap = model.forward(s, r, a, lv)
            return tf.loss_terms(rp, ap, rt, at)[0]

        model.params.zero_grad()
        rp, ap = model.forward(s, r, a, lv)
        model.backward(*tf.loss_grads(rp, ap, rt, at))
        tensors = [p.value for _, p in model.params.items()]
        grads = [p.grad for _, p in model.params.items()]
        assert grad_check(loss_fn, tensors, grads) < 1e-4


class TestRowCut:
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("arch", ROW_CUT_ARCHS)
    def test_matches_all_rows_reference(self, arch, n_layers, rng):
        """Head outputs and gradients equal those of the forward that runs
        every token through every block, up to rounding."""
        cfg = tf.ModelConfig(d_model=16, n_layers=n_layers, n_heads=2, context_steps=32,
                             bag_len=8, k_levels=2, seed=0)
        model = perturbed(tf.TrajectoryTransformer(cfg, ROW_CUT_ARCHS[arch]))
        s, r, a, lv = random_steps(rng, 3, 32)
        rt, at = rng.normal(size=(3, 32)), rng.normal(size=(3, 32))

        model.params.zero_grad()
        rp_ref, ap_ref, backward = all_rows_forward(model, s, r, a, lv)
        backward(*tf.loss_grads(rp_ref, ap_ref, rt, at))
        ref_grads = model.params.grads.copy()
        model.params.zero_grad()
        rp, ap = model.forward(s, r, a, lv)
        model.backward(*tf.loss_grads(rp, ap, rt, at))

        for out, ref in [(ap, ap_ref)] + ([(rp, rp_ref)] if rp_ref is not None else []):
            assert out.shape == ref.shape
            assert np.abs(out - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        assert (rp is None) == (rp_ref is None)
        grads = model.params.grads
        assert np.abs(grads - ref_grads).max() <= 1e-12 * np.abs(ref_grads).max()

    @pytest.mark.parametrize("arch, share", [("full", (2, 3)), ("dt", (1, 3)), ("bc", (1, 2))])
    def test_last_block_mlp_runs_on_read_rows(self, arch, share, rng):
        """The last block's MLP and the final layer norm see only the s_t
        and R_t rows with a return head, the action token's otherwise."""
        cfg = tf.ModelConfig(d_model=16, n_layers=2, n_heads=2, context_steps=8,
                             bag_len=4, seed=0)
        model = tf.TrajectoryTransformer(cfg, ROW_CUT_ARCHS[arch])
        model.forward(*random_steps(rng, 2, 8))
        all_rows = model.blocks[0]["fc1"]._cache[0].shape[0]
        read = model.blocks[-1]["fc1"]._cache[0].shape[0]
        assert all_rows == 2 * 8 * model.arch.tokens_per_step
        assert read * share[1] == all_rows * share[0]
        assert model.ln_f._cache[0].shape[:2] == (2, read // 2)


class TestLoss:
    def test_exact_predictions_zero_loss(self, rng):
        x = rng.normal(size=(3, 5))
        y = rng.normal(size=(3, 5))
        total, rtg_l, act_l = tf.loss_terms(x, y, x, y)
        assert total == 0.0

    def test_single_step_unit_error(self):
        rtg_pred = np.zeros((1, 4))
        rtg_tgt = np.zeros((1, 4))
        rtg_pred[0, 2] = 1.0
        act = np.zeros((1, 4))
        total, rtg_l, act_l = tf.loss_terms(rtg_pred, act, rtg_tgt, act)
        assert total == 1.0 and rtg_l == 1.0 and act_l == 0.0

    def test_batch_averaging(self, rng):
        p = rng.normal(size=(4, 6))
        t = rng.normal(size=(4, 6))
        a = rng.normal(size=(4, 6))
        total, _, _ = tf.loss_terms(p, a, t, a)
        assert total == pytest.approx(float(((p - t) ** 2).sum()) / 4)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            tf.loss_terms(np.zeros((1, 3)), np.zeros((1, 4)), np.zeros((1, 3)),
                          np.zeros((1, 3)))


class TestArchVariants:
    def test_bc_has_no_rtg_parameters(self, tiny_cfg):
        model = tf.TrajectoryTransformer(tiny_cfg, tf.ARCH_BC)
        names = model.params.names()
        assert not any("head.rtg" in n for n in names)
        assert not any("embed.rtg" in n for n in names)
        assert not any("embed.level" in n for n in names)

    def test_dt_keeps_rtg_tokens_drops_head(self, tiny_cfg):
        model = tf.TrajectoryTransformer(tiny_cfg, tf.ARCH_DT)
        names = model.params.names()
        assert any("embed.rtg" in n for n in names)
        assert not any("head.rtg" in n for n in names)
        assert not any("embed.level" in n for n in names)
        assert not any("embed.bag" in n for n in names)

    def test_no_level_arch_drops_level_table(self, tiny_cfg):
        model = tf.TrajectoryTransformer(tiny_cfg, tf.ARCH_NO_LEVEL)
        assert not any("embed.level" in n for n in model.params.names())
        assert any("embed.bag" in n for n in model.params.names())

    def test_bc_forward(self, tiny_cfg, rng):
        model = tf.TrajectoryTransformer(tiny_cfg, tf.ARCH_BC)
        s, r, a, lv = random_steps(rng, 2, 4)
        rtg_pred, act_pred = model.forward(s, r, a, lv)
        assert rtg_pred is None
        assert act_pred.shape == (2, 4)

    @pytest.mark.parametrize("arch, token", [
        (tf.ARCH_FULL, 1), (tf.ARCH_NO_LEVEL, 1), (tf.ARCH_DT, 1), (tf.ARCH_BC, 0),
    ], ids=["full", "no-level", "dt", "bc"])
    def test_action_token_is_not_a_checkpoint_field(self, arch, token):
        """The action head reads R_t, or s_t without return tokens; the
        position is derived, so checkpoints store only the four switches."""
        assert arch.action_token == token
        assert [f.name for f in dataclasses.fields(arch)] == [
            "use_rtg_tokens", "use_rtg_head", "use_bag_embedding", "use_level_embedding"]


class TestShards:
    @pytest.mark.parametrize("arch", ROW_CUT_ARCHS)
    def test_shard_gradients_sum_to_the_batch_gradient(self, arch, tiny_cfg, rng):
        """The two shards' gradients add up to the whole batch's, and their
        squared-error sums over the batch size to its losses, up to
        rounding.  Both shards add into the one model's gradients, zeroed
        once, as in ``train_model``."""
        model = perturbed(tf.TrajectoryTransformer(tiny_cfg, ROW_CUT_ARCHS[arch]))
        s, r, a, lv = random_steps(rng, 5, 8)
        data = tf.TrainingBatch(s, a, r, lv)
        model.params.zero_grad()
        rtg_pred, act_pred = model.forward(s, r, a, lv)
        _, rtg_l, act_l = tf.loss_terms(rtg_pred, act_pred, r, a)
        model.backward(*tf.loss_grads(rtg_pred, act_pred, r, a))
        ref = model.params.grads.copy()

        model.params.zero_grad()
        sums = [tf.shard_step(model, data, rows, 5) for rows in np.array_split(np.arange(5), 2)]
        grads = model.params.grads
        assert np.abs(grads - ref).max() <= 1e-12 * np.abs(ref).max()
        assert (sums[0][0] + sums[1][0]) / 5 == pytest.approx(rtg_l, rel=1e-12, abs=0.0)
        assert (sums[0][1] + sums[1][1]) / 5 == pytest.approx(act_l, rel=1e-12)

    def test_empty_shard_adds_nothing(self, tiny_cfg, rng):
        model = tf.TrajectoryTransformer(tiny_cfg)
        before = rng.normal(size=model.params.size)
        model.params.grads[...] = before
        s, r, a, lv = random_steps(rng, 2, 8)
        data = tf.TrainingBatch(s, a, r, lv)
        assert tf.shard_step(model, data, np.array([], dtype=np.int64), 1) == (0.0, 0.0)
        assert np.array_equal(model.params.grads, before)


class TestTraining:
    def test_deterministic_checkpoint(self, tiny_cfg, rng, tmp_path):
        s, r, a, lv = random_steps(rng, 4, 8)
        data = tf.TrainingBatch(s, a, r, lv)
        cfg = tf.ModelConfig(**{**tiny_cfg.__dict__, "train_steps": 20, "batch_size": 2})
        m1 = tf.train_model(data, cfg)
        m2 = tf.train_model(data, cfg)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        m1.save(p1)
        m2.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loss_curve_pinned(self, tiny_cfg):
        """Losses of a fixed tiny run, recorded before the attention kernel
        was blocked and its q/k/v projections fused: kernel rewrites may
        change rounding only."""
        gen = np.random.Generator(np.random.PCG64(2024))
        s, r, a, lv = random_steps(gen, 4, 8)
        cfg = tf.ModelConfig(**{**tiny_cfg.__dict__, "train_steps": 40, "batch_size": 4})
        rows = []
        tf.train_model(tf.TrainingBatch(s, a, r, lv), cfg, log_rows=rows)
        recorded = {
            0: (13.050036503533857, 61.66575423826227),
            20: (11.995833924451262, 49.482622212341155),
            39: (7.85448362538933, 56.212419803213955),
        }
        for step, (rtg_loss, action_loss) in recorded.items():
            assert rows[step][0] == step
            assert rows[step][1] == pytest.approx(rtg_loss, rel=1e-9)
            assert rows[step][2] == pytest.approx(action_loss, rel=1e-9)

    def test_loss_decreases(self, tiny_cfg, rng):
        s, r, a, lv = random_steps(rng, 4, 8)
        data = tf.TrainingBatch(s, a, r, lv)
        cfg = tf.ModelConfig(**{**tiny_cfg.__dict__, "train_steps": 300, "batch_size": 4,
                                "lr": 3e-3})
        rows = []
        tf.train_model(data, cfg, log_rows=rows)
        first = np.mean([r + a for _, r, a in rows[:20]])
        last = np.mean([r + a for _, r, a in rows[-20:]])
        assert last < first * 0.2

    def test_save_load_roundtrip(self, tiny_cfg, rng, tmp_path):
        s, r, a, lv = random_steps(rng, 2, 8)
        model = tf.TrajectoryTransformer(tiny_cfg)
        path = tmp_path / "m.ckpt"
        model.save(path, extra_meta={"method": "test"})
        loaded = tf.TrajectoryTransformer.load(path)
        rp1, ap1 = model.forward(s, r, a, lv)
        rp2, ap2 = loaded.forward(s, r, a, lv)
        assert np.array_equal(rp1, rp2) and np.array_equal(ap1, ap2)
        assert loaded.loaded_meta["method"] == "test"

    def test_save_load_keeps_full_config(self, tiny_cfg, tmp_path):
        cfg = tf.ModelConfig(**{**tiny_cfg.__dict__, "lr": 3e-4, "batch_size": 3,
                                "train_steps": 17})
        arch = tf.Arch(use_rtg_tokens=False, use_level_embedding=False)
        path = tmp_path / "m.ckpt"
        tf.TrajectoryTransformer(cfg, arch).save(path)
        loaded = tf.TrajectoryTransformer.load(path)
        assert loaded.config == cfg and loaded.arch == arch


def _live_episode(policy) -> tf._LiveEpisode:
    return [c.cell_contents for c in policy.__closure__
            if isinstance(c.cell_contents, tf._LiveEpisode)][0]


def _roll(policy, market_config, constraints):
    """One episode through the lockstep policy (a batch of one)."""
    from bagbid.market import OpportunityStream, run_episodes

    (traj,) = run_episodes(policy, [OpportunityStream(market_config)], [constraints], ["c0"])
    return traj


class TestInference:
    @pytest.mark.parametrize("arch", [tf.ARCH_FULL, tf.ARCH_DT, tf.ARCH_BC],
                             ids=["full", "dt", "bc"])
    def test_cached_inference_matches_batch_forward(self, arch, small_config,
                                                    constraints):
        """At every step, the KV-cached policy's return predictions and
        actions for a lockstep batch of two episodes equal the batch
        forward over the tokens it has fed."""
        from bagbid.market import OpportunityStream, run_episodes
        from bagbid.trajectory import CampaignConstraints

        steps = small_config.steps_per_episode
        cfg = tf.ModelConfig(d_model=16, n_layers=2, n_heads=2, context_steps=steps,
                             bag_len=8, k_levels=3, seed=0)
        model = perturbed(tf.TrajectoryTransformer(cfg, arch))
        # keep most predictions inside the clamps so the comparison bites
        model.act_head.b.value[...] = 3.0
        if arch.use_rtg_head:
            model.rtg_head.b.value[...] = 2.0
        manual = 20.0 if arch is tf.ARCH_DT else None
        policy = tf.make_inference_policy(model, small_config.a_max, manual_target=manual)
        unclamped = 0

        def checked_policy(states, actions, rewards):
            action = policy(states, actions, rewards)
            ep = _live_episode(policy)
            t = actions.shape[1]
            rtg_pred, act_pred = model.forward(
                ep.states[:, :t + 1], ep.rtgs[:, :t + 1], ep.actions[:, :t + 1],
                ep.levels[:, :t + 1],
            )
            if arch.use_rtg_head:
                assert ep.rtgs[:, t] == pytest.approx(np.maximum(rtg_pred[:, t], 0.0),
                                                      abs=1e-9)
            expected = np.clip(act_pred[:, t], 0.0, small_config.a_max)
            assert action == pytest.approx(expected, abs=1e-9)
            nonlocal unclamped
            unclamped += int(((0.0 < expected) & (expected < small_config.a_max)).sum())
            return action

        trajs = run_episodes(
            checked_policy,
            [OpportunityStream(small_config),
             OpportunityStream(dataclasses.replace(small_config, seed=43))],
            [constraints, CampaignConstraints(budget=3.0, ros_bound=6.0)], ["c0", "c1"],
        )
        assert [t.num_steps for t in trajs] == [steps, steps]
        assert unclamped >= len(trajs) * steps // 2

    def test_full_episode_within_budget(self, small_config, constraints):
        cfg = tf.ModelConfig(d_model=16, n_layers=1, n_heads=2,
                             context_steps=small_config.steps_per_episode,
                             bag_len=8, seed=0)
        model = tf.TrajectoryTransformer(cfg)
        traj = _roll(tf.make_inference_policy(model, small_config.a_max), small_config,
                     constraints)
        assert traj.num_steps == small_config.steps_per_episode
        assert traj.total_spend <= constraints.budget + 1e-9
        assert (traj.actions >= 0).all() and (traj.actions <= small_config.a_max).all()

    def test_expert_level_forced_to_top(self, small_config, constraints):
        cfg = tf.ModelConfig(d_model=16, n_layers=1, n_heads=2,
                             context_steps=small_config.steps_per_episode,
                             bag_len=8, k_levels=3, seed=0)
        model = tf.TrajectoryTransformer(cfg)
        policy = tf.make_inference_policy(model, small_config.a_max)
        _roll(policy, small_config, constraints)
        # context equals the episode length, so every step was visited and
        # pinned to level k-1
        levels = _live_episode(policy).levels
        assert (levels == 2).all()

    def test_rtg_clamped_nonnegative(self, small_config, constraints):
        cfg = tf.ModelConfig(d_model=16, n_layers=1, n_heads=2,
                             context_steps=small_config.steps_per_episode,
                             bag_len=8, seed=0)
        model = tf.TrajectoryTransformer(cfg)
        # force the rtg head to predict very negative values
        model.params["head.rtg.b"].value[...] = -100.0
        policy = tf.make_inference_policy(model, small_config.a_max)
        _roll(policy, small_config, constraints)
        ep = _live_episode(policy)
        assert (ep.rtgs >= 0).all()

    def test_dt_requires_manual_target(self, tiny_cfg):
        model = tf.TrajectoryTransformer(tiny_cfg, tf.ARCH_DT)
        with pytest.raises(tf.ConfigError):
            tf.make_inference_policy(model, 10.0)

    def test_dt_manual_target_decrements(self, small_config, constraints):
        cfg = tf.ModelConfig(d_model=16, n_layers=1, n_heads=2,
                             context_steps=small_config.steps_per_episode,
                             bag_len=8, seed=0)
        model = tf.TrajectoryTransformer(cfg, tf.ARCH_DT)
        policy = tf.make_inference_policy(model, small_config.a_max, manual_target=20.0)
        traj = _roll(policy, small_config, constraints)
        ep = _live_episode(policy)
        assert ep.rtgs[0, 0] == pytest.approx(20.0 / tf.RTG_SCALE)
        # decrement matches realized rewards
        expected = max((20.0 - traj.rewards[0]) / tf.RTG_SCALE, 0.0)
        assert ep.rtgs[0, 1] == pytest.approx(expected)



class TestFreedByRefcount:
    """A model's value arena goes with the model's last reference, with the
    cyclic garbage collector off."""

    def test_loaded_model_after_rollout(self, tmp_path, small_config, constraints,
                                        without_gc):
        cfg = tf.ModelConfig(d_model=16, n_layers=1, n_heads=2,
                             context_steps=small_config.steps_per_episode, bag_len=8, seed=0)
        tf.TrajectoryTransformer(cfg).save(tmp_path / "m.ckpt")
        model = tf.TrajectoryTransformer.load(tmp_path / "m.ckpt")
        values = weakref.ref(model.params.values)
        _roll(tf.make_inference_policy(model, small_config.a_max), small_config, constraints)
        del model
        assert values() is None

    def test_model_never_run(self, tiny_cfg, without_gc):
        model = tf.TrajectoryTransformer(tiny_cfg)
        values = weakref.ref(model.params.values)
        del model
        assert values() is None

class TestLrSchedule:
    def test_warmup_and_decay(self):
        cfg = tf.ModelConfig(train_steps=1000, lr=1e-3)
        lrs = [tf.lr_at(cfg, s) for s in range(1000)]
        peak = max(lrs)
        assert peak == pytest.approx(1e-3, rel=1e-6)
        assert lrs[0] < peak / 10
        assert lrs[-1] < peak / 2
        assert lrs[-1] >= cfg.lr * tf.LR_FINAL_FRAC * 0.99

    def test_schedule_of_the_constants(self):
        """Warmup over 5% of the steps, then cosine decay to 0.5% of the
        peak, the schedule every training runs."""
        assert (tf.LR_WARMUP_FRAC, tf.LR_FINAL_FRAC, tf.ADAM_BETA2) == (0.05, 0.005, 0.99)
        cfg = tf.ModelConfig(train_steps=200, lr=2e-3)
        # warmup = int(0.05 * 200) = 10 steps
        assert [tf.lr_at(cfg, s) for s in (0, 4, 9)] == pytest.approx([2e-4, 1e-3, 2e-3])
        assert tf.lr_at(cfg, 10) == pytest.approx(2e-3)
        assert tf.lr_at(cfg, 105) == pytest.approx(2e-3 * (0.005 + 0.995 * 0.5))
        end = 2e-3 * (0.005 + 0.995 * 0.5 * (1.0 + math.cos(math.pi * 189 / 190)))
        assert tf.lr_at(cfg, 199) == pytest.approx(end)
        assert tf.lr_at(cfg, 199) > 2e-3 * 0.005
