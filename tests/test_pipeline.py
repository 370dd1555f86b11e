import builtins
import csv
import dataclasses
import io
import json
import os

import numpy as np
import pytest

from bagbid import nncore as nc
from bagbid import pipeline as pl
from bagbid import rewards as rw
from bagbid.discriminator import DiscriminatorModel, sigmoid
from bagbid.expert import ROS_SLACK, solve_multipliers
from bagbid.market import OpportunityStream, run_episodes
from bagbid.trajectory import load_jsonl, save_jsonl
from bagbid.transformer import RTG_SCALE


def test_normalize_method_aliases():
    assert pl.normalize_method("ebaret") == "ebaret"
    assert pl.normalize_method("EBARET-NOE") == "ebaret-noe"
    assert pl.normalize_method("ebaret¬E") == "ebaret-noe"
    assert pl.normalize_method("ebaret¬PU") == "ebaret-nopu"
    assert pl.normalize_method("ebaret¬BR") == "ebaret-nobr"
    with pytest.raises(Exception):
        pl.normalize_method("iql")


def test_methods_differ_in_more_than_seed():
    """No two methods share an architecture, a discriminator and a kind of
    return label, so no method retrains another with a different seed."""
    keys = [(s.arch, s.disc_plain_ce, s.redistributed_labels) for s in pl.METHODS.values()]
    assert len(set(keys)) == len(keys)


@pytest.fixture
def stream_seeds(monkeypatch):
    """The market seed of every ``OpportunityStream`` built from here on."""
    seeds = []
    build = OpportunityStream.__init__

    def counted(self, config):
        seeds.append(config.seed)
        build(self, config)

    monkeypatch.setattr(OpportunityStream, "__init__", counted)
    return seeds


def test_seed_layout_disjoint(tiny_experiment):
    train = set(pl.train_seeds(tiny_experiment))
    test = set(pl.test_seeds(tiny_experiment))
    assert train and test
    assert not (train & test)


class TestGenData:
    def test_pure_random_mix(self, tiny_experiment):
        exp = tiny_experiment
        exp.behavior.mix = (1.0, 0.0, 0.0)
        trajs = pl.gen_offline_data(exp)
        assert all(t.source == "random" for t in trajs)

    def test_manifest_counts_match_lines(self, tiny_experiment):
        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        manifest = json.load(open(exp.manifest_path))
        assert manifest["counts"]["offline"] == len(load_jsonl(exp.offline_path))
        assert manifest["counts"]["expert"] == len(load_jsonl(exp.expert_path))
        assert manifest["counts"]["offline"] == (
            len(exp.campaigns) * exp.train_episodes_per_campaign
        )

    def test_regeneration_identical_files(self, tiny_experiment):
        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        h1 = json.load(open(exp.manifest_path))["sha256"]["offline"]
        pl.cmd_gen_data(exp)
        h2 = json.load(open(exp.manifest_path))["sha256"]["offline"]
        assert h1 == h2

    @pytest.mark.parametrize("mix", [(0.0, 0.0, 1.0), (0.3, 0.3, 0.4)],
                             ids=["noisy-expert", "default"])
    def test_offline_days_build_one_stream_each(self, tiny_experiment, stream_seeds, mix):
        """A noisy-expert day is solved and rolled on the same stream."""
        exp = tiny_experiment
        exp.behavior.mix = mix
        trajs = pl.gen_offline_data(exp)
        if mix[2] == 1.0:
            assert {t.source for t in trajs} == {"noisy_expert"}
        assert stream_seeds == pl.train_seeds(exp)

    def test_expert_days_build_one_stream_each(self, tiny_experiment, stream_seeds):
        exp = tiny_experiment
        pl.gen_expert_data(exp)
        assert stream_seeds == pl.train_seeds(exp)

    def test_datasets_equal_those_of_the_reference_kernels(self, tiny_experiment, scan_refs,
                                                            monkeypatch, tmp_path):
        """Both datasets are byte-identical to those generated with the
        all-opportunity step loop and the always-stable ratio sort."""
        from bagbid import _kernels
        from bagbid import expert as ex

        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        fast = [open(path, "rb").read() for path in (exp.offline_path, exp.expert_path)]

        calls = {"step_scan": 0, "solve_multipliers": 0}

        def counted(name):
            ref = getattr(scan_refs, name)

            def call(*args):
                calls[name] += 1
                return ref(*args)
            return call

        monkeypatch.setattr(_kernels, "step_scan", counted("step_scan"))
        solve = counted("solve_multipliers")
        monkeypatch.setattr(ex, "solve_multipliers", solve)
        monkeypatch.setattr(pl, "solve_multipliers", solve)
        exp.output_dir = str(tmp_path / "reference")
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        assert calls["step_scan"] > 0 and calls["solve_multipliers"] > 0
        assert fast == [open(path, "rb").read() for path in (exp.offline_path, exp.expert_path)]

    def test_expert_flagged_and_feasible(self, tiny_experiment):
        exp = tiny_experiment
        pl.cmd_gen_expert(exp)
        experts = load_jsonl(exp.expert_path)
        assert all(t.source == "expert" for t in experts)
        for t in experts:
            assert t.total_spend <= t.constraints.budget + 1e-9


class TestPrep:
    @pytest.fixture
    def prepped(self, tiny_experiment):
        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        pl.cmd_train_disc(exp)
        return exp, *pl.cmd_prep(exp)

    def test_annotations_present(self, prepped):
        exp, trajs, (levels, rtgs) = prepped
        n = len(exp.campaigns) * exp.train_episodes_per_campaign
        assert len(trajs) == 2 * n
        assert [t.source == "expert" for t in trajs] == [False] * n + [True] * n
        shape = (len(trajs), exp.market.steps_per_episode)
        assert levels.shape == rtgs.shape == shape
        assert levels.dtype == np.int64 and np.isfinite(rtgs).all()
        assert set(np.unique(levels)) <= set(range(exp.model.k_levels))

    def test_expert_levels_pinned_top(self, prepped):
        exp, trajs, (levels, _) = prepped
        k = exp.model.k_levels
        for t, lv in zip(trajs, levels):
            if t.source == "expert":
                assert (lv == k - 1).all()
        offline = levels[[t.source != "expert" for t in trajs]]
        assert set(np.unique(offline)) == set(range(k))

    def test_bag_conservation_and_rtg(self, prepped):
        exp, trajs, (_, rtgs) = prepped
        disc = DiscriminatorModel.load(exp.disc_path(False))
        bag = exp.model.bag_len
        for t, rtg in zip(trajs, rtgs):
            scores = sigmoid(disc.score_batch(pl.transitions_matrix([t])))
            rhat = rw.redistribute_trajectory(t.rewards, scores, bag_len=bag, beta=exp.beta)
            for start in range(0, t.num_steps, bag):
                sl = slice(start, start + bag)
                assert rhat[sl].sum() == pytest.approx(t.rewards[sl].sum(), abs=1e-9)
            assert rtg[0] == rhat.sum()
            for i in range(t.num_steps - 1):
                assert rtg[i + 1] == rtg[i] - rhat[i]

    @pytest.mark.parametrize("plain_ce", [False, True], ids=["nnpu", "ce"])
    def test_labels_equal_loop_reference(self, tiny_experiment, label_loops, plain_ce):
        """The array labels are byte for byte those of scoring each
        trajectory alone and labelling it bag by bag and step by step."""
        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        pl.cmd_train_disc(exp, plain_ce=plain_ce)
        trajs, labels = pl.cmd_prep(exp, plain_ce)
        disc = DiscriminatorModel.load(exp.disc_path(plain_ce))
        expected = label_loops.prep_labels(trajs, disc, exp.model.k_levels,
                                           exp.model.bag_len, exp.beta)
        for got, want in zip(labels, expected):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_prep_writes_nothing(self, prepped):
        exp = prepped[0]

        def snapshot():
            return {os.path.join(d, f): os.stat(os.path.join(d, f)).st_mtime_ns
                    for d, _, files in os.walk(exp.output_dir) for f in files}

        before = snapshot()
        pl.cmd_prep(exp)
        assert snapshot() == before
        assert not [f for f in before if "prepped" in f]


class TestTrainEval:
    @pytest.fixture
    def ready(self, tiny_experiment):
        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        return exp

    def test_bc_checkpoint_has_no_rtg_head(self, ready, checkpoint_parts):
        exp = ready
        pl.cmd_train(exp, "bc")
        names = checkpoint_parts.split(exp.ckpt_path("bc"))[0]["params"].keys()
        assert not any("head.rtg" in n for n in names)
        assert not any("embed.rtg" in n for n in names)

    def test_nobr_uses_raw_suffix_labels(self, ready):
        exp = ready
        pl.cmd_train_disc(exp)
        spec = pl.METHODS["ebaret-nobr"]
        trajs, labels = pl.cmd_prep(exp)
        batch = pl.build_training_batch(trajs, exp.model, spec, labels)
        t0 = trajs[0]
        expected = rw.recompute_rtg(t0.rewards) / RTG_SCALE
        assert np.allclose(batch.rtgs[0], expected, atol=1e-12)
        assert np.array_equal(batch.levels, labels[0])

    def test_noea_checkpoint_has_no_level_table(self, ready, checkpoint_parts):
        exp = ready
        pl.cmd_train_disc(exp)
        pl.cmd_train(exp, "ebaret-noea")
        header, _ = checkpoint_parts.split(exp.ckpt_path("ebaret-noea"))
        assert not any("embed.level" in n for n in header["params"])

    def test_noe_trains_on_offline_data_alone(self, ready, checkpoint_parts):
        """ebaret-noe keeps EBaReT's return head and bag embedding, drops
        the level table, and trains without a discriminator or expert data."""
        exp = ready
        pl.cmd_train(exp, "ebaret-noe")
        header, _ = checkpoint_parts.split(exp.ckpt_path("ebaret-noe"))
        names = header["params"].keys()
        assert "head.rtg.w" in names and "embed.bag.table" in names
        assert not any("embed.level" in n for n in names)
        assert header["meta"]["n_train_trajectories"] == len(load_jsonl(exp.offline_path))
        assert not os.path.exists(exp.disc_path(False))

    def test_ebaret_checkpoint_structure(self, ready, checkpoint_parts):
        exp = ready
        pl.cmd_train_disc(exp)
        pl.cmd_train(exp, "ebaret")
        header, _ = checkpoint_parts.split(exp.ckpt_path("ebaret"))
        names = header["params"].keys()
        assert any("embed.level" in n for n in names)
        assert any("head.rtg" in n for n in names)
        assert header["meta"]["method"] == "ebaret"
        assert os.path.exists(exp.train_log_path("ebaret"))

    def test_train_determinism(self, ready):
        exp = ready
        pl.cmd_train_disc(exp)
        pl.cmd_train(exp, "ebaret")
        with open(exp.ckpt_path("ebaret"), "rb") as f:
            first = f.read()
        pl.cmd_train(exp, "ebaret")
        with open(exp.ckpt_path("ebaret"), "rb") as f:
            assert f.read() == first

    def test_eval_report_and_metrics(self, ready):
        exp = ready
        pl.cmd_train(exp, "bc")
        report = pl.cmd_eval(exp, "bc")
        n_expected = (
            len(exp.campaigns) * exp.test_periods * exp.test_seeds_per_period
        )
        assert len(report.rows) == n_expected
        for row in report.rows:
            assert row.conversions_expected >= 0
            assert row.ratio <= 1.0 + 1e-9
        summary = report.summary()
        assert set(summary["per_period_mean"]) == set(range(exp.test_periods))

        with open(exp.metrics_path("bc"), newline="") as f:
            header, *records = csv.reader(f)
        assert header == [f.name for f in dataclasses.fields(pl.EvalRow)]
        assert len(records) == n_expected
        assert pl.EvalReport.load(exp.metrics_path("bc"), "bc").rows == report.rows
        assert {r.seed for r in report.rows} == set(pl.test_seeds(exp))

        campaigns = {c.campaign_id: c for c in exp.campaigns}
        for row in report.rows:
            camp = campaigns[row.campaign_id]
            assert row.budget_use == row.spend / camp.budget
            assert 0.0 <= row.budget_use <= 1.0 + 1e-9
            value = row.conversions_expected
            assert row.ros == (row.spend / value if value > 0 else 0.0)
            assert row.ros_violated == (row.ros > camp.ros_bound + ROS_SLACK)
        assert not any(row.ros_violated for row in report.rows)

        # the same days against a RoS bound no spending day can meet
        exp.campaigns = [pl.CampaignSpec(c.campaign_id, c.budget, ros_bound=1e-3)
                         for c in exp.campaigns]
        strict = pl.cmd_eval(exp, "bc")
        assert [r.ros for r in strict.rows] == [r.ros for r in report.rows]
        assert all(r.ros_violated == (r.spend > 0) for r in strict.rows)
        assert any(r.ros_violated for r in strict.rows)

    def test_eval_touches_only_its_own_files(self, ready, monkeypatch):
        """An eval reads its checkpoint and writes its own metrics file and
        nothing else, so concurrent evals of other methods keep their rows."""
        exp = ready
        pl.cmd_train(exp, "bc")
        touched = []

        def recording(fn, arg):
            def wrapped(*args, **kwargs):
                touched.append(os.path.abspath(args[arg]))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(builtins, "open", recording(builtins.open, 0))
        monkeypatch.setattr(os, "replace", recording(os.replace, 1))
        monkeypatch.setattr(pl, "atomic_write_text", recording(pl.atomic_write_text, 0))
        pl.cmd_eval(exp, "bc")
        own = {os.path.abspath(exp.ckpt_path("bc")), os.path.abspath(exp.metrics_path("bc"))}
        assert os.path.abspath(exp.metrics_path("bc")) in touched
        assert set(touched) <= own

    def test_report_equals_eval_summaries(self, ready):
        exp = ready
        summaries = {}
        for method in ("bc", "dt"):
            pl.cmd_train(exp, method)
            summaries[method] = pl.cmd_eval(exp, method).summary()
        assert pl.cmd_report(exp) == summaries
        bc = summaries["bc"]
        assert 0.0 <= bc["mean_ratio"] <= 1.0 + 1e-9
        assert 0.0 <= bc["mean_budget_use"] <= 1.0 + 1e-9
        assert bc["ros_violation_rate"] == 0.0

    def test_cold_eval_builds_one_stream_per_test_day(self, ready, stream_seeds):
        """With an empty r* cache every test day is rolled and solved on
        one stream, and the values equal a warm cache's."""
        exp = ready
        pl.cmd_train(exp, "bc")
        stream_seeds.clear()  # the data stages ran before
        cache = {}
        cold = pl.cmd_eval(exp, "bc", rstar_cache=cache)
        assert sorted(stream_seeds) == sorted(pl.test_seeds(exp))
        assert len(cache) == len(stream_seeds)
        warm = pl.cmd_eval(exp, "bc", rstar_cache=cache)
        assert len(stream_seeds) == 2 * len(cache)
        assert [vars(r) for r in cold.rows] == [vars(r) for r in warm.rows]

    def test_eval_determinism(self, ready):
        exp = ready
        pl.cmd_train(exp, "bc")
        r1 = pl.cmd_eval(exp, "bc")
        r2 = pl.cmd_eval(exp, "bc")
        assert [vars(a) for a in r1.rows] == [vars(b) for b in r2.rows]

    @pytest.mark.parametrize("method", ["ebaret", "dt", "bc"])
    def test_lockstep_eval_matches_single_episodes(self, ready, method, monkeypatch):
        """Eval rolls all of a method's test days in one lockstep batch;
        each day's actions and row equal those of the day rolled alone."""
        exp = ready
        if method == "ebaret":
            pl.cmd_train_disc(exp)
        pl.cmd_train(exp, method)
        rollouts = []

        def recorded(run):
            def wrapped(*args, **kwargs):
                rollouts.append(run(*args, **kwargs))
                return rollouts[-1]
            return wrapped

        def one_at_a_time(policy, streams, constraints, campaign_ids, **kwargs):
            return [run_episodes(policy, [stream], [c], [cid], **kwargs)[0]
                    for stream, c, cid in zip(streams, constraints, campaign_ids)]

        monkeypatch.setattr(pl, "run_episodes", recorded(run_episodes))
        lockstep = pl.cmd_eval(exp, method)
        monkeypatch.setattr(pl, "run_episodes", recorded(one_at_a_time))
        alone = pl.cmd_eval(exp, method)

        batch, singles = rollouts
        assert len(batch) == len(singles) == 8
        for a, b in zip(batch, singles):
            assert (a.campaign_id, a.seed) == (b.campaign_id, b.seed)
            assert np.abs(a.actions - b.actions).max() <= 1e-9
        assert [vars(r) for r in lockstep.rows] == [vars(r) for r in alone.rows]

    def test_eval_refuses_another_methods_architecture(self, tiny_experiment):
        from bagbid.transformer import ARCH_FULL, TrajectoryTransformer

        exp = tiny_experiment
        cfg = pl.method_model_config(exp, pl.METHODS["bc"])
        TrajectoryTransformer(cfg, ARCH_FULL).save(exp.ckpt_path("bc"))
        with pytest.raises(pl.PipelineError,
                           match="arch.use_rtg_tokens is True, not False, "
                                 "arch.use_rtg_head is True, not False"):
            pl.cmd_eval(exp, "bc")

    def test_run_pipeline_end_to_end(self, tiny_experiment):
        """From an empty directory, the path ``bagbid train`` and
        ``bagbid eval`` take."""
        exp = tiny_experiment
        pl.ensure_training_inputs(exp, pl.METHODS["ebaret"])
        pl.cmd_train(exp, "ebaret")
        report = pl.cmd_eval(exp, "ebaret")
        assert os.path.exists(exp.ckpt_path("ebaret"))
        assert report.grand_mean() >= 0.0

    def test_eq8_precondition_guard(self, ready):
        exp = ready
        pl.cmd_train_disc(exp)
        # corrupt the expert file so experts look weak
        experts = load_jsonl(exp.expert_path)
        for t in experts:
            t.rewards[...] = 0.0
        save_jsonl(experts, exp.expert_path)
        with pytest.raises(pl.PipelineError):
            pl.cmd_train(exp, "ebaret")

    @pytest.mark.parametrize("change", ["beta", "k_levels", "disc"])
    def test_training_follows_changed_label_inputs(self, tiny_experiment, tmp_path,
                                                   change):
        """Changing beta, k_levels or the discriminator and training again
        gives the checkpoint a fresh directory trains at the new values."""
        from bagbid.cli import main

        def train(exp, name, *commands):
            path = str(tmp_path / f"{name}.json")
            exp.save(path)
            for command in commands + ("train",):
                argv = [command, "--config", path]
                if command == "train":
                    argv += ["--method", "ebaret"]
                assert main(argv) == 0
            with open(exp.ckpt_path("ebaret"), "rb") as f:
                return f.read()

        exp = tiny_experiment
        first = train(exp, "old")
        if change == "beta":
            exp.beta = 5.0
        elif change == "k_levels":
            exp.model.k_levels = 3
        else:
            exp.disc.seed = 1
        again = train(exp, "new", *(("train-disc",) if change == "disc" else ()))
        exp.output_dir = str(tmp_path / "fresh")
        assert train(exp, "fresh") == again != first


def resolved_rstar(exp, campaign_id, seed):
    """A day's r*, solved on its rebuilt stream."""
    ci = [c.campaign_id for c in exp.campaigns].index(campaign_id)
    stream = OpportunityStream(pl.market_config_for(exp, ci, seed))
    return solve_multipliers(stream, exp.campaigns[ci].constraints).summary.total_value


def resolved_ratio_files(exp, bins=20):
    """The text of ``ratio_hist.csv`` and ``ratio_summary.json`` for the
    offline data, each day's r* solved again rather than read from the
    expert data."""
    ratios = []
    for t in load_jsonl(exp.offline_path):
        rstar = resolved_rstar(exp, t.campaign_id, t.seed)
        ratios.append(t.total_value / rstar if rstar > 0 else 0.0)
    ratios = np.asarray(ratios)
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(np.clip(ratios, 0.0, 1.0), bins=edges)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["bin_low", "bin_high", "count"])
    for i in range(bins):
        w.writerow([f"{edges[i]:.4f}", f"{edges[i + 1]:.4f}", int(counts[i])])
    summary = {
        "n": int(ratios.size),
        "median": float(np.median(ratios)),
        "mean": float(ratios.mean()),
        "max": float(ratios.max()),
        "min": float(ratios.min()),
        "frac_below_0.9": float((ratios < 0.9).mean()),
    }
    return buf.getvalue(), json.dumps(summary, indent=2)


class TestRatioReport:
    def test_expert_matches_hindsight_exactly(self, tiny_experiment):
        exp = tiny_experiment
        pl.cmd_gen_expert(exp)
        for t in load_jsonl(exp.expert_path):
            rstar = resolved_rstar(exp, t.campaign_id, t.seed)
            assert t.meta["replay_value"] == rstar
            # the episode sums its steps' values, the replay folds the wins
            assert t.total_value == pytest.approx(rstar, abs=1e-9)

    def test_report_equals_resolved_rstar(self, tiny_experiment):
        """Reading r* from the expert data writes the same bytes as solving
        every offline day again."""
        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        pl.cmd_ratio_report(exp)
        written = []
        for name in ("ratio_hist.csv", "ratio_summary.json"):
            with open(exp.path("reports", name), newline="") as f:
                written.append(f.read())
        assert tuple(written) == resolved_ratio_files(exp)

    @pytest.mark.parametrize("change", ["missing-day", "other-budget"])
    def test_mismatched_expert_data_rejected(self, tiny_experiment, change):
        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        experts = load_jsonl(exp.expert_path)
        day = experts[3]
        if change == "missing-day":
            experts.remove(day)
            message = f"has no day {day.campaign_id} seed {day.seed} "
        else:
            day.constraints = dataclasses.replace(day.constraints, budget=1.0)
            message = f"day {day.campaign_id} seed {day.seed} has "
        save_jsonl(experts, exp.expert_path)
        with pytest.raises(pl.PipelineError, match=message):
            pl.cmd_ratio_report(exp)

    def test_offline_corpus_summary(self, tiny_experiment):
        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        summary = pl.cmd_ratio_report(exp)
        assert summary["n"] == len(exp.campaigns) * exp.train_episodes_per_campaign
        assert summary["max"] <= 1.0 + 1e-9
        assert 0.0 <= summary["median"] < 1.0
        hist_path = exp.path("reports", "ratio_hist.csv")
        with open(hist_path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 20
        assert sum(int(r["count"]) for r in rows) == summary["n"]

    def test_zero_action_policy_ratio_zero(self, tiny_experiment):
        exp = tiny_experiment
        stream = OpportunityStream(pl.market_config_for(exp, 0, pl.train_seed(exp, 0, 0)))
        (traj,) = run_episodes(lambda states, actions, rewards: [0.0], [stream],
                               [exp.campaigns[0].constraints], ["c0"])
        rstar = solve_multipliers(stream, exp.campaigns[0].constraints).summary.total_value
        assert rstar > 0
        assert traj.total_value / rstar == 0.0


class TestConfigRoundtrip:
    def test_json_roundtrip(self, tiny_experiment, tmp_path):
        exp = tiny_experiment
        path = tmp_path / "config.json"
        exp.save(path)
        loaded = pl.ExperimentConfig.load(path)
        assert loaded.to_json_dict() == exp.to_json_dict()

    def test_default_config_valid(self):
        exp = pl.default_config()
        assert len(exp.campaigns) == 8
        assert abs(sum(exp.behavior.mix) - 1.0) < 1e-12


class TestConfigValidation:
    def test_bag_divisibility(self):
        pl.ExperimentConfig(market=pl.MarketSettings(steps_per_episode=48))
        with pytest.raises(pl.ConfigError):
            pl.ExperimentConfig(market=pl.MarketSettings(steps_per_episode=44))

    def test_largest_test_layout_stays_in_its_campaign(self):
        exp = pl.ExperimentConfig(test_periods=500, test_seeds_per_period=100)
        seeds = pl.test_seeds(exp)
        assert len(set(seeds)) == len(seeds)
        assert not set(seeds) & set(pl.train_seeds(exp))
        per_campaign = len(seeds) // len(exp.campaigns)
        for ci in range(len(exp.campaigns)):
            block = seeds[ci * per_campaign:(ci + 1) * per_campaign]
            assert {(s - exp.seed) // pl.CAMPAIGN_SEED_STRIDE for s in block} == {ci}


class TestCli:
    @pytest.mark.parametrize("text, message", [
        ("{not json", "Expecting property name"),
        ('{"disc": {"foo": 1}}', "unexpected keyword argument 'foo'"),
        ('{"disc": {"plain_ce": true}}', "unexpected keyword argument 'plain_ce'"),
        ('{"model": {"context_steps": 24}}', "model.context_steps=24 is shorter than "
                                             "market.steps_per_episode=48"),
        ('{"model": {"a_max": 5.0}}', "unexpected keyword argument 'a_max'"),
        ('{"model": {"rtg_scale": 30.0}}', "unexpected keyword argument 'rtg_scale'"),
        ('{"model": {"lr_warmup_frac": 0.05}}',
         "unexpected keyword argument 'lr_warmup_frac'"),
        ('{"model": {"lr_final_frac": 0.005}}', "unexpected keyword argument 'lr_final_frac'"),
        ('{"model": {"adam_beta2": 0.99}}', "unexpected keyword argument 'adam_beta2'"),
        ("[1, 2]", "config must be a JSON object"),
        ('{"market": [1]}', "market must be a JSON object"),
        ('{"campaigns": [1]}', "campaigns must be a list of JSON objects"),
        ('{"campaigns": 3}', "campaigns must be a list of JSON objects"),
        ('{"model": 3}', "model must be a JSON object"),
        ('{"beta": 0}', "beta must be positive, got 0"),
        ('{"dt_target_quantile": 0.9}', "unexpected keyword argument 'dt_target_quantile'"),
        ('{"test_periods": 0}', "test_periods must be in [1, 500], got 0"),
        ('{"train_episodes_per_campaign": 0}',
         "train_episodes_per_campaign must be in [1, 50000), got 0"),
        ('{"test_seeds_per_period": 0}', "test_seeds_per_period must be in [1, 100], got 0"),
        ('{"market": {"value_distribution_params": [1.3, 130.0]}}',
         "unexpected keyword argument 'value_distribution_params'"),
        ('{"market": {"opportunities_per_step": 0}}',
         "market: episode and step sizes must be positive"),
        ('{"market": {"cvr_noise": 0.05}}', "unexpected keyword argument 'cvr_noise'"),
        ('{"test_seeds_per_period": 101}', "test_seeds_per_period must be in [1, 100], got 101"),
        ('{"test_periods": 501}', "test_periods must be in [1, 500], got 501"),
        ('{"campaigns": [{"campaign_id": "c0", "budget": -1, "ros_bound": 6}]}',
         "campaigns[0]: budget must be positive, got -1"),
        ('{"campaigns": [{"campaign_id": "c0", "budget": 5, "ros_bound": 6}, '
         '{"campaign_id": "c0", "budget": 7, "ros_bound": 6}]}',
         "campaigns[1]: duplicate campaign_id 'c0'"),
        ('{"model": {"n_layers": 0}}', "model.n_layers must be >= 1, got 0"),
        ('{"model": {"d_model": 0}}', "model.d_model must be >= 1, got 0"),
        ('{"model": {"n_heads": 0}}', "model.n_heads must be >= 1, got 0"),
        ('{"model": {"context_steps": 0}}', "model.context_steps must be >= 1, got 0"),
        ('{"model": {"bag_len": 0}}', "model.bag_len must be >= 1, got 0"),
        ('{"model": {"batch_size": 0}}', "model.batch_size must be >= 1, got 0"),
        ('{"disc": {"hidden": 64}}', "unexpected keyword argument 'hidden'"),
        ('{"disc": {"steps": 0}}', "disc.steps must be >= 1, got 0"),
        ('{"disc": {"batch_size": 0}}', "disc.batch_size must be >= 1, got 0"),
        ('{"model": {"train_steps": 60.0}}', "model.train_steps must be an integer, got 60.0"),
        ('{"model": {"d_model": 16.0}}', "model.d_model must be an integer, got 16.0"),
        ('{"model": {"n_layers": true}}', "model.n_layers must be an integer, got True"),
        ('{"test_periods": 2.0}', "test_periods must be an integer, got 2.0"),
        ('{"seed": 7.0}', "seed must be an integer, got 7.0"),
        ('{"market": {"opportunities_per_step": 20.0}}',
         "market.opportunities_per_step must be an integer, got 20.0"),
        ('{"disc": {"steps": 80.0}}', "disc.steps must be an integer, got 80.0"),
        ('{"campaigns": []}', "campaigns must not be empty"),
        ('{"beta": true}', "beta must be a number, got True"),
        ('{"model": {"lr": true}}', "model.lr must be a number, got True"),
        ('{"campaigns": [{"campaign_id": "c0", "budget": true, "ros_bound": 6.0}]}',
         "campaigns[0].budget must be a number, got True"),
        ('{"market": {"competitor_bid_params": [-4.1, 1.0]}}',
         "unexpected keyword argument 'competitor_bid_params'"),
        ('{"market": {"cvr_amplitude": 0.4}}', "unexpected keyword argument 'cvr_amplitude'"),
        ('{"market": {"a_max": 5.0}}', "unexpected keyword argument 'a_max'"),
        ('{"behavior": {"random_low": 1.0}}', "unexpected keyword argument 'random_low'"),
        ('{"behavior": {"random_high": 6.0}}', "unexpected keyword argument 'random_high'"),
        ('{"behavior": {"fixed_scale": 0.4}}', "unexpected keyword argument 'fixed_scale'"),
        ('{"behavior": {"mix": [0.3, 0.3, NaN]}}',
         "behavior.mix must be 3 finite non-negative weights summing to 1, got (0.3, 0.3, nan)"),
        ('{"behavior": {"mix": [0, 0, true]}}',
         "behavior.mix must be 3 finite non-negative weights summing to 1, got (0, 0, True)"),
        ('{"behavior": {"mix": [0.6, 0.6, -0.2]}}',
         "behavior.mix must be 3 finite non-negative weights summing to 1, got (0.6, 0.6, -0.2)"),
        ('{"behavior": {"mix": [0.5, 0.5]}}',
         "behavior.mix must be 3 finite non-negative weights summing to 1, got (0.5, 0.5)"),
        ('{"behavior": {"mix": 1}}',
         "behavior.mix must be 3 finite non-negative weights summing to 1, got 1"),
        ('{"behavior": {"mix": [0, 0, 1], "noise_sigma": -1}}',
         "behavior.noise_sigma must be finite and >= 0, got -1"),
        ('{"behavior": {"mix": [0, 0, 1], "noise_sigma": NaN}}',
         "behavior.noise_sigma must be finite and >= 0, got nan"),
        ('{"model": {"lr": NaN}}', "model.lr must be positive and finite, got nan"),
        ('{"model": {"lr": -1.0}}', "model.lr must be positive and finite, got -1.0"),
        ('{"model": {"lr": 0}}', "model.lr must be positive and finite, got 0"),
        ('{"model": {"lr": Infinity}}', "model.lr must be positive and finite, got inf"),
        ('{"disc": {"lr": NaN}}', "disc.lr must be positive and finite, got nan"),
        ('{"disc": {"lr": 0.0}}', "disc.lr must be positive and finite, got 0.0"),
        ('{"disc": {"class_prior": 1.0}}', "disc.class_prior must be in (0,1), got 1.0"),
        ('{"model": {"k_levels": 1}}', "model.k_levels must be >= 2"),
    ], ids=["not-json", "unknown-key", "removed-key", "short-context", "removed-model-a-max",
            "removed-rtg-scale", "removed-lr-warmup-frac", "removed-lr-final-frac",
            "removed-adam-beta2", "top-level-list", "market-list", "campaign-number",
            "campaigns-number", "model-number", "beta-zero", "removed-dt-target-quantile",
            "no-test-periods",
            "no-train-episodes", "no-test-seeds", "removed-value-distribution",
            "no-opportunities", "removed-cvr-noise",
            "test-seeds-overlap-next-period", "test-periods-reach-next-campaign",
            "negative-budget", "duplicate-campaign", "no-layers", "no-model-dim", "no-heads",
            "no-context", "no-bag", "no-model-batch", "removed-disc-hidden", "no-disc-steps",
            "no-disc-batch", "float-train-steps", "float-model-dim", "bool-layers",
            "float-test-periods", "float-seed", "float-opportunities", "float-disc-steps",
            "empty-campaigns", "bool-beta", "bool-lr", "bool-budget",
            "removed-competitor-bid-params", "removed-cvr-amplitude", "removed-market-a-max",
            "removed-random-low", "removed-random-high", "removed-fixed-scale", "nan-mix",
            "bool-mix", "negative-mix", "short-mix", "number-mix", "negative-noise-sigma",
            "nan-noise-sigma", "nan-model-lr", "negative-model-lr", "zero-model-lr",
            "infinite-model-lr", "nan-disc-lr", "zero-disc-lr", "disc-class-prior-one",
            "one-level"])
    def test_bad_config_fails_without_traceback(self, text, message, tmp_path, capsys):
        """``write-config`` loads the config and stops, so a config that is
        wrongly accepted fails this case at once.  A message names its
        section once."""
        from bagbid.cli import main

        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "run"
        argv = ["write-config", "--config", str(path), "--output-dir", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bagbid: error: {path}: ") and message in err
        assert f".{message}" not in err  # as in "behavior.behavior.mix"
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, config, seed, message", [
        ("gen-data", {"seed": -1}, None, "seed must be >= 0, got -1"),
        ("train --method ebaret", {"model": {"seed": -3}}, None,
         "model.seed must be >= 0, got -3"),
        ("train-disc", {"disc": {"seed": -2}}, None, "disc.seed must be >= 0, got -2"),
        ("gen-data", {}, "-1", "seed must be >= 0, got -1"),
    ], ids=["seed", "model-seed", "disc-seed", "seed-option"])
    def test_negative_seed_fails_naming_it(self, command, config, seed, message, tmp_path,
                                           capsys):
        """A negative seed, from the config file or ``--seed``, is refused
        by name before any work, not by numpy's generator mid-command."""
        from bagbid.cli import main

        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        argv = command.split() + ["--config", str(path), "--output-dir", str(out)]
        if seed is not None:
            argv += ["--seed", seed]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("bagbid: error: ") and err.endswith(f" {message}\n")
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_too_many_levels_fail_naming_k_levels(self, tiny_experiment, tmp_path, capsys):
        """More expert levels than the discriminator gives distinct offline
        scores fail in one line naming ``model.k_levels``."""
        from bagbid.cli import main

        exp = dataclasses.replace(
            tiny_experiment, model=dataclasses.replace(tiny_experiment.model, k_levels=1000))
        config = tmp_path / "config.json"
        exp.save(config)
        assert main(["train", "--method", "ebaret", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bagbid: error: model.k_levels=1000 is too many: need at least "
                              "1000 distinct offline scores for 1000 levels, got ")
        assert len(err.splitlines()) == 1
        assert not os.path.exists(exp.ckpt_path("ebaret"))

    def test_output_dir_under_a_file_fails_without_traceback(self, tiny_experiment, tmp_path,
                                                            capsys):
        """A file system error, here an output directory below a regular
        file, fails in one line."""
        from bagbid.cli import main

        config = tmp_path / "config.json"
        tiny_experiment.save(config)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "run"
        assert main(["gen-data", "--config", str(config), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bagbid: error: ") and "Not a directory" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_write_config_loads_back(self, tmp_path, capsys):
        """``write-config`` prints the default config, which ``--config``
        reads back unchanged; ``--seed`` sets the data, model and
        discriminator seeds alike."""
        from bagbid.cli import main

        assert main(["write-config"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "config.json"
        path.write_text(text)
        assert pl.ExperimentConfig.load(path) == pl.default_config()
        assert main(["write-config", "--config", str(path)]) == 0
        assert capsys.readouterr().out == text
        assert main(["write-config", "--seed", "5"]) == 0
        seeded = json.loads(capsys.readouterr().out)
        assert (seeded["seed"], seeded["model"]["seed"], seeded["disc"]["seed"]) == (5, 5, 5)

    def test_write_config_prints_the_settings(self, capsys):
        """``write-config`` prints these 25 settings and the campaign list;
        a setting added or removed has to be added or removed here too."""
        from bagbid.cli import main

        assert main(["write-config"]) == 0
        config = json.loads(capsys.readouterr().out)
        assert {tuple(c) for c in config.pop("campaigns")} == {
            ("campaign_id", "budget", "ros_bound")}
        keys = set()
        for name, value in config.items():
            keys |= {f"{name}.{k}" for k in value} if isinstance(value, dict) else {name}
        assert keys == {
            "seed", "output_dir", "train_episodes_per_campaign", "test_periods",
            "test_seeds_per_period", "beta",
            "market.steps_per_episode", "market.opportunities_per_step",
            "behavior.mix", "behavior.noise_sigma",
            "model.d_model", "model.n_layers", "model.n_heads", "model.context_steps",
            "model.bag_len", "model.k_levels", "model.lr", "model.batch_size",
            "model.train_steps", "model.seed",
            "disc.class_prior", "disc.lr", "disc.steps", "disc.batch_size", "disc.seed",
        }

    @pytest.mark.parametrize("command, dataset, garble, message", [
        ("train-disc", "offline", "unterminated", "ends inside its header line"),
        ("train", "offline", "unterminated", "ends inside its header line"),
        ("train-disc", "expert", "cut-short",
         "holds 18424 bytes of trajectory data, but the steps in its header need 18432"),
        ("train", "expert", "cut-short",
         "holds 18424 bytes of trajectory data, but the steps in its header need 18432"),
        ("train", "offline", "padded",
         "holds 18440 bytes of trajectory data, but the steps in its header need 18432"),
        ("train-disc", "expert", "missing-key", "trajectory 2: missing key 'source'"),
        ("train", "offline", "bad-shape", "trajectory 1: steps must be a positive integer, got 0"),
        ("train-disc", "expert", "bad-budget", "trajectory 1: budget must be positive, got -1"),
        ("train-disc", "offline", "not-utf8",
         "the header line is not UTF-8 JSON ('utf-8' codec can't decode byte 0xff"),
        ("train", "offline", "not-object", "is not a bagbid-dataset file"),
        ("train-disc", "expert", "other-format", "is not a bagbid-dataset file"),
        ("train", "expert", "other-version", "unsupported dataset version 2"),
        ("train-disc", "offline", "malformed", "the header's trajectories are malformed"),
    ], ids=["train-disc-unterminated", "train-unterminated", "train-disc-cut-short",
            "train-cut-short", "train-padded", "train-disc-missing-key", "train-bad-shape",
            "train-disc-bad-budget", "train-disc-not-utf8", "train-not-object",
            "train-disc-other-format", "train-other-version", "train-disc-malformed"])
    def test_garbled_dataset_fails_without_traceback(self, tiny_experiment, tmp_path,
                                                     capsys, command, dataset, garble,
                                                     message):
        """A dataset whose header line is cut, not UTF-8 JSON or of
        another format or version, whose data are shorter or longer than
        its steps need, or whose record lacks a key or fails the
        trajectory checks is reported by file, and by trajectory where one
        is at fault."""
        from bagbid.cli import main

        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        path = exp.offline_path if dataset == "offline" else exp.expert_path
        with open(path, "rb") as f:
            raw = f.read()
        end = raw.index(b"\n")
        header = json.loads(raw[:end])
        records = header["trajectories"]
        if garble == "missing-key":
            del records[2]["source"]
        elif garble == "bad-shape":
            records[1]["steps"] = 0
        elif garble == "bad-budget":
            records[1]["constraints"]["budget"] = -1
        elif garble == "other-format":
            header["format"] = "bagbid-checkpoint"
        elif garble == "other-version":
            header["version"] = 2
        elif garble == "malformed":
            header["trajectories"] = {"c0": records}
        raw = json.dumps(header).encode() + raw[end:]
        with open(path, "wb") as f:
            f.write({
                "unterminated": raw[:raw.index(b"\n")],
                "cut-short": raw[:-8],
                "padded": raw + bytes(8),
                "not-utf8": b"\xff" + raw,
                "not-object": b"[1, 2]\n" + raw,
            }.get(garble, raw))
        config = tmp_path / "config.json"
        exp.save(config)
        argv = [command, "--config", str(config)]
        if command == "train":
            argv += ["--method", "ebaret"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bagbid: error: {path}") and message in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_jsonl_dataset_fails_asking_to_regenerate(self, tiny_experiment, tmp_path,
                                                      capsys):
        """A dataset from before the header-and-raw-bytes layout, one JSON
        object per line, is refused with one line that says how to replace
        it."""
        from bagbid.cli import main

        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        lines = [json.dumps({
            "campaign_id": t.campaign_id, "seed": t.seed,
            "constraints": dataclasses.asdict(t.constraints), "states": t.states.tolist(),
            "actions": t.actions.tolist(), "rewards": t.rewards.tolist(),
            "spends": t.spends.tolist(), "values": t.values.tolist(), "source": t.source,
        }) for t in load_jsonl(exp.offline_path)]
        with open(exp.offline_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        config = tmp_path / "config.json"
        exp.save(config)
        assert main(["train-disc", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"bagbid: error: {exp.offline_path} is a JSONL dataset, which this version no "
            f"longer reads; run gen-data and gen-expert again\n")
        assert main(["gen-data", "--config", str(config)]) == 0
        assert main(["train-disc", "--config", str(config)]) == 0

    @pytest.mark.parametrize("argv, dataset, array", [
        (["train-disc"], "offline", "states"),
        (["train-disc"], "expert", "rewards"),
        (["train", "--method", "bc"], "offline", "states"),
        (["train", "--method", "ebaret"], "expert", "actions"),
        (["report"], "offline", "actions"),
    ], ids=["train-disc-offline", "train-disc-expert", "train-bc", "train-ebaret", "report"])
    def test_non_finite_dataset_fails_without_traceback(self, tiny_experiment, tmp_path,
                                                        capsys, argv, dataset, array):
        """A dataset file keeps a NaN or an infinity bitwise, so the stages
        that read one refuse it by day, before any training."""
        from bagbid.cli import main

        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        pl.EvalReport("bc", [pl.EvalRow("bc", 0, 1, "c0", 1.0, 1.0, 2.0, 0.5, 0.25, 2.0,
                                        False)]).save(exp.metrics_path("bc"))
        path, step = ((exp.offline_path, "gen-data") if dataset == "offline"
                      else (exp.expert_path, "gen-expert"))
        trajs = load_jsonl(path)
        day = trajs[1]
        getattr(day, array).flat[3] = np.inf if array == "actions" else np.nan
        save_jsonl(trajs, path)
        config = tmp_path / "config.json"
        exp.save(config)
        assert main(argv + ["--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"bagbid: error: {path}: day {day.campaign_id} seed {day.seed} has a non-finite "
            f"state, action or reward; run {step} again\n")
        assert not os.path.exists(exp.ckpt_path("bc"))

    @pytest.mark.parametrize("argv, stage, message", [
        (["train-disc"], "train_discriminator", "training the nnpu discriminator"),
        (["train-disc", "--plain-ce"], "train_discriminator", "training the ce discriminator"),
        (["train", "--method", "bc"], "train_model", "training bc"),
    ], ids=["train-disc", "train-disc-plain-ce", "train-bc"])
    def test_non_finite_gradient_fails_without_traceback(self, tiny_experiment, tmp_path,
                                                         capsys, monkeypatch, argv, stage,
                                                         message):
        """A training that meets a non-finite gradient fails in one line
        naming what was trained and the parameter."""
        from bagbid.cli import main

        def diverge(*args, **kwargs):
            raise nc.NonFiniteGradientError("non-finite gradient for 'embed.state.w'")

        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        monkeypatch.setattr(pl, stage, diverge)
        config = tmp_path / "config.json"
        exp.save(config)
        assert main(argv + ["--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"bagbid: error: {message}: non-finite gradient for 'embed.state.w'\n")

    @pytest.mark.parametrize("argv, dataset, empty", [
        (["train-disc"], "offline", "file"),
        (["train-disc"], "expert", "file"),
        (["train", "--method", "ebaret"], "offline", "file"),
        (["train", "--method", "ebaret"], "expert", "file"),
        (["train", "--method", "dt"], "offline", "file"),
        (["report"], "offline", "file"),
        (["train-disc"], "expert", "header"),
        (["report"], "offline", "header"),
    ], ids=["train-disc-offline", "train-disc-expert", "train-offline", "train-expert",
            "train-dt-offline", "report-offline", "train-disc-expert-no-records",
            "report-offline-no-records"])
    def test_empty_dataset_fails_without_traceback(self, tiny_experiment, tmp_path, capsys,
                                                   argv, dataset, empty):
        """A dataset file with no trajectories, empty or with a header that
        lists none, is refused by name."""
        from bagbid.cli import main

        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        pl.EvalReport("bc", [pl.EvalRow("bc", 0, 1, "c0", 1.0, 1.0, 2.0, 0.5, 0.25, 2.0,
                                        False)]).save(exp.metrics_path("bc"))
        path = exp.offline_path if dataset == "offline" else exp.expert_path
        if empty == "file":
            open(path, "wb").close()
        else:
            save_jsonl([], path)
        config = tmp_path / "config.json"
        exp.save(config)
        assert main(argv + ["--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"bagbid: error: {path} holds no trajectories\n"

    def test_report_without_expert_data_fails_without_traceback(self, tiny_experiment,
                                                                 tmp_path, capsys):
        """The ratio report reads r* from gen-expert's data, so it refuses
        to run without it."""
        from bagbid.cli import main

        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.EvalReport("bc", [pl.EvalRow("bc", 0, 1, "c0", 1.0, 1.0, 2.0, 0.5, 0.25, 2.0,
                                        False)]).save(exp.metrics_path("bc"))
        path = tmp_path / "config.json"
        exp.save(path)
        assert main(["report", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"bagbid: error: {exp.expert_path} is missing; run gen-expert first\n"

    @pytest.mark.parametrize("meta", [{}, [1], {"replay_value": True},
                                      {"replay_value": "2.5"}, {"replay_value": float("inf")}],
                             ids=["empty", "not-object", "bool", "string", "infinite"])
    def test_bad_replay_value_fails_without_traceback(self, tiny_experiment, tmp_path,
                                                       capsys, meta):
        """An expert record without a finite numeric r* in its meta is
        refused by the ratio report, naming the file and the day."""
        from bagbid.cli import main

        exp = tiny_experiment
        pl.cmd_gen_data(exp)
        pl.cmd_gen_expert(exp)
        pl.EvalReport("bc", [pl.EvalRow("bc", 0, 1, "c0", 1.0, 1.0, 2.0, 0.5, 0.25, 2.0,
                                        False)]).save(exp.metrics_path("bc"))
        with open(exp.expert_path, "rb") as f:
            raw = f.read()
        end = raw.index(b"\n")
        header = json.loads(raw[:end])
        record = header["trajectories"][0]
        record["meta"] = meta
        with open(exp.expert_path, "wb") as f:
            f.write(json.dumps(header).encode() + raw[end:])
        config = tmp_path / "config.json"
        exp.save(config)
        assert main(["report", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == (f"bagbid: error: {exp.expert_path}: day {record['campaign_id']} seed "
                       f"{record['seed']} has no finite replay_value in its meta; "
                       f"run gen-expert again\n")

    @pytest.mark.parametrize("argv", [["train-disc"], ["train-disc", "--plain-ce"]],
                             ids=["nnpu", "plain-ce"])
    @pytest.mark.parametrize("has_offline", [False, True], ids=["none", "offline-only"])
    def test_train_disc_without_datasets_says_which_step(self, tmp_path, capsys, argv,
                                                          has_offline):
        """Each missing dataset is named with the step that writes it,
        before either file is read (so an empty offline file will do)."""
        from bagbid.cli import main

        exp = pl.default_config(output_dir=str(tmp_path))
        if has_offline:
            os.makedirs(os.path.dirname(exp.offline_path))
            open(exp.offline_path, "wb").close()
        path, step = ((exp.expert_path, "gen-expert") if has_offline
                      else (exp.offline_path, "gen-data"))
        assert main(argv + ["--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"bagbid: error: {path} is missing; run {step} first\n"

    def test_report_without_offline_data_says_to_run_gen_data(self, tiny_experiment,
                                                               tmp_path, capsys):
        from bagbid.cli import main

        exp = tiny_experiment
        pl.cmd_gen_expert(exp)
        pl.EvalReport("bc", [pl.EvalRow("bc", 0, 1, "c0", 1.0, 1.0, 2.0, 0.5, 0.25, 2.0,
                                        False)]).save(exp.metrics_path("bc"))
        path = tmp_path / "config.json"
        exp.save(path)
        assert main(["report", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"bagbid: error: {exp.offline_path} is missing; run gen-data first\n"

    def test_eval_without_checkpoint_says_to_train(self, tmp_path, capsys):
        from bagbid.cli import main

        path = pl.default_config(output_dir=str(tmp_path)).ckpt_path("dt")
        assert main(["eval", "--method", "dt", "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"bagbid: error: {path} is missing; run `bagbid train --method dt` first\n")

    @pytest.mark.parametrize("change, message", [
        ("context", "model.context_steps is 24, not 48"),
        ("lr", "model.lr is 0.001, not 0.002"),
    ], ids=["shorter-context", "other-lr"])
    def test_stale_checkpoint_fails_without_traceback(self, tiny_experiment, tmp_path,
                                                      capsys, change, message):
        """A checkpoint trained under another model config is refused by
        eval, naming the field, rather than rolled or scored."""
        from bagbid.cli import main

        exp = tiny_experiment
        config = tmp_path / "config.json"
        exp.save(config)
        assert main(["train", "--method", "bc", "--config", str(config)]) == 0
        if change == "context":
            exp.market.steps_per_episode = exp.model.context_steps = 48
        else:
            exp.model.lr = 0.002
        exp.save(config)
        assert main(["eval", "--method", "bc", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bagbid: error: {exp.ckpt_path('bc')} was trained for "
                              f"another config: {message}; ")
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not os.path.exists(exp.metrics_path("bc"))

    @pytest.mark.parametrize("argv", [
        ["eval", "--method", "ebaret"],
        ["report"],
    ])
    def test_missing_artifacts_fail_without_traceback(self, argv, tmp_path, capsys):
        from bagbid.cli import main

        assert main(argv + ["--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bagbid: error: ")
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("text", [
        "",
        "garbled\n",
        "method,period\nbc,0\n",
        ",".join(f.name for f in dataclasses.fields(pl.EvalRow)) + "\n",
        ",".join(f.name for f in dataclasses.fields(pl.EvalRow))
        + "\nbc,0,7,c0,1.5,1.0,2.0,0.5,0.25,1.3,maybe\n",
    ], ids=["empty", "garbled", "short-header", "no-rows", "bad-bool"])
    def test_garbled_metrics_fail_without_traceback(self, text, tmp_path, capsys):
        from bagbid.cli import main

        path = pl.default_config(output_dir=str(tmp_path)).metrics_path("bc")
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as f:
            f.write(text)
        assert main(["report", "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bagbid: error: ") and "metrics_bc.csv" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_v1_checkpoint_fails_without_traceback(self, tmp_path, capsys):
        from bagbid.cli import main

        path = pl.default_config(output_dir=str(tmp_path)).ckpt_path("bc")
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as f:
            json.dump({"format": nc.CHECKPOINT_FORMAT, "version": 1, "meta": {},
                       "params": {"head.action.b": {"shape": [1], "data": [0.5]}}}, f)
        assert main(["eval", "--method", "bc", "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bagbid: error: ") and "retrain with `bagbid train`" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_mismatched_checkpoint_fails_without_traceback(self, tmp_path, capsys,
                                                           checkpoint_parts):
        from bagbid.cli import main
        from bagbid.transformer import ARCH_BC, ModelConfig, TrajectoryTransformer

        path = pl.default_config(output_dir=str(tmp_path)).ckpt_path("bc")
        os.makedirs(os.path.dirname(path))
        TrajectoryTransformer(ModelConfig(), ARCH_BC).save(path)
        header, data = checkpoint_parts.split(path)
        del header["params"]["head.action.b"]  # the last parameter: one value
        checkpoint_parts.join(path, header, data[:-8])
        assert main(["eval", "--method", "bc", "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bagbid: error: ")
        assert "missing parameter 'head.action.b'" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_checkpoint_with_removed_setting_fails_without_traceback(self, tmp_path, capsys,
                                                                     checkpoint_parts):
        """A checkpoint whose header config still holds ``rtg_scale``, as
        one written before the return scale became ``RTG_SCALE`` does,
        fails eval with one line naming it."""
        from bagbid.cli import main
        from bagbid.transformer import TrajectoryTransformer

        exp = pl.default_config(output_dir=str(tmp_path))
        spec = pl.METHODS["bc"]
        path = exp.ckpt_path("bc")
        os.makedirs(os.path.dirname(path))
        TrajectoryTransformer(pl.method_model_config(exp, spec), spec.arch).save(path)
        header, data = checkpoint_parts.split(path)
        header["meta"]["config"]["rtg_scale"] = RTG_SCALE
        checkpoint_parts.join(path, header, data)
        assert main(["eval", "--method", "bc", "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bagbid: error: {path}: bad model meta (TypeError(")
        assert "unexpected keyword argument 'rtg_scale'" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @staticmethod
    def _checkpoint_error(exp, tmp_path, capsys, command, path):
        """The stderr of ``command`` (eval of bc, or training ebaret, which
        reads the nnPU discriminator) run under ``exp``, which must fail
        with one line naming ``path``."""
        from bagbid.cli import main

        config = tmp_path / "config.json"
        exp.save(config)
        method = "bc" if command == "eval" else "ebaret"
        assert main([command, "--method", method, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bagbid: error: {path}")
        assert "Traceback" not in err and len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("command, garble, message", [
        ("eval", "half", "bytes of parameter data, but the shapes in its header need"),
        ("eval", "padded", "bytes of parameter data, but the shapes in its header need"),
        ("eval", "header-cut", "the header line is not UTF-8 JSON"),
        ("eval", "no-data", "ends inside its header line"),
        ("eval", "hello", "the header line is not UTF-8 JSON"),
        ("eval", "not-object", "is not a bagbid-checkpoint file"),
        ("eval", "bad-meta", "bad model meta"),
        ("train", "half", "bytes of parameter data, but the shapes in its header need"),
        ("train", "hello", "the header line is not UTF-8 JSON"),
        ("train", "bad-meta", "bad discriminator meta"),
    ], ids=["eval-half", "eval-padded", "eval-header-cut", "eval-no-data", "eval-hello",
            "eval-not-object", "eval-bad-meta", "train-half", "train-hello",
            "train-bad-meta"])
    def test_garbled_checkpoint_fails_without_traceback(self, tiny_experiment, tmp_path,
                                                        capsys, checkpoint_parts, command,
                                                        garble, message):
        """A cut, padded or garbled checkpoint fails with one line naming
        it: the method's checkpoint for eval, the discriminator for the
        training of a method whose labels it scores."""
        from bagbid.discriminator import DiscriminatorModel
        from bagbid.transformer import TrajectoryTransformer

        exp = tiny_experiment
        if command == "eval":
            path = exp.ckpt_path("bc")
            spec = pl.METHODS["bc"]
            TrajectoryTransformer(pl.method_model_config(exp, spec), spec.arch).save(path)
        else:
            path = exp.disc_path(False)
            DiscriminatorModel(hidden=4).save(path)
        if garble == "bad-meta":
            header, data = checkpoint_parts.split(path)
            del header["meta"]["config" if command == "eval" else "hidden"]
            checkpoint_parts.join(path, header, data)
        else:
            with open(path, "rb") as f:
                raw = f.read()
            header_end = raw.index(b"\n")
            with open(path, "wb") as f:
                f.write({
                    "half": raw[:header_end + 1 + (len(raw) - header_end) // 2],
                    "padded": raw + bytes(8),
                    "header-cut": raw[:header_end // 2],
                    "no-data": raw[:header_end],
                    "hello": b"hello",
                    "not-object": b"[1, 2]\n",
                }[garble])
        assert message in self._checkpoint_error(exp, tmp_path, capsys, command, path)

    @pytest.mark.parametrize("command", ["eval", "train"],
                             ids=["discriminator-as-model", "model-as-discriminator"])
    def test_checkpoint_of_other_kind_fails_without_traceback(self, tiny_experiment,
                                                              tmp_path, capsys, command):
        from bagbid.discriminator import DiscriminatorModel
        from bagbid.transformer import TrajectoryTransformer

        exp = tiny_experiment
        if command == "eval":
            path, kinds = exp.ckpt_path("bc"), ("discriminator", "trajectory-transformer")
            DiscriminatorModel(hidden=4).save(path)
        else:
            path, kinds = exp.disc_path(False), ("trajectory-transformer", "discriminator")
            TrajectoryTransformer(exp.model).save(path)
        err = self._checkpoint_error(exp, tmp_path, capsys, command, path)
        assert err == f"bagbid: error: {path} is a {kinds[0]} checkpoint, not a {kinds[1]} one\n"
