"""The benchmark's workloads: ``datagen``, ``train`` and ``eval``.

Each workload drives ``bagbid`` through the pipeline's public stage
functions (``pipeline.cmd_*``), one call after another from one process:
a closed loop with a single client.  ``setup`` builds what the timed body
needs; ``body`` is the part that is timed; ``verify`` checks the body's
outputs and counts each check as one operation.

Why each workload exists, what it stresses and what it bypasses:

* ``datagen``: offline and expert data generation plus the ratio report
  into a fresh output directory.  Every offline episode uses the
  noisy-expert logger, so each episode costs exactly three hindsight
  solves (logger, expert, r*); the random and fixed loggers cost none and
  would make a run's cost depend on the seed's draw of logger kinds.
  Stresses ``expert`` (grid x bisection) and ``_kernels.replay_scan``;
  bypasses the transformer and the discriminator.
* ``train``: nnPU discriminator training, prep and one short ``ebaret``
  training.  Set-up generates the datasets, so the market and the expert
  do not run in the timed body.  Stresses ``nncore``/``transformer``
  batched forward and backward, Adam, ``discriminator`` and ``rewards``.
* ``eval``: ``cmd_eval`` for ``ebaret``, ``dt`` and ``bc`` on a filled r*
  cache.  Stresses KV-cached batch-1 inference through the functional
  ``nncore`` ops and per-step ``step_scan``; bypasses training and, with
  the cache filled in set-up, the r* oracle.

The offline data for ``train`` and ``eval`` come from the random and fixed
loggers only.  ``cmd_train`` refuses expert data that is not better than
the offline data; with a noisy-expert share and only a few episodes that
happens for some seeds, and no operation of a workload may fail.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import time

import numpy as np

from bagbid import pipeline as pl
from bagbid.discriminator import DiscConfig
from bagbid.pipeline import BehaviorSettings, CampaignSpec, ExperimentConfig, MarketSettings
from bagbid.transformer import ModelConfig

NOISY_EXPERT_ONLY = (0.0, 0.0, 1.0)
RANDOM_AND_FIXED = (0.5, 0.5, 0.0)
EVAL_METHODS = ("ebaret", "dt", "bc")
SPEND_SLACK = 1e-9
RSTAR_TOL = 1e-9


class Checks:
    """Operations attempted and failed; each check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def experiment(out_dir: str, seed: int, scale: str, mix: tuple, episodes: int = 1,
               train_steps: int = 1, disc_steps: int = 1) -> ExperimentConfig:
    """Experiment config at the ``default`` market shape or the unit tests'
    ``tiny`` one.  The counts apply at ``default`` scale; ``tiny`` keeps the
    tiny experiment's counts."""
    behavior = BehaviorSettings(mix=mix)
    if scale == "tiny":
        return ExperimentConfig(
            seed=seed,
            output_dir=out_dir,
            market=MarketSettings(steps_per_episode=24, opportunities_per_step=20),
            campaigns=[
                CampaignSpec(campaign_id="c0", budget=6.0, ros_bound=6.0),
                CampaignSpec(campaign_id="c1", budget=9.0, ros_bound=6.0),
            ],
            behavior=behavior,
            train_episodes_per_campaign=4,
            test_periods=2,
            test_seeds_per_period=2,
            model=ModelConfig(
                d_model=16, n_layers=1, n_heads=2, context_steps=24, bag_len=8,
                k_levels=2, train_steps=60, batch_size=4, seed=seed,
            ),
            disc=DiscConfig(steps=80, batch_size=64, seed=seed),
        )
    if scale != "default":
        raise ValueError(f"unknown scale {scale!r}")
    return ExperimentConfig(
        seed=seed,
        output_dir=out_dir,
        market=MarketSettings(),
        campaigns=pl.default_campaigns()[:2],
        behavior=behavior,
        train_episodes_per_campaign=episodes,
        test_periods=1,
        test_seeds_per_period=1,
        model=ModelConfig(train_steps=train_steps, seed=seed),
        disc=DiscConfig(steps=disc_steps, seed=seed),
    )


def _read_csv(path) -> list[dict]:
    with open(path) as f:
        return list(csv.DictReader(f))


def check_trajectories(exp: ExperimentConfig, trajs, checks: Checks):
    """Spend within budget for every episode; for expert episodes also a
    feasible solution whose rollout reproduces r* (the solver's replay
    value for that campaign-day) exactly."""
    budgets = {c.campaign_id: c.budget for c in exp.campaigns}
    for t in trajs:
        checks.check(t.total_spend <= budgets[t.campaign_id] + SPEND_SLACK,
                     f"{t.source} {t.campaign_id}/{t.seed}: spend {t.total_spend!r} "
                     f"over budget {budgets[t.campaign_id]!r}")
        if t.source == "expert":
            rstar = t.meta["replay_value"]
            checks.check(bool(t.meta["feasible"]) and abs(t.total_value - rstar) <= RSTAR_TOL,
                         f"expert {t.campaign_id}/{t.seed}: value {t.total_value!r} "
                         f"vs r* {rstar!r}, feasible={t.meta['feasible']}")


def check_losses(values, what: str, checks: Checks):
    checks.check(len(values) > 0 and all(math.isfinite(v) for v in values),
                 f"{what}: non-finite or missing loss")


def train_losses(exp: ExperimentConfig, method: str) -> list[float]:
    return [float(r["rtg_loss"]) + float(r["action_loss"])
            for r in _read_csv(exp.train_log_path(method))]


def disc_losses(exp: ExperimentConfig) -> list[float]:
    return [float(r["loss"]) for r in _read_csv(exp.path("logs", "disc_nnpu.csv"))]


def last_tenth_mean(values) -> float:
    tail = max(1, len(values) // 10)
    return float(np.mean(values[-tail:]))


def manifest_sha256(exp: ExperimentConfig) -> dict:
    with open(exp.manifest_path) as f:
        return json.load(f)["sha256"]


class Workload:
    """Set-up, timed body and checks of one workload.

    ``body`` returns ``(items, busy_s)``: the units of work done and the
    seconds the throughput divides them by.
    """

    name = ""
    item = ""
    throughput_name = "episodes_per_s"
    reference_tasks: tuple = ()  # the speed.Reference tasks like this work

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scale = scale
        self.exp: ExperimentConfig | None = None

    def setup(self, out_dir: str, checks: Checks):
        raise NotImplementedError

    def body(self):
        raise NotImplementedError

    def warm_up(self):
        """One untimed body, so first-call costs in the process (the first
        discriminator training costs about three times a later one) stay
        out of the timed bodies."""
        self.body()

    def verify(self, checks: Checks):
        raise NotImplementedError

    def quality(self) -> dict:
        raise NotImplementedError

    def fingerprint(self) -> dict:
        raise NotImplementedError

    def _datasets(self, exp: ExperimentConfig, checks: Checks):
        offline = pl.cmd_gen_data(exp)
        expert = pl.cmd_gen_expert(exp)
        check_trajectories(exp, offline + expert, checks)


class Datagen(Workload):
    name = "datagen"
    item = "trajectories written"
    reference_tasks = ("scan",)

    def _config(self, out_dir, scale=None):
        return experiment(out_dir, self.seed, scale or self.scale, NOISY_EXPERT_ONLY)

    def warm_up(self):
        pass  # set-up already ran every stage at the small market shape

    def setup(self, out_dir, checks):
        # warm the market and solver paths once at the small market shape
        self._root = out_dir
        self._iteration = 0
        self._first = None
        warm = self._config(os.path.join(out_dir, "warmup"), scale="tiny")
        pl.cmd_gen_data(warm)
        pl.cmd_gen_expert(warm)
        pl.cmd_ratio_report(warm)

    def body(self):
        if self.exp is not None:
            shutil.rmtree(self.exp.output_dir, ignore_errors=True)
        self.exp = self._config(os.path.join(self._root, f"run{self._iteration}"))
        self._iteration += 1
        t0 = time.perf_counter()
        self._offline = pl.cmd_gen_data(self.exp)
        self._expert = pl.cmd_gen_expert(self.exp)
        self._ratio = pl.cmd_ratio_report(self.exp)
        return len(self._offline) + len(self._expert), time.perf_counter() - t0

    def verify(self, checks):
        check_trajectories(self.exp, self._offline + self._expert, checks)
        r = self._ratio
        checks.check(all(math.isfinite(r[k]) for k in ("min", "max", "mean", "median"))
                     and r["min"] >= 0.0, f"ratio report out of range: {r}")
        sha = manifest_sha256(self.exp)
        if self._first is None:
            self._first = sha
        checks.check(sha == self._first, "datasets differ between repeated bodies")

    def quality(self):
        return {"expert_value_mean": (float(np.mean([t.total_value for t in self._expert])),
                                      "conversions")}

    def fingerprint(self):
        return {"dataset_sha256": self._first}


class Train(Workload):
    name = "train"
    item = "transformer train steps"
    throughput_name = "train_steps_per_s"
    reference_tasks = ("batched",)

    def setup(self, out_dir, checks):
        self.exp = experiment(out_dir, self.seed, self.scale, RANDOM_AND_FIXED,
                              episodes=2, train_steps=30, disc_steps=500)
        self._datasets(self.exp, checks)
        self._first = None

    def body(self):
        pl.cmd_train_disc(self.exp)
        pl.cmd_prep(self.exp)
        t0 = time.perf_counter()
        pl.cmd_train(self.exp, "ebaret")
        return self.exp.model.train_steps, time.perf_counter() - t0

    def verify(self, checks):
        disc = disc_losses(self.exp)
        train = train_losses(self.exp, "ebaret")
        check_losses(disc, "discriminator", checks)
        check_losses(train, "ebaret", checks)
        last = (disc[-1], train[-1])
        if self._first is None:
            self._first = last
        checks.check(last == self._first, "losses differ between repeated bodies")
        self._train = train

    def quality(self):
        return {"train_loss_last": (last_tenth_mean(self._train), "loss")}

    def fingerprint(self):
        return {
            "dataset_sha256": manifest_sha256(self.exp),
            "disc_loss_last": self._first[0],
            "ebaret_loss_last": self._first[1],
        }


class Eval(Workload):
    name = "eval"
    item = "evaluation episodes"
    reference_tasks = ("tiny", "scan", "parse")

    def setup(self, out_dir, checks):
        # short training suffices: the cost of eval hardly depends on the weights
        self.exp = experiment(out_dir, self.seed, self.scale, RANDOM_AND_FIXED,
                              episodes=2, train_steps=5, disc_steps=100)
        self._datasets(self.exp, checks)
        pl.cmd_train_disc(self.exp)
        pl.cmd_prep(self.exp)
        self._losses = {}
        for method in EVAL_METHODS:
            pl.cmd_train(self.exp, method)
            self._losses[method] = train_losses(self.exp, method)
            check_losses(self._losses[method], method, checks)
        # shares r* across methods the way run_pipeline does
        self.rstar_cache = {}
        pl.cmd_eval(self.exp, EVAL_METHODS[0], rstar_cache=self.rstar_cache)
        self._first = None

    def body(self):
        t0 = time.perf_counter()
        self._reports = [pl.cmd_eval(self.exp, m, rstar_cache=self.rstar_cache)
                         for m in EVAL_METHODS]
        return sum(len(r.rows) for r in self._reports), time.perf_counter() - t0

    def verify(self, checks):
        budgets = {c.campaign_id: c.budget for c in self.exp.campaigns}
        for report in self._reports:
            for row in report.rows:
                checks.check(math.isfinite(row.ratio) and row.ratio >= 0.0
                             and row.spend <= budgets[row.campaign_id] + SPEND_SLACK,
                             f"{row.method} {row.campaign_id}/{row.seed}: ratio "
                             f"{row.ratio!r}, spend {row.spend!r}")
        means = {r.method: r.grand_mean() for r in self._reports}
        if self._first is None:
            self._first = means
        checks.check(means == self._first, "grand means differ between repeated bodies")

    def quality(self):
        return {"eval_conversions_mean": (float(np.mean(list(self._first.values()))),
                                          "conversions")}

    def fingerprint(self):
        return {
            "dataset_sha256": manifest_sha256(self.exp),
            "grand_mean": self._first,
            "loss_last": {m: v[-1] for m, v in self._losses.items()},
        }


WORKLOADS = {w.name: w for w in (Datagen, Train, Eval)}
