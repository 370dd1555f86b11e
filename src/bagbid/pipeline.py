"""End-to-end experiment driver.

Stages, each a pure function of the experiment config and seed:

  gen-data     mixed-quality behavior episodes per campaign (offline set)
  gen-expert   hindsight expert episodes on the matched seeds
  train-disc   expert-vs-unlabeled discriminator (PU or plain CE)
  train        fit one method (bc / dt / ebaret and its ablations); for
               a method with a discriminator, prep first scores every
               transition, assigns expert levels and rebuilds return-to-go
               from bag-redistributed rewards, in memory, on the (N, T)
               stack of all episodes at once
  eval         roll trained policies over held-out test periods
  report       cross-method tables, and the offline corpus's
               suboptimality-ratio histogram against the r* that
               gen-expert stored for each training day

Outputs are ``.trajs`` datasets (see ``trajectory``) and ``.ckpt``
checkpoints (see ``nncore``), each a JSON header line and raw float64
data, and CSV metrics under the config's output directory.  Prep labels
are a function of the datasets, the discriminator checkpoint,
``k_levels``, ``bag_len`` and ``beta``, and no file stores them, so a
training always sees labels for the config and discriminator it runs
with.  Each method's eval writes only its own
``reports/metrics_<method>.csv``, one row per campaign-day, which
``report`` reads back, so evals of different methods never share a file.
All file writes are atomic; train and test seed ranges are disjoint by
construction and recorded in the manifest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from bagbid import rewards as rw
from bagbid.discriminator import (
    DiscConfig,
    DiscriminatorModel,
    assign_levels,
    sigmoid,
    train_discriminator,
)
from bagbid.expert import ROS_SLACK, generate_expert_trajectories, solve_multipliers
from bagbid.market import (
    MarketConfig,
    OpportunityStream,
    run_episodes,
    sinusoid_cvr_profile,
)
from bagbid.shard_worker import ShardWorkerError
from bagbid.trajectory import (
    CampaignConstraints,
    atomic_write_text,
    dataset_records,
    load_jsonl,
    save_jsonl,
)
from bagbid.transformer import (
    ARCH_BC,
    ARCH_DT,
    ARCH_FULL,
    ARCH_NO_LEVEL,
    Arch,
    ConfigError,
    ModelConfig,
    TrainingBatch,
    TrajectoryTransformer,
    make_inference_policy,
    train_model,
)

TEST_SEED_BASE = 50_000
TEST_PERIOD_STRIDE = 100
CAMPAIGN_SEED_STRIDE = 100_000


class PipelineError(RuntimeError):
    pass


def _write_csv(path, header, rows):
    """Write ``header`` and then ``rows`` as one CSV file, atomically."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    atomic_write_text(path, buf.getvalue())


@dataclass
class CampaignSpec:
    campaign_id: str
    budget: float
    ros_bound: float

    @property
    def constraints(self) -> CampaignConstraints:
        return CampaignConstraints(budget=self.budget, ros_bound=self.ros_bound)


def default_campaigns() -> list:
    budgets = [12.0, 16.0, 20.0, 24.0, 14.0, 22.0, 18.0, 26.0]
    return [
        CampaignSpec(campaign_id=f"c{i}", budget=b, ros_bound=6.0)
        for i, b in enumerate(budgets)
    ]


@dataclass
class MarketSettings:
    """Every campaign-day's ``MarketConfig``, with its defaults, and the
    shape of the CVR profile ``market_config_for`` draws per campaign."""

    steps_per_episode: int = MarketConfig.steps_per_episode
    opportunities_per_step: int = MarketConfig.opportunities_per_step
    value_distribution_params: tuple = MarketConfig.value_distribution_params
    competitor_bid_params: tuple = MarketConfig.competitor_bid_params
    cvr_amplitude: float = 0.4
    cvr_noise: float = 0.05
    a_max: float = MarketConfig.a_max


@dataclass
class BehaviorSettings:
    """Mixed-quality logging policies for the offline dataset.

    The defaults put the mixture's mean bid scale well away from the
    hindsight-optimal scale: the random logger overbids, the fixed logger
    underbids, and the noisy-expert logger wanders around the optimum.
    """

    mix: tuple = (0.3, 0.3, 0.4)  # random, fixed, noisy-expert
    random_low: float = 1.0
    random_high: float = 6.0
    fixed_scale: float = 0.4
    noise_sigma: float = 0.45

    def __post_init__(self):
        if len(self.mix) != 3 or abs(sum(self.mix) - 1.0) > 1e-9 or min(self.mix) < 0:
            raise ConfigError(f"behavior mix must be 3 non-negative weights summing to 1, got {self.mix}")


@dataclass
class ExperimentConfig:
    seed: int = 0
    output_dir: str = "runs/default"
    market: MarketSettings = field(default_factory=MarketSettings)
    campaigns: list = field(default_factory=default_campaigns)
    behavior: BehaviorSettings = field(default_factory=BehaviorSettings)
    train_episodes_per_campaign: int = 20
    test_periods: int = 7
    test_seeds_per_period: int = 5
    model: ModelConfig = field(default_factory=ModelConfig)
    disc: DiscConfig = field(default_factory=DiscConfig)
    beta: float = 0.5
    dt_target_quantile: float = 0.9

    def __post_init__(self):
        if not self.campaigns:
            raise ConfigError("campaigns must not be empty")
        for i, c in enumerate(self.campaigns):
            try:
                c.constraints
            except (ValueError, TypeError) as e:
                raise ConfigError(f"campaigns[{i}]: {e}") from None
            if c.campaign_id in [d.campaign_id for d in self.campaigns[:i]]:
                raise ConfigError(f"campaigns[{i}]: duplicate campaign_id {c.campaign_id!r}")
        try:
            market_config_for(self, 0, self.seed)  # MarketConfig's own checks
        except ValueError as e:
            raise ConfigError(f"market: {e}") from None
        if self.market.steps_per_episode % self.model.bag_len != 0:
            raise ConfigError("steps_per_episode must be divisible by bag_len")
        if self.model.context_steps < self.market.steps_per_episode:
            raise ConfigError(
                f"model.context_steps={self.model.context_steps} is shorter than "
                f"market.steps_per_episode={self.market.steps_per_episode}"
            )
        if self.model.a_max != self.market.a_max:
            raise ConfigError(
                f"model.a_max={self.model.a_max} differs from "
                f"market.a_max={self.market.a_max}"
            )
        if not 0 < self.train_episodes_per_campaign < TEST_SEED_BASE:
            raise ConfigError(f"train_episodes_per_campaign must be in [1, {TEST_SEED_BASE}), "
                              f"got {self.train_episodes_per_campaign}")
        if not 0 < self.test_seeds_per_period <= TEST_PERIOD_STRIDE:
            raise ConfigError(f"test_seeds_per_period must be in [1, {TEST_PERIOD_STRIDE}], "
                              f"got {self.test_seeds_per_period}")
        max_periods = (CAMPAIGN_SEED_STRIDE - TEST_SEED_BASE) // TEST_PERIOD_STRIDE
        if not 0 < self.test_periods <= max_periods:
            raise ConfigError(f"test_periods must be in [1, {max_periods}], "
                              f"got {self.test_periods}")
        if self.disc.steps < 1:
            # an untrained discriminator scores every transition alike, and
            # the expert levels cannot be binned from equal scores
            raise ConfigError(f"disc.steps must be >= 1, got {self.disc.steps}")
        if not self.beta > 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not 0.0 <= self.dt_target_quantile <= 1.0:
            raise ConfigError(f"dt_target_quantile must be in [0, 1], "
                              f"got {self.dt_target_quantile}")

    # -- paths --------------------------------------------------------------

    def path(self, *parts) -> str:
        return os.path.join(self.output_dir, *parts)

    @property
    def offline_path(self):
        return self.path("data", "offline.trajs")

    @property
    def expert_path(self):
        return self.path("data", "expert.trajs")

    @property
    def manifest_path(self):
        return self.path("data", "manifest.json")

    def disc_path(self, plain_ce: bool):
        return self.path("models", "disc_ce.ckpt" if plain_ce else "disc_nnpu.ckpt")

    def ckpt_path(self, method: str):
        return self.path("models", f"ckpt_{method}.ckpt")

    def train_log_path(self, method: str):
        return self.path("logs", f"train_{method}.csv")

    def metrics_path(self, method: str):
        return self.path("reports", f"metrics_{method}.csv")

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        d = asdict(self)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        campaigns = d.get("campaigns", [])
        if not isinstance(campaigns, list) or not all(isinstance(c, dict) for c in campaigns):
            raise ConfigError("campaigns must be a list of JSON objects")
        d = dict(_numbers_checked(cls, d))
        for name, kind in (("market", MarketSettings), ("behavior", BehaviorSettings),
                           ("model", ModelConfig), ("disc", DiscConfig)):
            if name not in d:
                continue
            if not isinstance(d[name], dict):
                raise ConfigError(f"{name} must be a JSON object")
            d[name] = kind(**_tupled(_numbers_checked(kind, d[name], f"{name}.")))
        if "campaigns" in d:
            d["campaigns"] = [
                CampaignSpec(**_numbers_checked(CampaignSpec, c, f"campaigns[{i}]."))
                for i, c in enumerate(d["campaigns"])]
        return cls(**d)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        """Read a config file; a file that does not parse, or that has an
        unknown key or a rejected value, raises ``ConfigError`` naming it."""
        with open(path) as f:
            try:
                return cls.from_json_dict(json.load(f))
            except (ValueError, TypeError, AttributeError) as e:
                raise ConfigError(f"{path}: {e}") from None

    def save(self, path):
        atomic_write_text(path, json.dumps(self.to_json_dict(), indent=2, default=list))


def _numbers_checked(cls, d: dict, section: str = "") -> dict:
    """``d``, once every field of ``cls`` declared ``int`` that it sets
    holds a JSON integer (not a float or a bool), and every field declared
    ``float`` a JSON number (not a bool)."""
    for f in fields(cls):
        if f.name not in d:
            continue
        value = d[f.name]
        if f.type == "int" and type(value) is not int:
            raise ConfigError(f"{section}{f.name} must be an integer, got {value!r}")
        if f.type == "float" and type(value) not in (int, float):
            raise ConfigError(f"{section}{f.name} must be a number, got {value!r}")
    return d


def _tupled(d: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}


def default_config(output_dir="runs/default", seed=0) -> ExperimentConfig:
    return ExperimentConfig(seed=seed, output_dir=output_dir)


# ---------------------------------------------------------------------------
# seeds and per-campaign market configs
# ---------------------------------------------------------------------------


def train_seed(exp: ExperimentConfig, campaign_idx: int, episode_idx: int) -> int:
    return exp.seed + CAMPAIGN_SEED_STRIDE * campaign_idx + episode_idx


def test_seed(exp: ExperimentConfig, campaign_idx: int, period: int, k: int) -> int:
    return (
        exp.seed
        + CAMPAIGN_SEED_STRIDE * campaign_idx
        + TEST_SEED_BASE
        + TEST_PERIOD_STRIDE * period
        + k
    )


def train_seeds(exp: ExperimentConfig):
    return [
        train_seed(exp, ci, ei)
        for ci in range(len(exp.campaigns))
        for ei in range(exp.train_episodes_per_campaign)
    ]


def test_seeds(exp: ExperimentConfig):
    return [
        test_seed(exp, ci, p, k)
        for ci in range(len(exp.campaigns))
        for p in range(exp.test_periods)
        for k in range(exp.test_seeds_per_period)
    ]


def market_config_for(exp: ExperimentConfig, campaign_idx: int, seed: int) -> MarketConfig:
    m = exp.market
    profile = sinusoid_cvr_profile(
        steps=m.steps_per_episode,
        amplitude=m.cvr_amplitude,
        noise=m.cvr_noise,
        phase=2.0 * math.pi * campaign_idx / max(1, len(exp.campaigns)),
        seed=exp.seed + 31 * campaign_idx,
    )
    return MarketConfig(
        steps_per_episode=m.steps_per_episode,
        opportunities_per_step=m.opportunities_per_step,
        value_distribution_params=m.value_distribution_params,
        competitor_bid_params=m.competitor_bid_params,
        cvr_profile=profile,
        seed=seed,
        a_max=m.a_max,
    )


# ---------------------------------------------------------------------------
# behavior policies and dataset generation
# ---------------------------------------------------------------------------


_BEHAVIOR_KINDS = ("random", "fixed", "noisy_expert")


def _train_days(exp: ExperimentConfig):
    """Every training day, campaign-major: its (campaign index, episode
    index), and the opportunity streams, constraints and campaign ids that
    ``run_episodes`` takes.  Each day's stream is built here once."""
    keys = [(ci, ei) for ci in range(len(exp.campaigns))
            for ei in range(exp.train_episodes_per_campaign)]
    return (keys,
            [OpportunityStream(market_config_for(exp, ci, train_seed(exp, ci, ei)))
             for ci, ei in keys],
            [exp.campaigns[ci].constraints for ci, _ in keys],
            [exp.campaigns[ci].campaign_id for ci, _ in keys])


def gen_offline_data(exp: ExperimentConfig) -> list:
    """Mixed-policy behavior episodes for every campaign and train seed,
    all rolled in one ``run_episodes`` batch.

    Each day has its own generator, seeded by (seed, 11, campaign index,
    episode index).  It draws the day's logger (random, fixed or
    noisy-expert) and then, step by step, the day's bids, so no day's
    episode depends on the other days.
    """
    b = exp.behavior
    keys, streams, constraints, campaign_ids = _train_days(exp)
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((exp.seed, 11, ci, ei))))
            for ci, ei in keys]
    kinds = [_BEHAVIOR_KINDS[rng.choice(3, p=b.mix)] for rng in rngs]
    scales = [solve_multipliers(stream, k).scale if kind == "noisy_expert" else 0.0
              for stream, k, kind in zip(streams, constraints, kinds)]

    def bid(rng, kind, expert_scale):
        if kind == "random":
            return float(rng.uniform(b.random_low, b.random_high))
        if kind == "fixed":
            return b.fixed_scale
        return float(expert_scale * rng.lognormal(0.0, b.noise_sigma))

    def policy(states, actions, rewards):
        return [min(bid(*day), exp.market.a_max) for day in zip(rngs, kinds, scales)]

    trajs = run_episodes(policy, streams, constraints, campaign_ids)
    for traj, kind in zip(trajs, kinds):
        traj.source = kind
    return trajs


def gen_expert_data(exp: ExperimentConfig) -> list:
    """Hindsight expert episodes on the same campaign/seed grid, all
    rolled in one ``run_episodes`` batch."""
    _, *days = _train_days(exp)
    return generate_expert_trajectories(*days)


def write_manifest(exp: ExperimentConfig):
    files = {}
    counts = {}
    for name, path in (("offline", exp.offline_path), ("expert", exp.expert_path)):
        if os.path.exists(path):
            with open(path, "rb") as f:
                raw = f.read()
            files[name] = hashlib.sha256(raw).hexdigest()
            counts[name] = len(dataset_records(raw, path)[0])
    manifest = {
        "seed": exp.seed,
        "counts": counts,
        "sha256": files,
        "train_seeds": train_seeds(exp),
        "test_seeds": test_seeds(exp),
    }
    atomic_write_text(exp.manifest_path, json.dumps(manifest, indent=2))
    return manifest


def cmd_gen_data(exp: ExperimentConfig) -> list:
    trajs = gen_offline_data(exp)
    save_jsonl(trajs, exp.offline_path)
    write_manifest(exp)
    return trajs


def cmd_gen_expert(exp: ExperimentConfig) -> list:
    trajs = gen_expert_data(exp)
    save_jsonl(trajs, exp.expert_path)
    write_manifest(exp)
    return trajs


# ---------------------------------------------------------------------------
# discriminator training and prep labels
# ---------------------------------------------------------------------------


def transitions_matrix(trajs) -> np.ndarray:
    """(N*T, 9) matrix of concatenated state vectors and actions."""
    xs = [np.concatenate([t.states, t.actions[:, None]], axis=1) for t in trajs]
    return np.concatenate(xs, axis=0)


def cmd_train_disc(exp: ExperimentConfig, plain_ce: bool = False) -> DiscriminatorModel:
    offline = load_jsonl(exp.offline_path)
    expert = load_jsonl(exp.expert_path)
    model, curve = train_discriminator(
        transitions_matrix(expert), transitions_matrix(offline), exp.disc, plain_ce=plain_ce
    )
    model.save(exp.disc_path(plain_ce))
    _write_csv(exp.path("logs", f"disc_{'ce' if plain_ce else 'nnpu'}.csv"), ["step", "loss"],
               ((i, f"{v:.8f}") for i, v in enumerate(curve)))
    return model


def prep_labels(trajs, disc: DiscriminatorModel, k_levels: int, bag_len: int,
                beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Expert levels and return-to-go labels, two (N, T) arrays in
    trajectory order, computed on the stacked episodes at once.

    Levels pool every non-expert transition for the quantile split; expert
    transitions are pinned to the top level.  Return-to-go is rebuilt from
    the rewards redistributed within each bag by discriminator score.
    """
    rewards = np.stack([t.rewards for t in trajs])
    sig = sigmoid(disc.score_batch(transitions_matrix(trajs)))
    flags = np.repeat([t.source == "expert" for t in trajs], rewards.shape[1])
    levels = assign_levels(sig, k_levels, flags).reshape(rewards.shape)
    rtgs = rw.recompute_rtg(rw.redistribute_trajectory(rewards, sig.reshape(rewards.shape),
                                                       bag_len, beta))
    return levels, rtgs


def cmd_prep(exp: ExperimentConfig, plain_ce: bool = False):
    """Offline then expert trajectories and their ``prep_labels`` under the
    discriminator ``train-disc`` saved; writes nothing."""
    disc = DiscriminatorModel.load(exp.disc_path(plain_ce))
    trajs = load_jsonl(exp.offline_path) + load_jsonl(exp.expert_path)
    return trajs, prep_labels(trajs, disc, exp.model.k_levels, exp.model.bag_len, exp.beta)


# ---------------------------------------------------------------------------
# methods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodSpec:
    name: str
    arch: Arch
    disc_plain_ce: bool | None  # None: no discriminator and no expert data
    redistributed_labels: bool
    seed_offset: int

    @property
    def use_expert_data(self) -> bool:
        return self.disc_plain_ce is not None


# ebaret-noe and dt have the same MethodSpec apart from the name and the seed
# offset (4 against 5): the gap between them measures seed noise.
METHODS = {
    "ebaret": MethodSpec("ebaret", ARCH_FULL, False, True, 0),
    "ebaret-nopu": MethodSpec("ebaret-nopu", ARCH_FULL, True, True, 1),
    "ebaret-noea": MethodSpec("ebaret-noea", ARCH_NO_LEVEL, False, True, 2),
    "ebaret-nobr": MethodSpec("ebaret-nobr", ARCH_FULL, False, False, 3),
    "ebaret-noe": MethodSpec("ebaret-noe", ARCH_DT, None, False, 4),
    "dt": MethodSpec("dt", ARCH_DT, None, False, 5),
    "bc": MethodSpec("bc", ARCH_BC, None, False, 6),
}


def normalize_method(name: str) -> str:
    """Accept CLI spellings like 'ebaret-noE' or 'ebaret¬E'."""
    key = name.strip().lower().replace("¬", "-no")
    if key in METHODS:
        return key
    raise ConfigError(f"unknown method {name!r}; choose from {sorted(METHODS)}")


def method_model_config(exp: ExperimentConfig, spec: MethodSpec) -> ModelConfig:
    """The model config ``spec`` trains with: the experiment's, with the
    seed offset by the method."""
    return replace(exp.model, seed=exp.model.seed + 1000 * spec.seed_offset)


def build_training_batch(trajs, model_cfg: ModelConfig, spec: MethodSpec,
                         labels: tuple | None) -> TrainingBatch:
    """Batch of ``trajs``; ``labels`` are their ``prep_labels``, None for a
    method without a discriminator."""
    states = np.stack([t.states for t in trajs])
    actions = np.stack([t.actions for t in trajs])
    if spec.redistributed_labels:
        rtgs = labels[1]
    else:
        rtgs = rw.recompute_rtg(np.stack([t.rewards for t in trajs]))
    if spec.arch.use_level_embedding:
        levels = labels[0]
    else:
        levels = np.zeros(actions.shape, dtype=np.int64)
    return TrainingBatch(states, actions, rtgs / model_cfg.rtg_scale, levels)


def cmd_train(exp: ExperimentConfig, method: str) -> TrajectoryTransformer:
    spec = METHODS[normalize_method(method)]
    if spec.use_expert_data:
        trajs, labels = cmd_prep(exp, spec.disc_plain_ce)
        mean_off = float(np.mean([t.total_reward for t in trajs if t.source != "expert"]))
        mean_exp = float(np.mean([t.total_reward for t in trajs if t.source == "expert"]))
        if mean_exp <= mean_off:
            raise PipelineError(
                f"expert data is not better than offline data "
                f"({mean_exp:.3f} <= {mean_off:.3f}); dataset generation is off"
            )
    else:
        trajs, labels = load_jsonl(exp.offline_path), None

    model_cfg = method_model_config(exp, spec)
    data = build_training_batch(trajs, model_cfg, spec, labels)
    rows: list = []
    try:
        model = train_model(data, model_cfg, spec.arch, log_rows=rows)
    except ShardWorkerError as e:
        raise PipelineError(f"training {spec.name}: {e}") from None

    manual_target = float(
        np.quantile([t.total_reward for t in trajs], exp.dt_target_quantile)
    )
    model.save(
        exp.ckpt_path(spec.name),
        extra_meta={
            "method": spec.name,
            "manual_target": manual_target,
            "n_train_trajectories": len(trajs),
        },
    )
    _write_csv(exp.train_log_path(spec.name), ["step", "rtg_loss", "action_loss"],
               ((s, f"{r:.8f}", f"{a:.8f}") for s, r, a in rows))
    return model


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalRow:
    method: str
    period: int
    seed: int
    campaign_id: str
    conversions_expected: float
    conversions_realized: float
    spend: float
    ratio: float  # achieved / hindsight-optimal expected conversions
    budget_use: float  # spend / budget
    ros: float  # spend / expected conversions, 0 without conversions
    ros_violated: bool  # ros above the campaign's bound (+ ROS_SLACK)


# keyed by the EvalRow annotations, which are strings under postponed evaluation
_PARSE_FIELD = {"str": str, "int": int, "float": float,
                "bool": {"True": True, "False": False}.__getitem__}


@dataclass
class EvalReport:
    """One method's eval record: a row per campaign-day, and every
    aggregate ``eval`` and ``report`` print."""

    method: str
    rows: list

    def per_period(self):
        """period -> mean expected conversions over the period's campaign-days."""
        by_period: dict[int, list] = {}
        for r in self.rows:
            by_period.setdefault(r.period, []).append(r.conversions_expected)
        return {p: float(np.mean(v)) for p, v in sorted(by_period.items())}

    def grand_mean(self) -> float:
        return float(np.mean(list(self.per_period().values())))

    def per_campaign_mean(self):
        by_c: dict[str, list] = {}
        for r in self.rows:
            by_c.setdefault(r.campaign_id, []).append(r.conversions_expected)
        return {c: float(np.mean(v)) for c, v in sorted(by_c.items())}

    def summary(self) -> dict:
        period_means = self.per_period()
        values = list(period_means.values())
        return {
            "method": self.method,
            "grand_mean": self.grand_mean(),
            "per_period_mean": period_means,
            "per_campaign_mean": self.per_campaign_mean(),
            "stderr": float(np.std(values, ddof=1) / math.sqrt(len(values)))
            if len(values) > 1
            else 0.0,
            "mean_ratio": float(np.mean([r.ratio for r in self.rows])),
            "mean_budget_use": float(np.mean([r.budget_use for r in self.rows])),
            "ros_violation_rate": float(np.mean([r.ros_violated for r in self.rows])),
        }

    def save(self, path):
        """CSV with the ``EvalRow`` fields as columns in declaration order;
        floats are written as their round-trip repr, so ``load`` gives
        equal rows."""
        _write_csv(path, [f.name for f in fields(EvalRow)], (astuple(r) for r in self.rows))

    @classmethod
    def load(cls, path, method: str) -> "EvalReport":
        cols = fields(EvalRow)
        try:
            with open(path, newline="") as f:
                reader = csv.reader(f)
                header = next(reader, [])
                if header != [c.name for c in cols]:
                    raise ValueError(f"unexpected header {header}")
                rows = [EvalRow(*(_PARSE_FIELD[c.type](v)
                                  for c, v in zip(cols, rec, strict=True)))
                        for rec in reader]
            if {r.method for r in rows} != {method}:
                raise ValueError(f"rows are not all of method {method!r}")
        except (ValueError, KeyError, csv.Error) as e:
            raise PipelineError(f"{path} is not a metrics file: {e}") from None
        return cls(method, rows)


def cmd_eval(exp: ExperimentConfig, method: str, rstar_cache: dict | None = None) -> EvalReport:
    """Roll a trained method over every (campaign, period, seed) test day
    in one lockstep batch and score each day against its r*.

    ``rstar_cache`` maps (campaign index, seed) to r*, the replay value of
    the day's best constant bid scale; a day missing from it is solved on
    the stream it was rolled on and added.  A checkpoint whose model
    config or architecture is not the one ``cmd_train`` would train for
    ``exp`` raises ``PipelineError`` naming the fields that differ."""
    spec = METHODS[normalize_method(method)]
    path = exp.ckpt_path(spec.name)
    model = TrajectoryTransformer.load(path)
    stale = [f"{part}.{k} is {have[k]!r}, not {want[k]!r}"
             for part, have, want in [
                 ("model", asdict(model.config), asdict(method_model_config(exp, spec))),
                 ("arch", asdict(model.arch), asdict(spec.arch))]
             for k in want if have[k] != want[k]]
    if stale:
        raise PipelineError(f"{path} was trained for another config: {', '.join(stale)}; "
                            f"run `bagbid train --method {spec.name}` again")
    manual_target = model.loaded_meta.get("manual_target")
    cache = rstar_cache if rstar_cache is not None else {}
    days = [
        (ci, camp, period, test_seed(exp, ci, period, k))
        for ci, camp in enumerate(exp.campaigns)
        for period in range(exp.test_periods)
        for k in range(exp.test_seeds_per_period)
    ]
    streams = [OpportunityStream(market_config_for(exp, ci, seed)) for ci, _, _, seed in days]
    trajs = run_episodes(
        make_inference_policy(model, manual_target=manual_target),
        streams,
        [camp.constraints for _, camp, _, _ in days],
        [camp.campaign_id for _, camp, _, _ in days],
        source=spec.name,
    )
    rows = []
    for (ci, camp, period, seed), stream, traj in zip(days, streams, trajs):
        if (ci, seed) not in cache:
            cache[ci, seed] = solve_multipliers(stream, camp.constraints).summary.total_value
        rstar = cache[ci, seed]
        value, spend = traj.total_value, traj.total_spend
        ros = spend / value if value > 0 else 0.0
        rows.append(
            EvalRow(
                method=spec.name,
                period=period,
                seed=seed,
                campaign_id=camp.campaign_id,
                conversions_expected=value,
                conversions_realized=traj.total_reward,
                spend=spend,
                ratio=value / rstar if rstar > 0 else 0.0,
                budget_use=spend / camp.budget,
                ros=ros,
                ros_violated=ros > camp.ros_bound + ROS_SLACK,
            )
        )
    report = EvalReport(method=spec.name, rows=rows)
    report.save(exp.metrics_path(spec.name))
    return report


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def cmd_ratio_report(exp: ExperimentConfig, bins: int = 20) -> dict:
    """Suboptimality of the offline corpus: achieved / hindsight-optimal
    expected conversions per episode, with a histogram over [0, 1].

    A day's r* is the replay value gen-expert stored for the expert
    episode of the same campaign, seed and constraints."""
    if not os.path.exists(exp.expert_path):
        raise PipelineError(f"{exp.expert_path} is missing; run gen-expert first")
    experts = {(t.campaign_id, t.seed): t for t in load_jsonl(exp.expert_path)}
    ratios = []
    for t in load_jsonl(exp.offline_path):
        expert = experts.get((t.campaign_id, t.seed))
        if expert is None:
            raise PipelineError(f"{exp.expert_path} has no day {t.campaign_id} seed {t.seed} "
                                f"of the offline data; run gen-expert again")
        if expert.constraints != t.constraints:
            raise PipelineError(f"day {t.campaign_id} seed {t.seed} has {t.constraints} offline "
                                f"but {expert.constraints} in {exp.expert_path}; "
                                f"run gen-expert again")
        rstar = expert.meta["replay_value"]
        ratios.append(t.total_value / rstar if rstar > 0 else 0.0)
    ratios = np.asarray(ratios)

    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(np.clip(ratios, 0.0, 1.0), bins=edges)
    _write_csv(exp.path("reports", "ratio_hist.csv"), ["bin_low", "bin_high", "count"],
               ([f"{edges[i]:.4f}", f"{edges[i + 1]:.4f}", int(counts[i])]
                for i in range(bins)))

    summary = {
        "n": int(ratios.size),
        "median": float(np.median(ratios)),
        "mean": float(ratios.mean()),
        "max": float(ratios.max()),
        "min": float(ratios.min()),
        "frac_below_0.9": float((ratios < 0.9).mean()),
    }
    atomic_write_text(exp.path("reports", "ratio_summary.json"), json.dumps(summary, indent=2))
    return summary


def cmd_report(exp: ExperimentConfig) -> dict:
    """Cross-method summary: ``EvalReport.summary()`` of every method
    with a metrics file."""
    out = {m: EvalReport.load(exp.metrics_path(m), m).summary()
           for m in METHODS if os.path.exists(exp.metrics_path(m))}
    if not out:
        raise PipelineError("no metrics yet; run eval first")
    atomic_write_text(exp.path("reports", "report.json"), json.dumps(out, indent=2))
    return out


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def ensure_training_inputs(exp: ExperimentConfig, spec: MethodSpec):
    """Generate missing datasets and train the method's discriminator if
    it has none."""
    if not os.path.exists(exp.offline_path):
        cmd_gen_data(exp)
    if not os.path.exists(exp.expert_path):
        cmd_gen_expert(exp)
    if spec.use_expert_data and not os.path.exists(exp.disc_path(spec.disc_plain_ce)):
        cmd_train_disc(exp, plain_ce=spec.disc_plain_ce)
