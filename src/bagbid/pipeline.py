"""End-to-end experiment driver.

Stages, each a pure function of the experiment config and seed:

  gen-data     mixed-quality behavior episodes per campaign (offline set)
               and hindsight expert episodes of the same days (expert set)
  train-disc   expert-vs-unlabeled discriminator (PU or plain CE)
  train        fit one method (bc / dt / ebaret and its ablations); for
               a method with a discriminator, prep first scores every
               transition, assigns expert levels and rebuilds return-to-go
               from bag-redistributed rewards, in memory, on the (N, T)
               stack of all episodes at once
  eval         roll trained policies over held-out test periods
  report       cross-method tables, and the offline corpus's
               suboptimality-ratio histogram against the r* that
               gen-data stored for each training day

The expert episodes replay the logged days in hindsight, so gen-data
builds each training day's opportunity stream once and solves it once
for both datasets (see ``gen_datasets``).

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
    DegenerateBinningError,
    DiscConfig,
    DiscriminatorModel,
    assign_levels,
    sigmoid,
    train_discriminator,
)
from bagbid.expert import ROS_SLACK, generate_expert_trajectories, solve_multipliers
from bagbid.market import (
    A_MAX,
    MarketConfig,
    OpportunityStream,
    replay_episodes,
    run_episodes,
    sinusoid_cvr_profile,
)
from bagbid.nncore import ConfigError, NonFiniteGradientError
from bagbid.shard_worker import ShardWorkerError
from bagbid.trajectory import (
    CampaignConstraints,
    atomic_write_text,
    load_jsonl,
    save_jsonl,
)
from bagbid.transformer import (
    ARCH_BC,
    ARCH_DT,
    ARCH_FULL,
    ARCH_NO_LEVEL,
    RTG_SCALE,
    Arch,
    ModelConfig,
    TrainingBatch,
    TrajectoryTransformer,
    make_inference_policy,
    train_model,
)

TEST_SEED_BASE = 50_000
TEST_PERIOD_STRIDE = 100
CAMPAIGN_SEED_STRIDE = 100_000
# quantile of the training episodes' returns that a return-conditioned
# model without a return head starts each eval episode from
DT_TARGET_QUANTILE = 0.9
# the random logger's bid-scale range (it overbids) and the fixed logger's scale
RANDOM_BID_SCALES = (1.0, 6.0)
FIXED_BID_SCALE = 0.4
# bins of the ratio report's histogram of the offline corpus over [0, 1]
RATIO_BINS = 20


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
    """The shape of every campaign-day's market; ``market_config_for`` adds
    its CVR profile and seed, and the rest are ``market`` constants."""

    steps_per_episode: int = MarketConfig.steps_per_episode
    opportunities_per_step: int = MarketConfig.opportunities_per_step


@dataclass
class BehaviorSettings:
    """Mixed-quality logging policies for the offline dataset: how often
    each of the random, fixed and noisy-expert loggers runs a day, and the
    noisy expert's log-normal noise around the hindsight-optimal scale.
    The mixture's mean bid scale lies well away from that optimum."""

    mix: tuple = (0.3, 0.3, 0.4)  # random, fixed, noisy-expert
    noise_sigma: float = 0.45

    def __post_init__(self):
        self.mix = tuple(self.mix) if isinstance(self.mix, list) else self.mix  # from JSON
        # type(), not isinstance(): a bool is not a weight; NaN fails 0 <= w
        if not (isinstance(self.mix, tuple) and len(self.mix) == 3
                and all(type(w) in (int, float) and 0 <= w < math.inf for w in self.mix)
                and abs(sum(self.mix) - 1.0) <= 1e-9):
            raise ConfigError(f"mix must be 3 finite non-negative weights summing "
                              f"to 1, got {self.mix}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


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
        # numpy's generators take no negative seed
        for name, seed in (("seed", self.seed), ("model.seed", self.model.seed),
                           ("disc.seed", self.disc.seed)):
            if seed < 0:
                raise ConfigError(f"{name} must be >= 0, got {seed}")
        for name, lr in (("model.lr", self.model.lr), ("disc.lr", self.disc.lr)):
            if not 0 < lr < math.inf:  # NaN too
                raise ConfigError(f"{name} must be positive and finite, got {lr}")
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
        return asdict(self)

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
            checked = _numbers_checked(kind, d[name], f"{name}.")
            try:
                d[name] = kind(**checked)
            except ValueError as e:  # a section's own checks name only the field
                raise ConfigError(f"{name}.{e}") from None
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


def _day_indices(exp: ExperimentConfig) -> list:
    """Every training day's (campaign index, episode index), campaign-major."""
    return [(ci, ei) for ci in range(len(exp.campaigns))
            for ei in range(exp.train_episodes_per_campaign)]


def train_seeds(exp: ExperimentConfig):
    return [train_seed(exp, ci, ei) for ci, ei in _day_indices(exp)]


def _test_days(exp: ExperimentConfig) -> list:
    """Every test day's (campaign index, period, seed), campaign-major."""
    return [(ci, p, test_seed(exp, ci, p, k)) for ci in range(len(exp.campaigns))
            for p in range(exp.test_periods) for k in range(exp.test_seeds_per_period)]


def test_seeds(exp: ExperimentConfig):
    return [seed for _, _, seed in _test_days(exp)]


def market_config_for(exp: ExperimentConfig, campaign_idx: int, seed: int) -> MarketConfig:
    m = exp.market
    profile = sinusoid_cvr_profile(
        steps=m.steps_per_episode,
        phase=2.0 * math.pi * campaign_idx / max(1, len(exp.campaigns)),
        seed=exp.seed + 31 * campaign_idx,
    )
    return MarketConfig(
        steps_per_episode=m.steps_per_episode,
        opportunities_per_step=m.opportunities_per_step,
        cvr_profile=profile,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# behavior policies and dataset generation
# ---------------------------------------------------------------------------


_BEHAVIOR_KINDS = ("random", "fixed", "noisy_expert")


def gen_datasets(exp: ExperimentConfig) -> tuple[list, list]:
    """The offline and the expert episodes of every training day, each
    set replayed in one ``replay_episodes`` batch.

    Each day's opportunity stream is built once and solved once; the
    noisy-expert logger and the hindsight expert both bid from that
    solution, on that stream.  Each day also has its own generator, seeded
    by (seed, 11, campaign index, episode index).  It draws the day's
    logger (random, fixed or noisy-expert) and then the day's T bids in
    one call, which consumes it as T one-bid draws would.  No logger reads
    the market state, and no day's episode depends on the other days.
    """
    b = exp.behavior
    t_steps = exp.market.steps_per_episode
    days = _day_indices(exp)
    streams = [OpportunityStream(market_config_for(exp, ci, train_seed(exp, ci, ei)))
               for ci, ei in days]
    constraints = [exp.campaigns[ci].constraints for ci, _ in days]
    campaign_ids = [exp.campaigns[ci].campaign_id for ci, _ in days]
    solutions = [solve_multipliers(s, c) for s, c in zip(streams, constraints)]
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((exp.seed, 11, ci, ei))))
            for ci, ei in days]
    kinds = [_BEHAVIOR_KINDS[rng.choice(3, p=b.mix)] for rng in rngs]

    def bids(rng, kind, solution):
        if kind == "random":
            return rng.uniform(*RANDOM_BID_SCALES, size=t_steps)
        if kind == "fixed":
            return np.full(t_steps, FIXED_BID_SCALE)
        return solution.scale * rng.lognormal(0.0, b.noise_sigma, size=t_steps)

    schedule = np.minimum([bids(rng, kind, solution)
                           for rng, kind, solution in zip(rngs, kinds, solutions)], A_MAX)
    offline = replay_episodes(schedule, streams, constraints, campaign_ids)
    for traj, kind in zip(offline, kinds):
        traj.source = kind
    expert = generate_expert_trajectories(streams, constraints, campaign_ids, solutions)
    return offline, expert


def write_manifest(exp: ExperimentConfig, offline: list, expert: list):
    """The manifest of the ``offline`` and ``expert`` trajectories just
    written to their files: their counts, the files' sha256 and the seed
    layout."""
    sha256 = {}
    for name, path in (("offline", exp.offline_path), ("expert", exp.expert_path)):
        with open(path, "rb") as f:
            sha256[name] = hashlib.sha256(f.read()).hexdigest()
    manifest = {
        "seed": exp.seed,
        "counts": {"offline": len(offline), "expert": len(expert)},
        "sha256": sha256,
        "train_seeds": train_seeds(exp),
        "test_seeds": test_seeds(exp),
    }
    atomic_write_text(exp.manifest_path, json.dumps(manifest, indent=2))
    return manifest


def cmd_gen_data(exp: ExperimentConfig) -> list:
    """Write both datasets of ``gen_datasets`` and then the manifest;
    returns the offline trajectories."""
    offline, expert = gen_datasets(exp)
    save_jsonl(offline, exp.offline_path)
    save_jsonl(expert, exp.expert_path)
    write_manifest(exp, offline, expert)
    return offline


def cmd_gen_expert(exp: ExperimentConfig) -> list:
    """The expert trajectories ``cmd_gen_data`` wrote.  Kept only for the
    benchmark's ``datagen`` workload, which still calls it after gen-data;
    it goes with the next change to the benchmark."""
    (expert,) = _load_datasets(exp, "expert")
    return expert


# ---------------------------------------------------------------------------
# discriminator training and prep labels
# ---------------------------------------------------------------------------


def transitions_matrix(trajs) -> np.ndarray:
    """(N*T, DISC_INPUT_DIM) matrix of concatenated state vectors and actions."""
    xs = [np.concatenate([t.states, t.actions[:, None]], axis=1) for t in trajs]
    return np.concatenate(xs, axis=0)


def _require(path, remedy: str):
    if not os.path.exists(path):
        raise PipelineError(f"{path} is missing; {remedy}")


def _load_datasets(exp: ExperimentConfig, *names) -> list:
    """The trajectories of each named dataset, "offline" or "expert".  A
    missing file (checked before any is read), or a trajectory with a
    non-finite state, action or reward, raises ``PipelineError``."""
    paths = [exp.offline_path if name == "offline" else exp.expert_path for name in names]
    for path in paths:
        _require(path, "run gen-data first")
    datasets = [load_jsonl(path) for path in paths]
    for path, trajs in zip(paths, datasets):
        for t in trajs:
            if not all(np.isfinite(a).all() for a in (t.states, t.actions, t.rewards)):
                raise PipelineError(f"{path}: day {t.campaign_id} seed {t.seed} has a "
                                    f"non-finite state, action or reward; run gen-data again")
    return datasets


def cmd_train_disc(exp: ExperimentConfig, plain_ce: bool = False) -> DiscriminatorModel:
    offline, expert = _load_datasets(exp, "offline", "expert")
    kind = "ce" if plain_ce else "nnpu"
    try:
        model, curve = train_discriminator(transitions_matrix(expert),
                                           transitions_matrix(offline), exp.disc, plain_ce)
    except NonFiniteGradientError as e:
        raise PipelineError(f"training the {kind} discriminator: {e}") from None
    model.save(exp.disc_path(plain_ce))
    _write_csv(exp.path("logs", f"disc_{kind}.csv"), ["step", "loss"],
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
    discriminator ``train-disc`` saved; writes nothing.  More levels than
    the discriminator gives distinct offline scores raise
    ``PipelineError``."""
    disc = DiscriminatorModel.load(exp.disc_path(plain_ce))
    offline, expert = _load_datasets(exp, "offline", "expert")
    trajs = offline + expert
    try:
        labels = prep_labels(trajs, disc, exp.model.k_levels, exp.model.bag_len, exp.beta)
    except DegenerateBinningError as e:
        raise PipelineError(f"model.k_levels={exp.model.k_levels} is too many: {e}") from None
    return trajs, labels


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


METHODS = {
    "ebaret": MethodSpec("ebaret", ARCH_FULL, False, True, 0),
    "ebaret-nopu": MethodSpec("ebaret-nopu", ARCH_FULL, True, True, 1),
    "ebaret-noea": MethodSpec("ebaret-noea", ARCH_NO_LEVEL, False, True, 2),
    "ebaret-nobr": MethodSpec("ebaret-nobr", ARCH_FULL, False, False, 3),
    "ebaret-noe": MethodSpec("ebaret-noe", ARCH_NO_LEVEL, None, False, 4),
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
    return TrainingBatch(states, actions, rtgs / RTG_SCALE, levels)


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
        (trajs,), labels = _load_datasets(exp, "offline"), None

    model_cfg = method_model_config(exp, spec)
    data = build_training_batch(trajs, model_cfg, spec, labels)
    rows: list = []
    try:
        model = train_model(data, model_cfg, spec.arch, log_rows=rows)
    except (ShardWorkerError, NonFiniteGradientError) as e:
        raise PipelineError(f"training {spec.name}: {e}") from None

    manual_target = float(
        np.quantile([t.total_reward for t in trajs], DT_TARGET_QUANTILE)
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
    _require(path, f"run `bagbid train --method {spec.name}` first")
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
    days = _test_days(exp)
    camps = [exp.campaigns[ci] for ci, _, _ in days]
    streams = [OpportunityStream(market_config_for(exp, ci, seed)) for ci, _, seed in days]
    trajs = run_episodes(
        make_inference_policy(model, A_MAX, manual_target=manual_target),
        streams,
        [camp.constraints for camp in camps],
        [camp.campaign_id for camp in camps],
        source=spec.name,
    )
    rows = []
    for (ci, period, seed), camp, stream, traj in zip(days, camps, streams, trajs):
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


def cmd_ratio_report(exp: ExperimentConfig) -> dict:
    """Suboptimality of the offline corpus: achieved / hindsight-optimal
    expected conversions per episode, with a ``RATIO_BINS``-bin histogram
    over [0, 1].

    A day's r* is the replay value gen-data stored for the expert episode
    of the same campaign, seed and constraints."""
    expert_trajs, offline = _load_datasets(exp, "expert", "offline")
    experts = {(t.campaign_id, t.seed): t for t in expert_trajs}
    ratios = []
    for t in offline:
        expert = experts.get((t.campaign_id, t.seed))
        if expert is None:
            raise PipelineError(f"{exp.expert_path} has no day {t.campaign_id} seed {t.seed} "
                                f"of the offline data; run gen-data again")
        if expert.constraints != t.constraints:
            raise PipelineError(f"day {t.campaign_id} seed {t.seed} has {t.constraints} offline "
                                f"but {expert.constraints} in {exp.expert_path}; "
                                f"run gen-data again")
        rstar = expert.meta.get("replay_value") if isinstance(expert.meta, dict) else None
        # type(), not isinstance(): a bool is not a replay value
        if not (type(rstar) is int or type(rstar) is float and math.isfinite(rstar)):
            raise PipelineError(f"{exp.expert_path}: day {t.campaign_id} seed {t.seed} has no "
                                f"finite replay_value in its meta; run gen-data again")
        ratios.append(t.total_value / rstar if rstar > 0 else 0.0)
    ratios = np.asarray(ratios)

    edges = np.linspace(0.0, 1.0, RATIO_BINS + 1)
    counts, _ = np.histogram(np.clip(ratios, 0.0, 1.0), bins=edges)
    _write_csv(exp.path("reports", "ratio_hist.csv"), ["bin_low", "bin_high", "count"],
               ([f"{edges[i]:.4f}", f"{edges[i + 1]:.4f}", int(counts[i])]
                for i in range(RATIO_BINS)))

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
    """Generate the datasets if either is missing, and train the method's
    discriminator if it has none."""
    if not (os.path.exists(exp.offline_path) and os.path.exists(exp.expert_path)):
        cmd_gen_data(exp)
    if spec.use_expert_data and not os.path.exists(exp.disc_path(spec.disc_plain_ce)):
        cmd_train_disc(exp, plain_ce=spec.disc_plain_ce)
