"""Expert-transition discriminator trained from positive and unlabeled data.

The discriminator d(s, a) is a small MLP over the concatenated state
vector and scalar action.  Expert transitions are the labeled positives;
logged transitions are unlabeled.  Training minimizes the non-negative
positive-unlabeled risk

    eta * E_expert[-log sig(d)]
      + max(0,  E_offline[-log(1 - sig(d))] - eta * E_expert[-log(1 - sig(d))])

with class prior ``eta``.  The clamp keeps the estimated negative risk
non-negative; when it binds, only the positive term carries gradient.  A
plain cross-entropy mode (every offline transition treated as negative) is
kept for the no-PU ablation.

Discriminator scores feed two consumers: bag reward redistribution uses
the post-sigmoid score, and token conditioning discretizes offline scores
into k equal-frequency levels with expert transitions pinned to the top
level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bagbid import nncore as nc
from bagbid.trajectory import STATE_DIM

DISC_INPUT_DIM = STATE_DIM + 1


class DegenerateBinningError(ValueError):
    """Not enough distinct scores to form the requested number of levels."""


class DatasetSchemaError(ValueError):
    pass


def sigmoid(x):
    out = np.empty_like(np.asarray(x, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x):
    """log(1 + e^x), stable for large |x|."""
    return np.logaddexp(0.0, x)


@dataclass
class DiscConfig:
    hidden: int = 64
    class_prior: float = 0.01  # eta
    lr: float = 1e-3
    steps: int = 1500
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.class_prior < 1.0:
            raise ValueError(f"class_prior must be in (0,1), got {self.class_prior}")


class _Tanh:
    def forward(self, x):
        self._t = np.tanh(x)
        return self._t

    def backward(self, dy):
        return dy * (1.0 - self._t**2)


class DiscriminatorModel:
    """MLP logit head d(s, a): 9 -> hidden -> hidden -> 1, tanh throughout.

    The final layer is zero-initialized so an untrained model scores
    sig(d) = 0.5 everywhere.
    """

    def __init__(self, hidden: int = 64, class_prior: float = 0.01, seed: int = 0):
        self._build(hidden, class_prior, np.random.Generator(np.random.PCG64(seed)))

    def _build(self, hidden: int, class_prior: float, rng):
        """Lay out the layers; ``rng`` draws the initial weights, or None
        leaves them for a checkpoint to fill (``load``)."""
        if not 0.0 < class_prior < 1.0:
            raise ValueError("class_prior must be in (0,1)")
        self.class_prior = class_prior
        self.hidden = hidden
        self.params = nc.ParameterSet()
        self.fc1 = nc.Affine(self.params, "fc1", DISC_INPUT_DIM, hidden, rng, w_std=0.3)
        self.act1 = _Tanh()
        self.fc2 = nc.Affine(self.params, "fc2", hidden, hidden, rng, w_std=0.15)
        self.act2 = _Tanh()
        self.fc3 = nc.Affine(self.params, "fc3", hidden, 1, rng, zero_init=True)

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != DISC_INPUT_DIM:
            raise DatasetSchemaError(
                f"discriminator input must be (N, {DISC_INPUT_DIM}), got {x.shape}"
            )
        h = self.act1.forward(self.fc1.forward(x))
        h = self.act2.forward(self.fc2.forward(h))
        return self.fc3.forward(h)[:, 0]

    def backward(self, dlogits):
        dh = self.fc3.backward(dlogits[:, None])
        dh = self.fc2.backward(self.act2.backward(dh))
        self.fc1.backward(self.act1.backward(dh))

    def score_batch(self, x) -> np.ndarray:
        return self.forward(x)

    def save(self, path):
        self.params.save(
            path,
            meta={
                "kind": "discriminator",
                "hidden": self.hidden,
                "class_prior": self.class_prior,
            },
        )

    @classmethod
    def load(cls, path) -> "DiscriminatorModel":
        records, meta = nc.read_checkpoint(path, "discriminator")
        model = cls.__new__(cls)
        try:
            model._build(int(meta["hidden"]), float(meta["class_prior"]), rng=None)
        except (KeyError, TypeError, ValueError) as e:
            raise nc.CheckpointError(f"{path}: bad discriminator meta ({e!r})") from None
        model.params.load_records(records, path)
        return model


def _risk_terms(expert_logits, offline_logits):
    e = np.asarray(expert_logits, dtype=np.float64)
    o = np.asarray(offline_logits, dtype=np.float64)
    if e.size == 0 or o.size == 0:
        raise DatasetSchemaError("expert and offline batches must be non-empty")
    pos_risk = softplus(-e).mean()  # E_E[-log sig(d)]
    neg_risk_expert = softplus(e).mean()  # E_E[-log(1 - sig(d))]
    neg_risk_offline = softplus(o).mean()  # E_O[-log(1 - sig(d))]
    return e, o, pos_risk, neg_risk_expert, neg_risk_offline


def nnpu_loss_from_logits(expert_logits, offline_logits, eta):
    """Non-negative PU risk and its gradients w.r.t. both logit batches."""
    e, o, pos_risk, neg_e, neg_o = _risk_terms(expert_logits, offline_logits)
    slack = neg_o - eta * neg_e
    loss = eta * pos_risk + max(0.0, slack)
    d_e = eta * (sigmoid(e) - 1.0) / e.size
    d_o = np.zeros_like(o)
    if slack > 0.0:
        d_e = d_e - eta * sigmoid(e) / e.size
        d_o = sigmoid(o) / o.size
    return float(loss), d_e, d_o


def plain_ce_loss_from_logits(expert_logits, offline_logits):
    """Supervised cross-entropy with offline data as the negative class."""
    e, o, pos_risk, _, neg_o = _risk_terms(expert_logits, offline_logits)
    loss = pos_risk + neg_o
    d_e = (sigmoid(e) - 1.0) / e.size
    d_o = sigmoid(o) / o.size
    return float(loss), d_e, d_o


def _check_matrix(name, x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != DISC_INPUT_DIM or x.shape[0] == 0:
        raise DatasetSchemaError(
            f"{name} must be a non-empty (N, {DISC_INPUT_DIM}) matrix, got {x.shape}"
        )
    if not np.isfinite(x).all():
        raise DatasetSchemaError(f"{name} contains non-finite entries")
    return x


def train_discriminator(expert_set, offline_set, config: DiscConfig, plain_ce: bool = False):
    """Train d(s, a) on expert positives vs unlabeled offline transitions,
    or, with ``plain_ce`` (the no-PU ablation), vs offline transitions
    taken as negatives.

    Returns (model, loss_curve).  Deterministic for a fixed config seed.
    """
    expert_set = _check_matrix("expert_set", expert_set)
    offline_set = _check_matrix("offline_set", offline_set)
    model = DiscriminatorModel(
        hidden=config.hidden, class_prior=config.class_prior, seed=config.seed
    )
    rng = np.random.Generator(np.random.PCG64(config.seed + 1))
    loss_curve = []
    for _ in range(config.steps):
        ei = rng.integers(0, expert_set.shape[0], size=min(config.batch_size, expert_set.shape[0]))
        oi = rng.integers(0, offline_set.shape[0], size=min(config.batch_size, offline_set.shape[0]))
        eb, ob = expert_set[ei], offline_set[oi]

        model.params.zero_grad()
        logits = model.forward(np.concatenate([eb, ob], axis=0))
        e_logits, o_logits = logits[: len(eb)], logits[len(eb):]
        if plain_ce:
            loss, d_e, d_o = plain_ce_loss_from_logits(e_logits, o_logits)
        else:
            loss, d_e, d_o = nnpu_loss_from_logits(e_logits, o_logits, config.class_prior)
        model.backward(np.concatenate([d_e, d_o]))
        nc.adam_step(model.params, lr=config.lr)
        loss_curve.append(loss)
    return model, loss_curve


def assign_levels(sigma_scores, k: int, expert_flags) -> np.ndarray:
    """Discretize scores into k expert levels.

    Offline transitions are binned by equal-frequency quantiles of their
    post-sigmoid scores into levels 0..k-1; expert-flagged transitions are
    pinned to the top level k-1.
    """
    scores = np.asarray(sigma_scores, dtype=np.float64)
    flags = np.asarray(expert_flags, dtype=bool)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty vector")
    if flags.shape != scores.shape:
        raise ValueError("expert_flags must match scores in length")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    levels = np.full(scores.shape, k - 1, dtype=np.int64)
    offline = ~flags
    off_scores = scores[offline]
    if off_scores.size:
        if np.unique(off_scores).size < k:
            raise DegenerateBinningError(
                f"need at least {k} distinct offline scores for {k} levels"
            )
        thresholds = np.quantile(off_scores, np.arange(1, k) / k)
        levels[offline] = np.searchsorted(thresholds, off_scores, side="right")
    return levels
