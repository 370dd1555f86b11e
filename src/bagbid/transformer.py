"""Bag decision transformer over interleaved (state, return-to-go, action)
tokens.

Sequence layout per step t (token indices 3t, 3t+1, 3t+2):

    < s_0, R_0, a_0, s_1, R_1, a_1, ... >

Every token carries a modality embedding, a timestep embedding, and, in
the full model, a bag-position embedding (t mod bag_len) and an expert
level embedding shared by all three tokens of its step.  Two heads read
the causal hidden states: the return head predicts R_t from the s_t token
and the action head predicts a_t from the R_t token, i.e. each prediction
conditions on exactly the tokens to its left.

Architecture switches cover the baselines and ablations: a plain
return-conditioned transformer drops the return head and bag/level
embeddings (manual return target at inference), behavior cloning
additionally drops the return tokens, and the no-expert-token variant
drops only the level embedding.

Inference is expert-anchored: the incoming step's level token is pinned to
the top level, the return head's own prediction (clamped non-negative) is
substituted for the unknown R_t token, and the emitted action is clamped
to the market's action range.  Inference has no forward of its own: it
embeds the steps it has not fed yet with ``_step_embeddings`` and runs
those tokens through ``_body`` with a per-layer key/value cache, i.e.
through the same layers and kernels as training.

Inference rolls a batch of episodes in lockstep (``market.run_episodes``):
the cache and the step buffers have a leading axis of n episodes, every
market step costs one batched forward for all of them, and the return
feedback, the manual return decrement and the action clamp are
vectorised over the batch.  Evaluation puts all of a method's
campaign-days in one batch.  Each episode's tokens attend only to its
own row, so an episode's actions equal those of the same episode rolled
alone up to float reduction order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from bagbid import nncore as nc
from bagbid.trajectory import STATE_DIM, Trajectory

DEFAULT_RTG_SCALE = 30.0


class ConfigError(ValueError):
    pass


class ContextOverflowError(ValueError):
    pass


@dataclass
class ModelConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    context_steps: int = 48
    bag_len: int = 8
    k_levels: int = 2
    lr: float = 1e-3
    batch_size: int = 8
    train_steps: int = 3000
    seed: int = 0
    rtg_scale: float = DEFAULT_RTG_SCALE  # return tokens/targets are R / rtg_scale
    a_max: float = 10.0
    lr_warmup_frac: float = 0.05  # linear warmup, then cosine decay
    lr_final_frac: float = 0.005
    adam_beta2: float = 0.99

    def __post_init__(self):
        if self.context_steps % self.bag_len != 0:
            raise ConfigError(
                f"context_steps={self.context_steps} not divisible by "
                f"bag_len={self.bag_len}"
            )
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.k_levels < 2:
            raise ConfigError("k_levels must be >= 2")
        if self.rtg_scale <= 0:
            raise ConfigError("rtg_scale must be positive")


@dataclass(frozen=True)
class Arch:
    """Structural switches derived from the method being trained."""

    use_rtg_tokens: bool = True
    use_rtg_head: bool = True
    use_bag_embedding: bool = True
    use_level_embedding: bool = True

    @property
    def tokens_per_step(self) -> int:
        return 3 if self.use_rtg_tokens else 2

    @property
    def action_token(self) -> int:
        """Position within a step of the token the action head reads: R_t,
        or s_t without return tokens."""
        return 1 if self.use_rtg_tokens else 0


ARCH_FULL = Arch()
ARCH_NO_LEVEL = Arch(use_level_embedding=False)
ARCH_DT = Arch(use_rtg_head=False, use_bag_embedding=False, use_level_embedding=False)
ARCH_BC = Arch(
    use_rtg_tokens=False, use_rtg_head=False, use_bag_embedding=False,
    use_level_embedding=False,
)


class TrajectoryTransformer:
    def __init__(self, config: ModelConfig, arch: Arch = ARCH_FULL,
                 seed: int | None = None):
        rng = np.random.Generator(np.random.PCG64(config.seed if seed is None else seed))
        self._build(config, arch, rng)

    def _build(self, config: ModelConfig, arch: Arch, rng):
        """Lay out the layers; ``rng`` draws the initial weights, or None
        leaves them for a checkpoint to fill (``load``)."""
        self.config = config
        self.arch = arch
        self.params = nc.ParameterSet()
        ps = self.params
        d = config.d_model

        # continuous inputs get a larger projection scale than token tables
        self.state_proj = nc.Affine(ps, "embed.state", STATE_DIM, d, rng, w_std=0.05)
        self.act_proj = nc.Affine(ps, "embed.action", 1, d, rng, w_std=0.05)
        if arch.use_rtg_tokens:
            self.rtg_proj = nc.Affine(ps, "embed.rtg", 1, d, rng, w_std=0.05)
        self.modality_emb = nc.Embedding(ps, "embed.modality", arch.tokens_per_step, d, rng)
        self.time_emb = nc.Embedding(ps, "embed.time", config.context_steps, d, rng)
        if arch.use_bag_embedding:
            self.bag_emb = nc.Embedding(ps, "embed.bag", config.bag_len, d, rng)
        if arch.use_level_embedding:
            self.level_emb = nc.Embedding(ps, "embed.level", config.k_levels, d, rng)

        self.blocks = []
        for i in range(config.n_layers):
            self.blocks.append(
                {
                    "ln1": nc.LayerNorm(ps, f"block{i}.ln1", d),
                    "attn": nc.CausalSelfAttention(ps, f"block{i}.attn", d,
                                                   config.n_heads, rng),
                    "ln2": nc.LayerNorm(ps, f"block{i}.ln2", d),
                    "fc1": nc.Affine(ps, f"block{i}.mlp.fc1", d, 4 * d, rng),
                    "gelu": nc.Gelu(),
                    "fc2": nc.Affine(ps, f"block{i}.mlp.fc2", 4 * d, d, rng),
                }
            )
        self.ln_f = nc.LayerNorm(ps, "ln_f", d)
        # near-zero heads keep early updates small without degenerating to
        # a constant output
        if arch.use_rtg_head:
            self.rtg_head = nc.Affine(ps, "head.rtg", d, 1, rng, w_std=0.01)
        self.act_head = nc.Affine(ps, "head.action", d, 1, rng, w_std=0.01)

    # -- token assembly ----------------------------------------------------

    def _step_embeddings(self, states, rtgs, actions, levels, first_step=0):
        """Per-modality token embeddings for full steps.

        states (B,T,8), rtgs (B,T) scaled, actions (B,T), levels (B,T)
        ints, holding steps ``first_step .. first_step+T-1``.  Returns
        (B, tokens_per_step*T, d) interleaved in token order.
        """
        b, t_steps, _ = states.shape
        if first_step + t_steps > self.config.context_steps:
            raise ContextOverflowError(
                f"{first_step + t_steps} steps exceed context of "
                f"{self.config.context_steps}"
            )
        e_s = self.state_proj.forward(states)
        e_a = self.act_proj.forward(actions[..., None])
        parts = [e_s]
        if self.arch.use_rtg_tokens:
            e_r = self.rtg_proj.forward(rtgs[..., None])
            parts.append(e_r)
        parts.append(e_a)

        # the step tables are looked up once per step and broadcast over
        # the batch; their backward broadcasts the indices the same way
        steps = np.arange(first_step, first_step + t_steps)
        shared = self.time_emb.forward(steps)
        if self.arch.use_bag_embedding:
            shared = shared + self.bag_emb.forward(steps % self.config.bag_len)
        if self.arch.use_level_embedding:
            shared = shared + self.level_emb.forward(levels.astype(np.int64))

        k = self.arch.tokens_per_step
        d = self.config.d_model
        tokens = np.empty((b, t_steps, k, d))
        for m, e in enumerate(parts):
            tokens[:, :, m] = e + shared
        tokens += self.modality_emb.forward(np.arange(k))
        self._n_steps = t_steps
        return tokens.reshape(b, k * t_steps, d)

    def _step_embeddings_backward(self, d_tokens):
        k = self.arch.tokens_per_step
        d_steps = d_tokens.reshape(d_tokens.shape[0], self._n_steps, k, -1)
        self.modality_emb.backward(d_steps)
        d_shared = d_steps.sum(axis=2)
        self.time_emb.backward(d_shared)
        if self.arch.use_bag_embedding:
            self.bag_emb.backward(d_shared)
        if self.arch.use_level_embedding:
            self.level_emb.backward(d_shared)
        m = 0
        self.state_proj.backward(d_tokens[:, m::k, :])
        m += 1
        if self.arch.use_rtg_tokens:
            self.rtg_proj.backward(d_tokens[:, m::k, :])
            m += 1
        self.act_proj.backward(d_tokens[:, m::k, :])

    # -- transformer body --------------------------------------------------

    def _body(self, tokens, kv=None, start=0):
        """Final hidden states of ``tokens``.  With ``kv``, one key/value
        cache per block, the tokens sit at positions ``start ..`` after the
        cached ones (see ``nncore.causal_attention_forward``)."""
        h = tokens
        for blk, layer_kv in zip(self.blocks, kv or [None] * len(self.blocks)):
            a = blk["attn"].forward(blk["ln1"].forward(h), layer_kv, start)
            h = h + a
            m = blk["fc2"].forward(blk["gelu"].forward(blk["fc1"].forward(blk["ln2"].forward(h))))
            h = h + m
        return self.ln_f.forward(h)

    def _body_backward(self, d_out):
        dh = self.ln_f.backward(d_out)
        for blk in reversed(self.blocks):
            dm = blk["ln2"].backward(
                blk["fc1"].backward(blk["gelu"].backward(blk["fc2"].backward(dh)))
            )
            dh = dh + dm
            da = blk["ln1"].backward(blk["attn"].backward(dh))
            dh = dh + da
        return dh

    # -- training forward / backward ---------------------------------------

    def forward(self, states, rtgs, actions, levels):
        """Head outputs over full steps.

        Returns (rtg_pred, action_pred), each (B, T); rtg_pred is None
        without the return head.  rtg_pred[t] reads the s_t token,
        action_pred[t] reads the R_t token (the s_t token for the
        no-return-token architecture).
        """
        tokens = self._step_embeddings(states, rtgs, actions, levels)
        h = self._body(tokens)
        self._h_shape = h.shape
        k = self.arch.tokens_per_step
        rtg_pred = None
        if self.arch.use_rtg_head:
            rtg_pred = self.rtg_head.forward(h[:, 0::k, :])[..., 0]
        act_pred = self.act_head.forward(h[:, self.arch.action_token::k, :])[..., 0]
        return rtg_pred, act_pred

    def backward(self, d_rtg_pred, d_act_pred):
        b, l, d = self._h_shape
        k = self.arch.tokens_per_step
        dh = np.zeros((b, l, d))
        if self.arch.use_rtg_head and d_rtg_pred is not None:
            dh[:, 0::k, :] += self.rtg_head.backward(d_rtg_pred[..., None])
        dh[:, self.arch.action_token::k, :] += self.act_head.backward(d_act_pred[..., None])
        d_tokens = self._body_backward(dh)
        self._step_embeddings_backward(d_tokens)

    # -- persistence ---------------------------------------------------------

    def save(self, path, extra_meta: dict | None = None):
        meta = {
            "kind": "trajectory-transformer",
            "config": asdict(self.config),
            "arch": asdict(self.arch),
        }
        if extra_meta:
            meta.update(extra_meta)
        self.params.save(path, meta=meta)

    @classmethod
    def load(cls, path) -> "TrajectoryTransformer":
        records, meta = nc.read_checkpoint(path)
        model = cls.__new__(cls)
        model._build(ModelConfig(**meta["config"]), Arch(**meta["arch"]), rng=None)
        model.params.load_records(records, path)
        model.loaded_meta = meta
        return model


def loss_terms(rtg_pred, action_pred, rtg_target, action_target):
    """Squared-error losses, summed over steps and averaged over the batch.

    Returns (total, rtg_part, action_part); rtg terms are zero when the
    model has no return head.
    """
    if action_pred.shape != action_target.shape:
        raise ValueError(
            f"action shapes disagree: {action_pred.shape} vs {action_target.shape}"
        )
    b = action_pred.shape[0]
    act = float(np.sum((action_pred - action_target) ** 2)) / b
    rtg = 0.0
    if rtg_pred is not None:
        if rtg_pred.shape != rtg_target.shape:
            raise ValueError(
                f"rtg shapes disagree: {rtg_pred.shape} vs {rtg_target.shape}"
            )
        rtg = float(np.sum((rtg_pred - rtg_target) ** 2)) / b
    return rtg + act, rtg, act


def loss_grads(rtg_pred, action_pred, rtg_target, action_target):
    b = action_pred.shape[0]
    d_act = 2.0 * (action_pred - action_target) / b
    d_rtg = None
    if rtg_pred is not None:
        d_rtg = 2.0 * (rtg_pred - rtg_target) / b
    return d_rtg, d_act


@dataclass
class TrainingBatch:
    states: np.ndarray  # (N, T, 8)
    actions: np.ndarray  # (N, T)
    rtgs: np.ndarray  # (N, T), already divided by rtg_scale
    levels: np.ndarray  # (N, T) int

    def take(self, idx):
        return TrainingBatch(
            self.states[idx], self.actions[idx], self.rtgs[idx], self.levels[idx]
        )

    @property
    def size(self):
        return self.states.shape[0]


def lr_at(config: ModelConfig, step: int) -> float:
    """Linear warmup into cosine decay down to ``lr_final_frac``."""
    warmup = max(1, int(config.lr_warmup_frac * config.train_steps))
    if step < warmup:
        return config.lr * (step + 1) / warmup
    span = max(1, config.train_steps - warmup)
    progress = (step - warmup) / span
    floor = config.lr_final_frac
    return config.lr * (floor + (1.0 - floor) * 0.5 * (1.0 + math.cos(math.pi * progress)))


def train_model(data: TrainingBatch, config: ModelConfig, arch: Arch = ARCH_FULL,
                log_rows: list | None = None) -> TrajectoryTransformer:
    """Adam training loop; deterministic for a fixed config seed.

    ``log_rows``, when given, collects (step, rtg_loss, action_loss).
    """
    model = TrajectoryTransformer(config, arch)
    rng = np.random.Generator(np.random.PCG64(config.seed + 7919))
    n = data.size
    for step in range(config.train_steps):
        idx = rng.integers(0, n, size=min(config.batch_size, n))
        batch = data.take(idx)
        model.params.zero_grad()
        rtg_pred, act_pred = model.forward(
            batch.states, batch.rtgs, batch.actions, batch.levels
        )
        total, rtg_l, act_l = loss_terms(rtg_pred, act_pred, batch.rtgs, batch.actions)
        d_rtg, d_act = loss_grads(rtg_pred, act_pred, batch.rtgs, batch.actions)
        model.backward(d_rtg, d_act)
        nc.adam_step(model.params, lr=lr_at(config, step), beta2=config.adam_beta2)
        if log_rows is not None:
            log_rows.append((step, rtg_l, act_l))
    return model


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


class _LiveEpisode:
    """Inference state of n episodes rolled in lockstep: a per-layer
    key/value cache, the number of tokens fed so far (the same for every
    episode), and the step values (states, returns, actions, levels) that
    ``_advance`` embeds the unfed tokens from, each with a leading axis of
    n episodes.

    The cache lets the training forward take only the new tokens, so each
    one costs O(context) instead of re-running the whole prefix; outputs
    match the batch forward over the same buffers up to float reduction
    order.
    """

    def __init__(self, model: TrajectoryTransformer, n: int):
        cfg = model.config
        heads = cfg.n_heads
        shape = (n, heads, cfg.context_steps * model.arch.tokens_per_step,
                 cfg.d_model // heads)
        self.kv = [(np.zeros(shape), np.zeros(shape)) for _ in model.blocks]
        self.n_tokens = 0
        t = cfg.context_steps
        self.states = np.zeros((n, t, STATE_DIM))
        self.rtgs = np.zeros((n, t))
        self.actions = np.zeros((n, t))
        self.levels = np.zeros((n, t), dtype=np.int64)


def _advance(model: TrajectoryTransformer, ep: _LiveEpisode, t: int, last: int) -> np.ndarray:
    """Feed the live episodes' unfed tokens up to token ``last`` of step
    ``t`` (0 = s_t, 1 = R_t) through the training forward and its KV
    cache; returns the final hidden state of that token, (n, d)."""
    k = model.arch.tokens_per_step
    first = ep.n_tokens // k
    end = k * t + last + 1
    steps = slice(first, t + 1)
    tokens = model._step_embeddings(
        ep.states[:, steps], ep.rtgs[:, steps], ep.actions[:, steps],
        ep.levels[:, steps], first_step=first,
    )
    h = model._body(tokens[:, ep.n_tokens - k * first:end - k * first], ep.kv,
                    ep.n_tokens)
    ep.n_tokens = end
    return h[:, -1]


def make_inference_policy(model: TrajectoryTransformer, manual_target: float | None = None):
    """Lockstep market policy (see ``market.run_episodes``) around a
    trained model.

    Each call advances every episode of the batch by one step through one
    batched KV-cached forward; a call at step 0 starts a fresh batch sized
    by its input.  Full model: at each step the incoming transition's
    expert level is pinned to the top level, the return head predicts R_t
    from the s_t token (clamped non-negative, in return-scale units), that
    prediction becomes the R_t token, and the action head's output is
    clamped to the market range.  Return-token models without the head
    follow the classic conditioning protocol: the return token starts at
    ``manual_target`` (scaled) and decrements by realized rewards, so
    a_{t-1}, s_t and R_t are fed in one pass.  Behavior cloning ignores
    returns entirely.
    """
    config = model.config
    arch = model.arch
    if arch.use_rtg_tokens and not arch.use_rtg_head and manual_target is None:
        raise ConfigError("return-conditioned model without a return head "
                          "needs a manual return target")
    ep = None
    top_level = config.k_levels - 1

    def policy(states, actions, rewards):
        nonlocal ep
        n, t = actions.shape
        if t >= config.context_steps:
            raise ContextOverflowError(f"episode longer than {config.context_steps}")
        if t == 0:
            ep = _LiveEpisode(model, n)
        ep.states[:, t] = states[:, -1]
        ep.levels[:, t] = top_level
        if t > 0:
            ep.actions[:, t - 1] = actions[:, -1]

        if arch.use_rtg_tokens:
            if arch.use_rtg_head:
                rtg = model.rtg_head.forward(_advance(model, ep, t, 0))[:, 0]
            elif t == 0:
                rtg = float(manual_target) / config.rtg_scale
            else:
                rtg = ep.rtgs[:, t - 1] - rewards[:, -1] / config.rtg_scale
            ep.rtgs[:, t] = np.maximum(rtg, 0.0)
        h = _advance(model, ep, t, arch.action_token)
        return np.clip(model.act_head.forward(h)[:, 0], 0.0, config.a_max)

    return policy
