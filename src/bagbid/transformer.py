"""Bag decision transformer over interleaved (state, return-to-go, action)
tokens.

Sequence layout per step t (token indices 3t, 3t+1, 3t+2):

    < s_0, R_0, a_0, s_1, R_1, a_1, ... >

Every token carries a modality embedding, a timestep embedding, and, in
the full model, a bag-position embedding (t mod bag_len) and an expert
level embedding shared by all three tokens of its step.  Two heads read
the causal hidden states: the return head predicts R_t from the s_t token
and the action head predicts a_t from the R_t token, i.e. each prediction
conditions on exactly the tokens to its left.  The last block computes
only the rows the heads read: its keys and values cover every token, but
its queries, MLP and the final layer norm run on the s_t and R_t rows
(the action head's token alone without a return head), i.e. 2/3 of the
rows of the full model, 1/3 for the plain return-conditioned one and 1/2
for behavior cloning.

A train step (``train_model``) splits its sampled batch into two fixed
shards and adds the first shard's gradient of the whole batch's loss to
the second's.  In process, both shards' backwards add into the trained
model's one gradient arena and one Adam step updates it.  A training of
more than one step, on a machine with at least two CPUs, runs every step
on two worker processes (``shard_worker``): copies of this process
forked before step 0, each with one BLAS thread and no shared file.
The three processes read one value arena in a shared mapping; each
worker runs its shard into its own gradient row, then adds the two rows
over its half of the arena and takes that half's Adam step, so this
process holds no gradients and no Adam state.  A single step, one CPU,
or a loaded BLAS whose thread count cannot be set keeps training in
process.  Either way the arithmetic is the same, so a run's bytes do not
depend on where its shards run.

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
through the same layers and kernels as training, asking for the one row
it reads.

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
import os
from dataclasses import asdict, dataclass

import numpy as np

from bagbid import nncore as nc
from bagbid.nncore import ConfigError
from bagbid.shard_worker import ShardWorkers, blas_threads
from bagbid.trajectory import STATE_DIM, Trajectory

# Return tokens and return targets are R / RTG_SCALE.
RTG_SCALE = 30.0
# Learning-rate schedule: linear warmup over this share of the steps, then
# cosine decay down to LR_FINAL_FRAC of the peak.
LR_WARMUP_FRAC = 0.05
LR_FINAL_FRAC = 0.005
ADAM_BETA2 = 0.99


class ContextOverflowError(ValueError):
    pass


@dataclass
class ModelConfig:
    """Shape and training settings of one transformer; a checkpoint's
    header holds them.  The return scale, the learning-rate schedule's
    shape and Adam's beta2 are the module constants ``RTG_SCALE``,
    ``LR_WARMUP_FRAC``, ``LR_FINAL_FRAC`` and ``ADAM_BETA2``; the action
    bound is the market's, passed to ``make_inference_policy``."""

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

    def __post_init__(self):
        # n_layers: the last block is the one that cuts the rows to those read
        for name in ("d_model", "n_layers", "n_heads", "context_steps", "bag_len",
                     "batch_size", "train_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
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

    @property
    def read_tokens(self) -> tuple:
        """Positions within a step of the tokens the heads read, ascending:
        the return head reads s_t (the first), the action head the last."""
        if self.use_rtg_head and self.action_token != 0:
            return (0, self.action_token)
        return (self.action_token,)


ARCH_FULL = Arch()
ARCH_NO_LEVEL = Arch(use_level_embedding=False)
ARCH_DT = Arch(use_rtg_head=False, use_bag_embedding=False, use_level_embedding=False)
ARCH_BC = Arch(
    use_rtg_tokens=False, use_rtg_head=False, use_bag_embedding=False,
    use_level_embedding=False,
)


class TrajectoryTransformer:
    def __init__(self, config: ModelConfig, arch: Arch = ARCH_FULL):
        self._build(config, arch, np.random.Generator(np.random.PCG64(config.seed)))

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

        states (B,T,STATE_DIM), rtgs (B,T) scaled, actions (B,T), levels (B,T)
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

    def _body(self, tokens, rows, kv=None, start=0):
        """Final hidden states of the tokens at ``rows`` (a slice or an
        ascending int array of positions within ``tokens``), (B, len(rows),
        d).  Every block but the last runs on all tokens; the last one
        computes keys and values for all of them and everything else only
        for ``rows``.  With ``kv``, one key/value cache per block, the
        tokens sit at positions ``start ..`` after the cached ones (see
        ``nncore.causal_attention_forward``)."""
        h = tokens
        self._rows = [slice(None)] * (len(self.blocks) - 1) + [rows]
        for blk, layer_kv, r in zip(self.blocks, kv or [None] * len(self.blocks), self._rows):
            a = blk["attn"].forward(blk["ln1"].forward(h), layer_kv, start, r)
            h = h[:, r] + a
            m = blk["fc2"].forward(blk["gelu"].forward(blk["fc1"].forward(blk["ln2"].forward(h))))
            h = h + m
        return self.ln_f.forward(h)

    def _body_backward(self, d_out):
        dh = self.ln_f.backward(d_out)
        for blk, r in zip(reversed(self.blocks), reversed(self._rows)):
            dm = blk["ln2"].backward(
                blk["fc1"].backward(blk["gelu"].backward(blk["fc2"].backward(dh)))
            )
            dh = dh + dm
            # the residual's gradient joins the attention's at its rows
            da = blk["ln1"].backward(blk["attn"].backward(dh))
            da[:, r] += dh
            dh = da
        return dh

    # -- training forward / backward ---------------------------------------

    def forward(self, states, rtgs, actions, levels):
        """Head outputs over full steps.

        Returns (rtg_pred, action_pred), each (B, T); rtg_pred is None
        without the return head.  rtg_pred[t] reads the s_t token,
        action_pred[t] reads the R_t token (the s_t token for the
        no-return-token architecture).  Only the tokens the heads read
        leave the last block.
        """
        tokens = self._step_embeddings(states, rtgs, actions, levels)
        b, t = actions.shape
        read = self.arch.read_tokens
        rows = (self.arch.tokens_per_step * np.arange(t)[:, None] + read).ravel()
        h = self._body(tokens, rows).reshape(b, t, len(read), -1)
        rtg_pred = None
        if self.arch.use_rtg_head:
            rtg_pred = self.rtg_head.forward(h[:, :, 0])[..., 0]
        act_pred = self.act_head.forward(h[:, :, -1])[..., 0]
        return rtg_pred, act_pred

    def backward(self, d_rtg_pred, d_act_pred):
        b, t = d_act_pred.shape
        dh = np.zeros((b, t, len(self.arch.read_tokens), self.config.d_model))
        if self.arch.use_rtg_head and d_rtg_pred is not None:
            dh[:, :, 0] += self.rtg_head.backward(d_rtg_pred[..., None])
        dh[:, :, -1] += self.act_head.backward(d_act_pred[..., None])
        d_tokens = self._body_backward(dh.reshape(b, -1, self.config.d_model))
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
        records, meta = nc.read_checkpoint(path, "trajectory-transformer")
        model = cls.__new__(cls)
        try:
            model._build(ModelConfig(**meta["config"]), Arch(**meta["arch"]), rng=None)
        except (KeyError, TypeError, ValueError) as e:
            raise nc.CheckpointError(f"{path}: bad model meta ({e!r})") from None
        model.params.load_records(records, path)
        model.loaded_meta = meta
        return model


def squared_errors(rtg_pred, action_pred, rtg_target, action_target):
    """Squared errors summed over rows and steps, (rtg_sum, action_sum);
    the rtg sum is zero when the model has no return head."""
    if action_pred.shape != action_target.shape:
        raise ValueError(
            f"action shapes disagree: {action_pred.shape} vs {action_target.shape}"
        )
    act = float(np.sum((action_pred - action_target) ** 2))
    rtg = 0.0
    if rtg_pred is not None:
        if rtg_pred.shape != rtg_target.shape:
            raise ValueError(
                f"rtg shapes disagree: {rtg_pred.shape} vs {rtg_target.shape}"
            )
        rtg = float(np.sum((rtg_pred - rtg_target) ** 2))
    return rtg, act


def loss_terms(rtg_pred, action_pred, rtg_target, action_target):
    """Squared-error losses, summed over steps and averaged over the batch.

    Returns (total, rtg_part, action_part); rtg terms are zero when the
    model has no return head.
    """
    b = action_pred.shape[0]
    rtg, act = squared_errors(rtg_pred, action_pred, rtg_target, action_target)
    rtg /= b
    act /= b
    return rtg + act, rtg, act


def loss_grads(rtg_pred, action_pred, rtg_target, action_target, batch_size=None):
    """Gradients of ``loss_terms`` with respect to the predictions; with
    ``batch_size``, the predictions are a shard of a batch of that many
    rows and the loss is averaged over the whole batch."""
    b = action_pred.shape[0] if batch_size is None else batch_size
    d_act = 2.0 * (action_pred - action_target) / b
    d_rtg = None
    if rtg_pred is not None:
        d_rtg = 2.0 * (rtg_pred - rtg_target) / b
    return d_rtg, d_act


@dataclass
class TrainingBatch:
    states: np.ndarray  # (N, T, STATE_DIM)
    actions: np.ndarray  # (N, T)
    rtgs: np.ndarray  # (N, T), already divided by RTG_SCALE
    levels: np.ndarray  # (N, T) int

    def take(self, idx):
        return TrainingBatch(
            self.states[idx], self.actions[idx], self.rtgs[idx], self.levels[idx]
        )

    @property
    def size(self):
        return self.states.shape[0]


def lr_at(config: ModelConfig, step: int) -> float:
    """Learning rate of ``step``: linear warmup over ``LR_WARMUP_FRAC`` of
    ``config.train_steps`` up to ``config.lr``, then cosine decay down to
    ``LR_FINAL_FRAC * config.lr`` at the last step."""
    warmup = max(1, int(LR_WARMUP_FRAC * config.train_steps))
    if step < warmup:
        return config.lr * (step + 1) / warmup
    span = max(1, config.train_steps - warmup)
    progress = (step - warmup) / span
    floor = LR_FINAL_FRAC
    return config.lr * (floor + (1.0 - floor) * 0.5 * (1.0 + math.cos(math.pi * progress)))


def shard_step(model: TrajectoryTransformer, data: TrainingBatch, rows,
               batch_size: int) -> tuple[float, float]:
    """One shard of a train step: add to ``model``'s gradients the
    gradient, on the rows ``rows`` of ``data``, of the loss of the whole
    batch of ``batch_size`` rows (squared errors summed over steps, divided
    by ``batch_size``).  Returns the shard's squared-error sums
    (``squared_errors``); a shard with no rows adds nothing."""
    if len(rows) == 0:
        return 0.0, 0.0
    shard = data.take(rows)
    rtg_pred, act_pred = model.forward(shard.states, shard.rtgs, shard.actions, shard.levels)
    sums = squared_errors(rtg_pred, act_pred, shard.rtgs, shard.actions)
    model.backward(*loss_grads(rtg_pred, act_pred, shard.rtgs, shard.actions, batch_size))
    return sums


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def train_model(data: TrainingBatch, config: ModelConfig, arch: Arch = ARCH_FULL,
                log_rows: list | None = None) -> TrajectoryTransformer:
    """Adam training loop; deterministic for a fixed config seed.

    A step samples ``min(batch_size, N)`` row indices and splits them into
    two fixed shards (``np.array_split(idx, 2)``).  The step's gradient is
    the first shard's gradient of the whole batch's loss (``shard_step``)
    plus the second's, and its logged losses are the two shards' squared-
    error sums added and divided by the batch size.  A training of more
    than one step, with at least two CPUs and a BLAS whose thread count
    it can set, forks two worker processes (``shard_worker.ShardWorkers``)
    before step 0 and runs each whole step on them: a worker has the
    model and the batch from the fork, reads the values from the one
    arena the three processes share, runs its shard's rows into its own
    gradient row, and then adds the two gradient rows over its half of
    the arena and takes the Adam step of that half (``nncore.adam_region``)
    with the moments it holds.  This process then holds no gradients and
    no Adam state.  Otherwise both shards run in this process on the one
    model: each step zeroes the gradients once, each shard's backward
    adds into them, and ``nncore.adam_step`` updates the whole arena.
    Every parameter gets one ``+=`` per shard, so ``(0 + g0) + g1`` in
    process is ``g0 + g1`` from the workers bit for bit, Adam is
    elementwise, and checkpoints and logged losses are byte-identical
    wherever the shards run.

    ``log_rows``, when given, collects (step, rtg_loss, action_loss).
    """
    model = TrajectoryTransformer(config, arch)
    rng = np.random.Generator(np.random.PCG64(config.seed + 7919))
    n = data.size
    b = min(config.batch_size, n)
    workers = None
    try:
        if config.train_steps > 1 and _cpu_count() >= 2 and blas_threads() is not None:
            workers = ShardWorkers(model.params,
                                   lambda rows: shard_step(model, data, rows, b))
        for step in range(config.train_steps):
            shards = np.array_split(rng.integers(0, n, size=b), 2)
            lr = lr_at(config, step)
            if workers is None:
                model.params.zero_grad()
                sums = [shard_step(model, data, rows, b) for rows in shards]
                nc.adam_step(model.params, lr=lr, beta2=ADAM_BETA2)
            else:
                sums = workers.step(shards)
                workers.adam_step(lr=lr, beta2=ADAM_BETA2)
            if log_rows is not None:
                log_rows.append((step, (sums[0][0] + sums[1][0]) / b,
                                 (sums[0][1] + sums[1][1]) / b))
    finally:
        if workers is not None:
            workers.close()
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
    h = model._body(tokens[:, ep.n_tokens - k * first:end - k * first],
                    slice(-1, None), ep.kv, ep.n_tokens)
    ep.n_tokens = end
    return h[:, 0]


def make_inference_policy(model: TrajectoryTransformer, a_max: float,
                          manual_target: float | None = None):
    """Lockstep market policy (see ``market.run_episodes``) around a
    trained model.

    Each call advances every episode of the batch by one step through one
    batched KV-cached forward; a call at step 0 starts a fresh batch sized
    by its input.  Full model: at each step the incoming transition's
    expert level is pinned to the top level, the return head predicts R_t
    from the s_t token (clamped non-negative, in units of ``RTG_SCALE``),
    that prediction becomes the R_t token, and the action head's output is
    clamped to ``[0, a_max]``, the action range of the market the policy
    bids in.  Return-token models without the head follow the classic
    conditioning protocol: the return token starts at ``manual_target /
    RTG_SCALE`` and decrements by realized rewards over ``RTG_SCALE``, so
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
                rtg = float(manual_target) / RTG_SCALE
            else:
                rtg = ep.rtgs[:, t - 1] - rewards[:, -1] / RTG_SCALE
            ep.rtgs[:, t] = np.maximum(rtg, 0.0)
        h = _advance(model, ep, t, arch.action_token)
        return np.clip(model.act_head.forward(h)[:, 0], 0.0, a_max)

    return policy
