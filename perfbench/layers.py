"""Metric catalog and the per-layer metrics derived from a trace.

Per-layer counts and times are per traced body, so they do not depend on
how many bodies fit in a run.  ``_s`` metrics of ``nncore`` ops are self
time (the span minus its child spans); other ``_s`` metrics are the whole
span.  Each entry says which end-to-end metric on which workload the layer
should move.
"""

from __future__ import annotations

import numpy as np

# (name, unit): the end-to-end metrics every workload reports untraced
END_TO_END = (
    ("setup_s", "s"),  # median of the repeated set-ups
    ("wall_s", "s"),  # median wall time of one timed body
    ("throughput_per_s", "1/s"),  # median per body; unit of work per workload
    ("peak_rss_mb", "MB"),
)

STAGES = ("gen_data", "gen_expert", "ratio_report", "train_disc", "prep", "train", "eval")
NN_OPS = {
    "affine": "affine",
    "layernorm": "layer_norm",
    "attention": "causal_attention",
    "gelu": "gelu",
    "embedding": "embedding",
}

# (name, unit, what it should move)
PER_LAYER = (
    *((f"pipeline.{s}_s", "s", "wall_s of the workload that calls the stage")
      for s in STAGES),
    ("expert.solve_calls", "count", "datagen wall_s/throughput; train/eval setup_s"),
    ("expert.solve_ms_p50", "ms", "datagen wall_s/throughput; train/eval setup_s"),
    ("expert.solve_ms_p90", "ms", "datagen wall_s/throughput; train/eval setup_s"),
    ("expert.scans_per_solve", "count", "datagen wall_s/throughput; train/eval setup_s"),
    ("expert.feasible_frac", "ratio", "datagen wall_s/throughput; train/eval setup_s"),
    ("kernels.replay_scan_calls", "count", "datagen wall_s/throughput; train/eval setup_s"),
    ("kernels.replay_scan_s", "s", "datagen wall_s/throughput; train/eval setup_s"),
    ("kernels.replay_opps_per_s", "1/s", "datagen wall_s/throughput; train/eval setup_s"),
    ("market.stream_build_s", "s", "eval throughput; datagen slightly"),
    ("market.env_step_ms", "ms", "eval throughput; datagen slightly"),
    ("kernels.step_scan_calls", "count", "eval throughput; datagen slightly"),
    ("kernels.step_scan_s", "s", "eval throughput; datagen slightly"),
    ("market.win_rate", "ratio", "eval throughput; datagen slightly"),
    ("market.forfeits", "count", "eval throughput; datagen slightly"),
    ("market.action_clamps", "count", "eval throughput; datagen slightly"),
    ("transformer.train_step_ms", "ms", "train throughput; not eval"),
    ("transformer.forward_ms", "ms", "train throughput; not eval"),
    ("transformer.backward_ms", "ms", "train throughput; not eval"),
    ("nncore.adam_ms", "ms", "train throughput; not eval"),
    *((f"nncore.{op}.{d}_{kind}", unit, "train throughput; not eval")
      for op in NN_OPS for d in ("fwd", "bwd")
      for kind, unit in (("s", "s"), ("calls", "count"))),
    ("nncore.softmax.fwd_s", "s", "train throughput; eval throughput"),
    ("nncore.softmax.fwd_calls", "count", "train throughput; eval throughput"),
    ("transformer.policy_ms_p50", "ms", "eval throughput and peak_rss_mb"),
    ("transformer.policy_ms_p99", "ms", "eval throughput and peak_rss_mb"),
    ("nncore.softmax_s", "s", "eval throughput and peak_rss_mb"),
    ("nncore.layer_norm_forward_s", "s", "eval throughput and peak_rss_mb"),
    ("nncore.gelu_forward_s", "s", "eval throughput and peak_rss_mb"),
    ("transformer.ckpt_load_s", "s", "eval throughput and peak_rss_mb"),
    ("discriminator.step_ms", "ms", "train wall_s"),
    ("discriminator.score_s", "s", "train wall_s"),
    ("rewards.redistribute_s", "s", "train wall_s"),
    ("trajectory.save_jsonl_s", "s", "datagen and train wall_s"),
    ("trajectory.load_jsonl_s", "s", "datagen and train wall_s"),
    ("trajectory.bytes_written", "B", "datagen and train wall_s"),
    ("trace.overhead_s", "s", "none: traced minus untraced body wall time"),
    ("trace.overhead_frac", "ratio", "none: trace.overhead_s over untraced wall time"),
)

# scopes: spans nested under these are attributed to them
_SCOPES = ("transformer.policy", "transformer.train_model", "discriminator.train")


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def subtree_self_sums(tracer) -> list[float]:
    """Per span, the sum of self times over the span and its descendants."""
    acc = tracer.self_times()
    for i in range(len(tracer.spans) - 1, -1, -1):
        parent = tracer.spans[i][3]
        if parent >= 0:
            acc[parent] += acc[i]
    return acc


def per_layer(tracer, n_bodies: int, overhead_s: float, overhead_frac: float) -> dict:
    spans = tracer.spans
    selfs = tracer.self_times()
    # scope flags propagate from parent to child; parents precede children
    scope = [0] * len(spans)
    for i, (name, _, _, parent) in enumerate(spans):
        flags = scope[parent] if parent >= 0 else 0
        if name in _SCOPES:
            flags |= 1 << _SCOPES.index(name)
        scope[i] = flags
    policy_bit, train_bit, disc_bit = 1, 2, 4

    dur: dict[str, list] = {}
    self_total: dict[str, float] = {}
    policy_self: dict[str, float] = {}
    adam_in = {train_bit: [], disc_bit: []}
    for i, (name, start, end, _) in enumerate(spans):
        dur.setdefault(name, []).append(end - start)
        self_total[name] = self_total.get(name, 0.0) + selfs[i]
        if scope[i] & policy_bit:
            policy_self[name] = policy_self.get(name, 0.0) + selfs[i]
        if name == "nncore.adam_step":
            for bit in adam_in:
                if scope[i] & bit:
                    adam_in[bit].append(end - start)

    n = max(n_bodies, 1)
    c = tracer.counters

    def per_body_total(name):
        return sum(dur.get(name, ())) / n

    def calls(name):
        return len(dur.get(name, ())) / n

    solves = dur.get("expert.solve", [])
    out = {f"pipeline.{s}_s": float(np.median(dur[f"pipeline.{s}"]))
           if f"pipeline.{s}" in dur else 0.0 for s in STAGES}
    out.update({
        "expert.solve_calls": calls("expert.solve"),
        "expert.solve_ms_p50": _pct(solves, 50) * 1e3,
        "expert.solve_ms_p90": _pct(solves, 90) * 1e3,
        "expert.scans_per_solve": _ratio(len(dur.get("kernels.replay_scan", ())), len(solves)),
        "expert.feasible_frac": _ratio(c.get("expert.feasible", 0), len(solves)),
        "kernels.replay_scan_calls": calls("kernels.replay_scan"),
        "kernels.replay_scan_s": per_body_total("kernels.replay_scan"),
        "kernels.replay_opps_per_s": _ratio(c.get("kernels.replay_opps", 0),
                                            sum(dur.get("kernels.replay_scan", ()))),
        "market.stream_build_s": per_body_total("market.stream_build"),
        "market.env_step_ms": _mean(dur.get("market.env_step", ())) * 1e3,
        "kernels.step_scan_calls": calls("kernels.step_scan"),
        "kernels.step_scan_s": per_body_total("kernels.step_scan"),
        "market.win_rate": _ratio(c.get("market.wins", 0), c.get("market.auctions", 0)),
        "market.forfeits": c.get("market.forfeits", 0) / n,
        "market.action_clamps": c.get("market.action_clamps", 0) / n,
        "transformer.train_step_ms": _ratio(sum(dur.get("transformer.train_model", ())),
                                            len(adam_in[train_bit])) * 1e3,
        "transformer.forward_ms": _mean(dur.get("transformer.forward", ())) * 1e3,
        "transformer.backward_ms": _mean(dur.get("transformer.backward", ())) * 1e3,
        "nncore.adam_ms": _mean(adam_in[train_bit]) * 1e3,
    })
    for short, fn in NN_OPS.items():
        for d, direction in (("fwd", "forward"), ("bwd", "backward")):
            span = f"nncore.{fn}_{direction}"
            out[f"nncore.{short}.{d}_s"] = self_total.get(span, 0.0) / n
            out[f"nncore.{short}.{d}_calls"] = calls(span)
    out["nncore.softmax.fwd_s"] = self_total.get("nncore.softmax", 0.0) / n
    out["nncore.softmax.fwd_calls"] = calls("nncore.softmax")
    policy = dur.get("transformer.policy", [])
    out.update({
        "transformer.policy_ms_p50": _pct(policy, 50) * 1e3,
        "transformer.policy_ms_p99": _pct(policy, 99) * 1e3,
        "nncore.softmax_s": policy_self.get("nncore.softmax", 0.0) / n,
        "nncore.layer_norm_forward_s": policy_self.get("nncore.layer_norm_forward", 0.0) / n,
        "nncore.gelu_forward_s": policy_self.get("nncore.gelu_forward", 0.0) / n,
        "transformer.ckpt_load_s": _mean(dur.get("transformer.ckpt_load", ())),
        "discriminator.step_ms": _ratio(sum(dur.get("discriminator.train", ())),
                                        len(adam_in[disc_bit])) * 1e3,
        "discriminator.score_s": per_body_total("discriminator.score"),
        "rewards.redistribute_s": per_body_total("rewards.redistribute"),
        "trajectory.save_jsonl_s": per_body_total("trajectory.save_jsonl"),
        "trajectory.load_jsonl_s": per_body_total("trajectory.load_jsonl"),
        "trajectory.bytes_written": c.get("trajectory.bytes_written", 0) / n,
        "trace.overhead_s": overhead_s,
        "trace.overhead_frac": overhead_frac,
    })
    return out
