"""Span tracing of the ``bagbid`` package from outside it.

``install`` wraps the public functions and methods of each ``bagbid``
module, patching every name where a caller looks it up (a function that
``pipeline`` imported by name is patched in ``pipeline`` as well as in its
home module).  Each wrapper records a span: name, start, end and the
index of the enclosing span.  Spans stay in memory; ``Tracer.self_times``
subtracts child spans from their parent afterwards.

Nothing here changes what a wrapped call computes: wrappers pass the
arguments through, return the result unchanged and only read inputs and
outputs to update counters.
"""

from __future__ import annotations

import functools
import inspect
import logging
import time

import numpy as np


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        # each span is [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if on_result is not None:
            on_result(args, kwargs, out)
        return out

    return wrapper


class _ClampCounter(logging.Handler):
    """Counts the warnings ``bagbid.market`` logs when it clamps an action."""

    def __init__(self, tracer: Tracer):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        self.tracer.count("market.action_clamps")


class Patches:
    """Originals of every patched attribute, restored by ``undo``."""

    def __init__(self):
        self._saved: list[tuple] = []
        self._hooks: list = []

    def set(self, owner, attr: str, new):
        self._saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def on_undo(self, fn):
        self._hooks.append(fn)

    def undo(self):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        for fn in self._hooks:
            fn()
        self._saved.clear()
        self._hooks.clear()


def install(tracer: Tracer) -> Patches:
    """Wrap the ``bagbid`` layers so that calls record spans in ``tracer``.

    Returns the patches; call ``undo()`` to restore the untraced package.
    """
    from bagbid import _kernels, discriminator, expert, market, nncore, pipeline
    from bagbid import rewards, trajectory, transformer

    patches = Patches()

    def patch_function(span: str, home, attr: str, callers=(), on_result=None):
        wrapped = _wrap(tracer, span, getattr(home, attr), on_result)
        for owner in (home, *callers):
            patches.set(owner, attr, wrapped)

    def patch_method(span: str, cls, attr: str):
        static = inspect.getattr_static(cls, attr)
        if isinstance(static, classmethod):
            patches.set(cls, attr, classmethod(_wrap(tracer, span, static.__func__)))
        else:
            patches.set(cls, attr, _wrap(tracer, span, static))

    # pipeline: the benchmark calls these through the module attribute
    for stage in ("gen_data", "gen_expert", "ratio_report", "train_disc", "prep",
                  "train", "eval"):
        patch_function(f"pipeline.{stage}", pipeline, f"cmd_{stage}")

    # expert and the scan kernels
    def on_solve(args, kwargs, sol):
        tracer.count("expert.feasible", bool(sol.feasible))

    patch_function("expert.solve", expert, "solve_multipliers", callers=(pipeline,),
                   on_result=on_solve)

    def on_replay(args, kwargs, out):
        tracer.count("kernels.replay_opps", len(args[1]))

    def on_step(args, kwargs, out):
        action, values, comp_bids = args[0], args[1], args[2]
        wins = int(out[0])
        tracer.count("market.auctions", len(values))
        tracer.count("market.wins", wins)
        # outbid the competitor but could not pay from the remaining budget
        tracer.count("market.forfeits",
                     int(np.count_nonzero(action * values > comp_bids)) - wins)

    patch_function("kernels.replay_scan", _kernels, "replay_scan", on_result=on_replay)
    patch_function("kernels.step_scan", _kernels, "step_scan", on_result=on_step)

    # market
    patch_method("market.stream_build", market.OpportunityStream, "__init__")
    patch_method("market.env_step", market.MarketEnv, "step")
    clamp_counter = _ClampCounter(tracer)
    market_log = logging.getLogger(market.__name__)
    market_log.addHandler(clamp_counter)
    patches.on_undo(lambda: market_log.removeHandler(clamp_counter))

    # transformer training and inference
    patch_function("transformer.train_model", transformer, "train_model",
                   callers=(pipeline,))
    patch_method("transformer.forward", transformer.TrajectoryTransformer, "forward")
    patch_method("transformer.backward", transformer.TrajectoryTransformer, "backward")
    patch_method("transformer.ckpt_load", transformer.TrajectoryTransformer, "load")
    make_policy = transformer.make_inference_policy

    @functools.wraps(make_policy)
    def traced_make_policy(*args, **kwargs):
        return _wrap(tracer, "transformer.policy", make_policy(*args, **kwargs))

    for owner in (transformer, pipeline):
        patches.set(owner, "make_inference_policy", traced_make_policy)

    # nncore functional ops; the layer wrappers and the inference path both
    # look them up on the nncore module
    for op in ("affine", "layer_norm", "gelu", "causal_attention", "embedding"):
        for direction in ("forward", "backward"):
            patch_function(f"nncore.{op}_{direction}", nncore, f"{op}_{direction}")
    patch_function("nncore.softmax", nncore, "softmax")
    patch_function("nncore.adam_step", nncore, "adam_step")

    # discriminator and rewards
    patch_function("discriminator.train", discriminator, "train_discriminator",
                   callers=(pipeline,))
    patch_method("discriminator.score", discriminator.DiscriminatorModel, "score_batch")
    patch_function("rewards.redistribute", rewards, "redistribute_trajectory")

    # trajectory I/O; every artifact file goes through atomic_write_text
    def on_write(args, kwargs, out):
        text = args[1] if len(args) > 1 else kwargs["text"]
        tracer.count("trajectory.bytes_written", len(text.encode()))

    patch_function("trajectory.write", trajectory, "atomic_write_text",
                   callers=(pipeline, nncore), on_result=on_write)
    patch_function("trajectory.save_jsonl", trajectory, "save_jsonl", callers=(pipeline,))
    patch_function("trajectory.load_jsonl", trajectory, "load_jsonl", callers=(pipeline,))

    return patches

