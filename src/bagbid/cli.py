"""Command-line driver for the experiment pipeline.

All subcommands take ``--config`` (JSON file; built-in desk-scale defaults
otherwise), ``--output-dir``, and ``--seed``; every source of randomness
derives from the config's three seeds (``seed`` for the data, ``model.seed``
and ``disc.seed`` for the trainings), and ``--seed`` sets all three.

``gen-data`` writes both datasets: the offline episodes of the logging
policies and the hindsight expert's episodes of the same days.  ``train``
generates missing datasets and trains a missing discriminator first; the
expert levels and return-to-go labels of a method with a discriminator
are computed as it trains, so there is no separate prep step.  The
ablations are methods: ``--method ebaret-noE`` (or ``ebaret¬E``).  A
config, artifact or file system problem exits with status 1 and one
``bagbid: error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from bagbid import pipeline as pl
from bagbid.nncore import CheckpointError
from bagbid.trajectory import TrajectoryFileError


def _load_config(args) -> pl.ExperimentConfig:
    if args.config:
        exp = pl.ExperimentConfig.load(args.config)
    else:
        exp = pl.default_config()
    if args.output_dir:
        exp.output_dir = args.output_dir
    if args.seed is not None:
        exp = replace(exp, seed=args.seed, model=replace(exp.model, seed=args.seed),
                      disc=replace(exp.disc, seed=args.seed))
    return exp


def _add_common(p):
    p.add_argument("--config", help="experiment config JSON (defaults built in)")
    p.add_argument("--output-dir", help="override the config's output directory")
    p.add_argument("--seed", type=int,
                   help="override the config's seed, model.seed and disc.seed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bagbid", description="auto-bidding experiment pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, desc in [
        ("gen-data", "generate the mixed-quality offline dataset and the hindsight "
                     "expert dataset of the same days"),
        ("eval", "evaluate a trained method on test periods"),
        ("report", "cross-method summary, and the offline data's ratio histogram "
                   "against the r* in gen-data's expert data"),
        ("train-disc", "train the expert-transition discriminator"),
        ("train", "train a bidding model"),
        ("write-config", "write the default config JSON to stdout"),
    ]:
        p = sub.add_parser(name, help=desc)
        _add_common(p)
        if name == "train-disc":
            p.add_argument("--plain-ce", action="store_true",
                           help="treat all offline data as negatives (no-PU ablation)")
        if name in ("train", "eval"):
            p.add_argument("--method", required=True,
                           help=f"one of {sorted(pl.METHODS)}")

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (pl.PipelineError, pl.ConfigError, CheckpointError, TrajectoryFileError,
            OSError) as e:
        print(f"bagbid: error: {e}", file=sys.stderr)
        return 1


def _run(args) -> int:
    exp = _load_config(args)

    if args.command == "write-config":
        json.dump(exp.to_json_dict(), sys.stdout, indent=2, default=list)
        print()
        return 0
    if args.command == "gen-data":
        trajs = pl.cmd_gen_data(exp)
        print(f"wrote {len(trajs)} offline trajectories to {exp.offline_path} and their "
              f"hindsight expert trajectories to {exp.expert_path}")
        return 0
    if args.command == "train-disc":
        pl.cmd_train_disc(exp, plain_ce=args.plain_ce)
        print(f"saved discriminator to {exp.disc_path(args.plain_ce)}")
        return 0
    if args.command == "train":
        method = pl.normalize_method(args.method)
        pl.ensure_training_inputs(exp, pl.METHODS[method])
        pl.cmd_train(exp, method)
        print(f"saved checkpoint to {exp.ckpt_path(method)}")
        return 0
    if args.command == "eval":
        report = pl.cmd_eval(exp, args.method)
        summary = report.summary()
        print(json.dumps(summary, indent=2))
        return 0
    if args.command == "report":
        out = pl.cmd_report(exp)
        ratio = pl.cmd_ratio_report(exp)
        print(json.dumps({"methods": out, "offline_ratio": ratio}, indent=2))
        return 0
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
