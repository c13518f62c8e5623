"""Command-line front end: single runs, comparison grids, and summaries.

Settings resolve in precedence order: command-line flag, then config-file
entry, then built-in default. Config files are flat `key = value` lines
(TOML-style scalars, `#` comments) whose keys match the flag names with
underscores. The default output directory can be set with RBMPT_OUTDIR.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .adaptation import AdaptationConfig
from .experiment import (
    DatasetSettings,
    ExperimentPlan,
    PlannedRun,
    comparison_plan,
    load_plan,
    run_experiment,
    summarize,
)
from .training import ALGORITHMS, LADDERS, TrainConfig

USAGE_ERROR = 1
RUNTIME_ERROR = 2

_PRESETS = ("comparison", "comparison-grid")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _parse_scalar(text: str):
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def read_config_file(path) -> dict:
    """Flat `key = value` file; later entries win over earlier ones."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = _parse_scalar(value)
    return values


# (flag/file key, TrainConfig or AdaptationConfig attribute)
_TRAIN_KEYS = {
    "algo": "algorithm",
    "lr": "learning_rate",
    "updates": "num_updates",
    "minibatch": "minibatch_size",
    "k": "gibbs_steps_per_update",
    "chains": "initial_num_chains",
    "ladder": "initial_ladder",
    "hidden": "num_hidden",
    "post_steps": "post_sampling_steps",
    "eval_interval": "eval_interval",
    "seed": "seed",
}
_ADAPT_KEYS = {
    "beta_lr": "beta_learning_rate",
    "rmin": "min_avg_swap_rate",
    "spawn_interval": "spawn_check_interval",
    "burn_in": "burn_in_sweeps",
    "max_chains": "max_chains",
}
_DATA_KEYS = {
    "image_side": "image_side",
    "data_seed": "data_seed",
    "eval_size": "eval_size",
}


def _resolve(args, file_values: dict):
    """Merge flags over config-file values into the typed settings objects."""

    def pick(key):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        return file_values.get(key)

    train_kwargs = {attr: pick(key) for key, attr in _TRAIN_KEYS.items()}
    adapt_kwargs = {attr: pick(key) for key, attr in _ADAPT_KEYS.items()}
    data_kwargs = {attr: pick(key) for key, attr in _DATA_KEYS.items()}
    train_kwargs = {k: v for k, v in train_kwargs.items() if v is not None}
    adapt_kwargs = {k: v for k, v in adapt_kwargs.items() if v is not None}
    data_kwargs = {k: v for k, v in data_kwargs.items() if v is not None}
    config = TrainConfig(adaptation=AdaptationConfig(**adapt_kwargs), **train_kwargs)
    data = DatasetSettings(**data_kwargs)
    return config, data


def _default_outdir(args) -> str:
    if args.out is not None:
        return args.out
    return os.environ.get("RBMPT_OUTDIR", ".")


def _add_run_flags(parser):
    parser.add_argument("--config", help="flat key = value settings file")
    parser.add_argument("--algo", choices=ALGORITHMS)
    parser.add_argument("--lr", type=float, help="learning rate")
    parser.add_argument("--beta-lr", type=float, help="ladder learning rate")
    parser.add_argument("--rmin", type=float, help="minimum average swap rate")
    parser.add_argument("--updates", type=int, help="number of gradient updates")
    parser.add_argument("--minibatch", type=int, help="minibatch size")
    parser.add_argument("--k", type=int, help="Gibbs steps per update")
    parser.add_argument("--chains", type=int, help="initial number of chains")
    parser.add_argument("--ladder", choices=LADDERS, help="initial beta spacing")
    parser.add_argument("--hidden", type=int, help="number of hidden units")
    parser.add_argument("--post-steps", type=int, help="pure sampling sweeps after training")
    parser.add_argument("--eval-interval", type=int, help="updates between metric rows")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--spawn-interval", type=int, help="updates between spawn checks")
    parser.add_argument("--burn-in", type=int, help="post-spawn burn-in sweeps")
    parser.add_argument("--max-chains", type=int, help="chain budget")
    parser.add_argument("--image-side", type=int, help="square image side length")
    parser.add_argument("--data-seed", type=int, help="dataset/prototype seed")
    parser.add_argument("--eval-size", type=int, help="likelihood snapshot size (0 = skip)")
    parser.add_argument("--out", help="output directory (default $RBMPT_OUTDIR or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rbmpt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training job")
    _add_run_flags(p_train)
    p_train.add_argument("--label", help="artifact name stem (default: run)")

    p_grid = sub.add_parser("grid", help="run a preset or plan file")
    _add_run_flags(p_grid)
    p_grid.add_argument("--preset", choices=_PRESETS)
    p_grid.add_argument("--plan", help="experiment plan JSON file")
    p_grid.add_argument("--scale", choices=("full", "ci"), default="full")
    p_grid.add_argument("--num-seeds", type=int, default=5)
    p_grid.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p_sum = sub.add_parser("summarize", help="print the per-label summary table")
    p_sum.add_argument("output_dir")
    return parser


def train_plan(args) -> ExperimentPlan:
    file_values = read_config_file(args.config) if args.config else {}
    config, data = _resolve(args, file_values)
    label = args.label or file_values.get("label") or "run"
    return ExperimentPlan(
        runs=[PlannedRun(label, config, [config.seed])],
        data=data,
        output_dir=_default_outdir(args),
    )


def _apply_overrides(plan: ExperimentPlan, args) -> ExperimentPlan:
    """Explicitly provided flags applied on top of a preset (shrinking smoke
    runs); preset-owned settings are kept wherever no flag was given."""
    file_values = read_config_file(args.config) if args.config else {}

    def provided(key):
        value = getattr(args, key, None)
        return value if value is not None else file_values.get(key)

    train_updates = {
        attr: provided(key) for key, attr in _TRAIN_KEYS.items() if provided(key) is not None
    }
    adapt_updates = {
        attr: provided(key) for key, attr in _ADAPT_KEYS.items() if provided(key) is not None
    }
    for run in plan.runs:
        if train_updates:
            run.config = dataclasses.replace(run.config, **train_updates)
        if adapt_updates:
            run.config = dataclasses.replace(
                run.config,
                adaptation=dataclasses.replace(run.config.adaptation, **adapt_updates),
            )
    for key, attr in _DATA_KEYS.items():
        if provided(key) is not None:
            setattr(plan.data, attr, provided(key))
    return plan


def grid_plan(args) -> ExperimentPlan:
    if bool(args.preset) == bool(args.plan):
        raise ValueError("grid needs exactly one of --preset or --plan")
    out_dir = _default_outdir(args)
    if args.plan:
        plan = load_plan(args.plan)
        if args.out is not None:
            plan.output_dir = args.out
    else:
        plan = comparison_plan(
            out_dir,
            scale=args.scale,
            num_seeds=args.num_seeds,
            grid=args.preset == "comparison-grid",
        )
        plan = _apply_overrides(plan, args)
    return plan


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "summarize":
            return summarize(args.output_dir, sys.stdout)
        # a ValueError here is a bad setting or plan: a usage error
        plan = train_plan(args) if args.command == "train" else grid_plan(args)
    except ValueError as exc:
        print(f"rbmpt: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, RuntimeError) as exc:
        print(f"rbmpt: failed: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    try:
        # settings are valid by now, so any error is a runtime failure
        return run_experiment(plan, jobs=getattr(args, "jobs", 1))
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"rbmpt: failed: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
