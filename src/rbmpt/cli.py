"""Command-line front end: single runs, comparison grids, and summaries.

Every run setting is one entry of `SETTINGS`, which builds the flags and
reads config files. Settings resolve in precedence order: command-line flag,
then config-file entry, then the plan or preset, then the built-in default
(`train` runs a one-run plan built from the defaults). Config files are flat
`key = value` lines (a `#` outside quotes starts a comment; values may be
quoted) whose keys are the flag names, spelled with `-` or `_`; each value
is converted like its flag's argument. The default output directory can be
set with RBMPT_OUTDIR.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from typing import Callable, NamedTuple

from .experiment import (
    LOG_FORMAT,
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


class Setting(NamedTuple):
    """Where a flag's value goes: `field` of each planned run ("run"), of its
    TrainConfig ("config") or AdaptationConfig ("adaptation"), or of the
    plan's DatasetSettings ("dataset")."""

    target: str
    field: str
    type: Callable[[str], object]
    help: str
    choices: tuple[str, ...] | None = None
    train_only: bool = False


SETTINGS = {
    "algo": Setting("config", "algorithm", str, "negative-phase sampler", ALGORITHMS),
    "lr": Setting("config", "learning_rate", float, "learning rate"),
    "beta-lr": Setting("adaptation", "beta_learning_rate", float, "ladder learning rate"),
    "rmin": Setting("adaptation", "min_avg_swap_rate", float, "minimum average swap rate"),
    "updates": Setting("config", "num_updates", int, "number of gradient updates"),
    "minibatch": Setting("config", "minibatch_size", int, "minibatch size"),
    "k": Setting("config", "gibbs_steps_per_update", int, "Gibbs steps per update"),
    "chains": Setting("config", "initial_num_chains", int, "initial number of chains"),
    "ladder": Setting("config", "initial_ladder", str, "initial beta spacing", LADDERS),
    "hidden": Setting("config", "num_hidden", int, "number of hidden units"),
    "post-steps": Setting(
        "config", "post_sampling_steps", int, "pure sampling sweeps after training"
    ),
    "eval-interval": Setting("config", "eval_interval", int, "updates between metric rows"),
    "seed": Setting("config", "seed", int, "run seed", train_only=True),
    "spawn-interval": Setting(
        "adaptation", "spawn_check_interval", int, "updates between spawn checks"
    ),
    "burn-in": Setting("adaptation", "burn_in_sweeps", int, "post-spawn burn-in sweeps"),
    "max-chains": Setting("adaptation", "max_chains", int, "chain budget"),
    "image-side": Setting("dataset", "image_side", int, "square image side length"),
    "data-seed": Setting("dataset", "data_seed", int, "dataset/prototype seed"),
    "eval-size": Setting("dataset", "eval_size", int, "likelihood snapshot size (0 = skip)"),
    "label": Setting("run", "label", str, "artifact name stem (default: run)", train_only=True),
}


def _settings(command: str) -> dict[str, Setting]:
    return {flag: s for flag, s in SETTINGS.items() if command == "train" or not s.train_only}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _strip_comment(line: str, where: str) -> str:
    """`line` up to its first `#` outside quotes; a ValueError naming
    `where` if a quote is left open."""
    quote = None
    for i, char in enumerate(line):
        if quote is not None:
            if char == quote:
                quote = None
        elif char in "'\"":
            quote = char
        elif char == "#":
            return line[:i]
    if quote is not None:
        raise ValueError(f"{where}: unterminated {quote} quote")
    return line


def read_config_file(path, command: str) -> dict:
    """`command`'s settings from a flat `key = value` file, keyed by flag name;
    later entries win over earlier ones. An unknown key, a value its flag
    would not accept or an unterminated quote is a ValueError naming the
    file and line."""
    settings = _settings(command)
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            where = f"{path}:{lineno}"
            line = _strip_comment(raw, where).strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{where}: expected 'key = value'")
            key, _, text = (part.strip() for part in line.partition("="))
            flag = key.replace("_", "-")
            setting = settings.get(flag)
            if setting is None:
                field = key.replace("-", "_")
                known = [f for f, s in settings.items() if s.field == field]
                hint = f"; set {field} with '{known[0]}'" if known else ""
                raise ValueError(f"{where}: unknown key '{key}'{hint}")
            if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
                text = text[1:-1]
            try:
                values[flag] = setting.type(text)
            except ValueError:
                raise ValueError(
                    f"{where}: bad value {text!r} for '{key}' "
                    f"(expected {setting.type.__name__})"
                ) from None
    return values


def apply_settings(plan: ExperimentPlan, values: dict) -> ExperimentPlan:
    """Set each flag's value (keyed by flag name) on every run of `plan` and
    on its dataset; the settings objects and the rebuilt plan validate the
    result."""
    fields = {"run": {}, "config": {}, "adaptation": {}, "dataset": {}}
    for flag, value in values.items():
        setting = SETTINGS[flag]
        fields[setting.target][setting.field] = value
    for run in plan.runs:
        adaptation = dataclasses.replace(run.config.adaptation, **fields["adaptation"])
        run.config = dataclasses.replace(run.config, adaptation=adaptation, **fields["config"])
        for name, value in fields["run"].items():
            setattr(run, name, value)
    return dataclasses.replace(plan, data=dataclasses.replace(plan.data, **fields["dataset"]))


def _setting_values(args) -> dict:
    """Flag values over config-file values, keyed by flag name."""
    values = read_config_file(args.config, args.command) if args.config else {}
    for flag in _settings(args.command):
        value = getattr(args, flag.replace("-", "_"))
        if value is not None:
            values[flag] = value
    return values


def _default_outdir(args) -> str:
    if args.out is not None:
        return args.out
    return os.environ.get("RBMPT_OUTDIR", ".")


def _add_run_flags(parser, command: str) -> None:
    parser.add_argument("--config", help="flat key = value settings file, keys as the flags")
    for flag, setting in _settings(command).items():
        parser.add_argument(
            f"--{flag}", type=setting.type, choices=setting.choices, help=setting.help
        )
    parser.add_argument("--out", help="output directory (default $RBMPT_OUTDIR or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rbmpt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training job")
    _add_run_flags(p_train, "train")

    p_grid = sub.add_parser("grid", help="run a preset or plan file")
    _add_run_flags(p_grid, "grid")
    p_grid.add_argument("--preset", choices=_PRESETS)
    p_grid.add_argument("--plan", help="experiment plan JSON file")
    p_grid.add_argument("--scale", choices=("full", "ci"), help="preset scale (default full)")
    p_grid.add_argument("--num-seeds", type=int, help="preset seeds per label (default 5)")
    p_grid.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p_sum = sub.add_parser("summarize", help="print the per-label summary table")
    p_sum.add_argument("output_dir")
    return parser


def train_plan(args) -> ExperimentPlan:
    """A one-run plan built from the defaults, with the settings applied."""
    values = _setting_values(args)
    config = TrainConfig()
    run = PlannedRun("run", config, [values.get("seed", config.seed)])
    return apply_settings(ExperimentPlan([run], output_dir=_default_outdir(args)), values)


def grid_plan(args) -> ExperimentPlan:
    if bool(args.preset) == bool(args.plan):
        raise ValueError("grid needs exactly one of --preset or --plan")
    if args.jobs < 1:
        raise ValueError("--jobs must be a positive integer")
    # given flags only, so that comparison_plan's defaults apply to the rest
    shape = {
        name: getattr(args, name)
        for name in ("scale", "num_seeds")
        if getattr(args, name) is not None
    }
    if args.plan:
        if shape:
            flag = next(iter(shape)).replace("_", "-")
            raise ValueError(f"--{flag} shapes the presets only, not a --plan")
        # --out, then the plan's output_dir, then RBMPT_OUTDIR, then "."
        plan = load_plan(args.plan, _default_outdir(args))
        if args.out is not None:
            plan.output_dir = args.out
    else:
        plan = comparison_plan(
            _default_outdir(args), grid=args.preset == "comparison-grid", **shape
        )
    return apply_settings(plan, _setting_values(args))


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format=LOG_FORMAT)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "summarize":
        try:
            # a ValueError here is a bad setting or plan: a usage error
            plan = train_plan(args) if args.command == "train" else grid_plan(args)
        except ValueError as exc:
            print(f"rbmpt: error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        except (OSError, RuntimeError) as exc:
            print(f"rbmpt: failed: {exc}", file=sys.stderr)
            return RUNTIME_ERROR
    try:
        # settings are valid by now, and summarize takes none, so any error
        # is a runtime failure
        if args.command == "summarize":
            return summarize(args.output_dir, sys.stdout)
        return run_experiment(plan, jobs=getattr(args, "jobs", 1))
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"rbmpt: failed: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
