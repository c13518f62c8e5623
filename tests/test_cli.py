import dataclasses
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import typing

import pytest

from rbmpt import cli, experiment
from rbmpt.adaptation import AdaptationConfig
from rbmpt.training import TrainConfig

from metrics_io import read_metrics_csv


def run_cli(argv):
    return cli.main(argv)


def tiny_train_args(out, extra=()):
    return [
        "train",
        "--algo", "sml",
        "--updates", "10",
        "--eval-interval", "5",
        "--image-side", "3",
        "--hidden", "2",
        "--eval-size", "20",
        "--seed", "3",
        "--out", str(out),
        *extra,
    ]


def tiny_comparison_plan(out):
    """The ci comparison plan, 2 seeds per label, shrunk to a few updates."""
    plan = experiment.comparison_plan(out, scale="ci", num_seeds=2)
    for run in plan.runs:
        run.config = dataclasses.replace(
            run.config, num_updates=6, post_sampling_steps=0, eval_interval=3
        )
    plan.data.image_side = 3
    plan.data.eval_size = 10
    return plan


def exit_code(argv):
    """cli.main's exit code, including argparse's usage errors."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def write_plan(
    path, dataset=None, config=None, seeds=(0,), label="planned", plan=None, run=None
):
    """A one-run plan file: sml, 6 updates, 5 hidden units, 3x3 images;
    `plan` and `run` add keys to the plan and to its run entry."""
    record = {
        "dataset": {"image_side": 3, "eval_size": 10, **(dataset or {})},
        "runs": [
            {
                "label": label,
                "seeds": list(seeds),
                "config": {
                    "algorithm": "sml",
                    "num_updates": 6,
                    "num_hidden": 5,
                    "eval_interval": 3,
                    **(config or {}),
                },
                **(run or {}),
            }
        ],
        **(plan or {}),
    }
    path.write_text(json.dumps(record))
    return str(path)


def write_config(path, text):
    path.write_text(text)
    return str(path)


class TestTrainCommand:
    def test_single_run_artifacts(self, tmp_path):
        assert run_cli(tiny_train_args(tmp_path)) == 0
        csv_path = tmp_path / "run__seed3.csv"
        assert csv_path.exists()
        assert (tmp_path / "run__seed3.json").exists()
        assert (tmp_path / "run__seed3.rbm").exists()
        assert (tmp_path / "run__summary.json").exists()
        assert (tmp_path / "manifest.json").exists()
        rows = read_metrics_csv(csv_path)
        assert len(rows) == 10 // 5 + 1

    def test_row_count_with_ragged_interval(self, tmp_path):
        assert run_cli(tiny_train_args(tmp_path, ("--eval-interval", "3"))) == 0
        rows = read_metrics_csv(tmp_path / "run__seed3.csv")
        assert len(rows) == -(-10 // 3) + 1  # ceil + initial row

    def test_eval_size_zero_logs_na(self, tmp_path):
        assert run_cli(tiny_train_args(tmp_path, ("--eval-size", "0"))) == 0
        rows = read_metrics_csv(tmp_path / "run__seed3.csv")
        assert all(r.train_loglik is None for r in rows)

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(tiny_train_args(a, ("--algo", "sml-apt", "--chains", "3"))) == 0
        assert run_cli(tiny_train_args(b, ("--algo", "sml-apt", "--chains", "3"))) == 0
        assert (a / "run__seed3.csv").read_bytes() == (b / "run__seed3.csv").read_bytes()

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# smoke settings\n"
            "algo = sml\n"
            "updates = 10\n"
            "eval_interval = 5\n"
            "image-side = 3\n"
            "hidden = 2\n"
            "eval_size = 0\n"
            "seed = 9\n"
            "label = 'filecase'\n"
        )
        out = tmp_path / "out"
        assert run_cli(["train", "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 0
        # flag seed wins over the file seed; label comes from the file
        assert (out / "filecase__seed4.csv").exists()

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RBMPT_OUTDIR", str(tmp_path / "envout"))
        args = tiny_train_args("ignored")
        args = args[: args.index("--out")]  # drop the --out pair
        assert run_cli(args) == 0
        assert (tmp_path / "envout" / "run__seed3.csv").exists()

    def test_plan_outdir_order(self, tmp_path, monkeypatch):
        # --out, then the plan's output_dir, then RBMPT_OUTDIR, then "."
        monkeypatch.chdir(tmp_path)
        bare = write_plan(tmp_path / "bare.json")
        placed = write_plan(tmp_path / "placed.json", plan={"output_dir": "planned"})

        def out_dir(plan, *extra):
            args = cli.build_parser().parse_args(["grid", "--plan", plan, *extra])
            return cli.grid_plan(args).output_dir

        monkeypatch.delenv("RBMPT_OUTDIR", raising=False)
        assert out_dir(bare) == "."
        monkeypatch.setenv("RBMPT_OUTDIR", "envout")
        assert out_dir(bare) == "envout"
        assert out_dir(placed) == "planned"
        assert out_dir(placed, "--out", "flag") == out_dir(bare, "--out", "flag") == "flag"
        assert run_cli(["grid", "--plan", bare]) == 0
        assert (tmp_path / "envout" / "planned__seed0.csv").exists()
        assert not (tmp_path / "planned__seed0.csv").exists()


# sha256 of each preset plan's fields, as sorted-key JSON of
# `dataclasses.asdict(plan)`. Re-record a digest only when that preset is
# changed on purpose.
PRESET_DIGESTS = {
    ("ci", False): "8bb79d13f3f31260ebfe27687659008b1069f4b487ff80b4adab6ea0800293f7",
    ("ci", True): "3e7257f077bf30a7a829d34580063f1c613da40ff1031baba689e05698c2244c",
    ("full", False): "63d210cae3ec300197488686b586d099527eb77243c59fc2c9f85bae0c78129e",
    ("full", True): "760370f0e988c50aa9d60fd8fd16126a0e07cf17872564d25f9f4e7b25350efc",
}


class TestGridCommand:
    def test_comparison_preset_file_counts(self, tmp_path):
        out = tmp_path / "grid"
        code = run_cli(
            [
                "grid", "--preset", "comparison",
                "--updates", "8",
                "--post-steps", "0",
                "--eval-interval", "4",
                "--image-side", "3",
                "--hidden", "2",
                "--eval-size", "10",
                "--num-seeds", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert len(list(out.glob("*__seed*.csv"))) == 25
        assert len(list(out.glob("*__summary.json"))) == 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["runs"]) == 25
        assert manifest["labels"] == ["sml", "sml-pt-10", "sml-pt-20", "sml-pt-50", "sml-apt"]

    def test_grid_preset_enumerates_cells(self):
        plan = experiment.comparison_plan("unused", scale="ci", grid=True)
        labels = [run.label for run in plan.runs]
        assert len(labels) == 14  # 2 sml + 6 fixed-ladder + 6 adaptive cells
        assert len(set(labels)) == 14

    @pytest.mark.parametrize("scale, grid", list(PRESET_DIGESTS), ids=str)
    def test_presets_are_pinned(self, scale, grid):
        plan = experiment.comparison_plan("out", scale=scale, grid=grid)
        text = json.dumps(dataclasses.asdict(plan), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PRESET_DIGESTS[scale, grid]

    def test_needs_exactly_one_source(self, tmp_path):
        assert run_cli(["grid", "--out", str(tmp_path)]) == cli.USAGE_ERROR

    @pytest.mark.parametrize("flag, value", [("--scale", "ci"), ("--num-seeds", "3")])
    def test_preset_shape_flags_refuse_a_plan(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        argv = ["grid", "--plan", write_plan(tmp_path / "p.json"), flag, value, "--out", str(out)]
        assert exit_code(argv) == cli.USAGE_ERROR
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_plan_invariants(self):
        from rbmpt.training import TrainConfig

        config = TrainConfig()
        with pytest.raises(ValueError):
            experiment.ExperimentPlan(
                runs=[
                    experiment.PlannedRun("same", config, [0]),
                    experiment.PlannedRun("same", config, [1]),
                ]
            )
        with pytest.raises(ValueError):
            experiment.ExperimentPlan(
                runs=[experiment.PlannedRun("run", config, [3, 3])]
            )
        with pytest.raises(ValueError):
            experiment.ExperimentPlan(runs=[experiment.PlannedRun("run", config, [])])
        with pytest.raises(ValueError):
            experiment.ExperimentPlan(runs=[])


class TestSummarize:
    def make_outputs(self, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(tiny_train_args(out)) == 0
        return out

    def test_single_run_table(self, tmp_path, capsys):
        out = self.make_outputs(tmp_path)
        assert run_cli(["summarize", str(out)]) == 0
        text = capsys.readouterr().out
        lines = text.strip().splitlines()
        assert lines[0].split() == [
            "label", "loglik_mean", "loglik_sem", "tau_rt", "chains", "wall_s",
        ]
        assert len(lines) == 2
        assert lines[1].startswith("run")
        assert " 0.0000 " in lines[1]  # single run: zero standard error

    def test_byte_identical_invocations(self, tmp_path, capsys):
        out = self.make_outputs(tmp_path)
        run_cli(["summarize", str(out)])
        first = capsys.readouterr().out
        run_cli(["summarize", str(out)])
        second = capsys.readouterr().out
        assert first == second

    def test_missing_summary_listed(self, tmp_path, capsys):
        out = self.make_outputs(tmp_path)
        (out / "run__summary.json").unlink()
        assert run_cli(["summarize", str(out)]) == 0
        text = capsys.readouterr().out
        assert "missing: run__summary.json" in text

    def test_missing_manifest_is_runtime_error(self, tmp_path):
        assert run_cli(["summarize", str(tmp_path)]) == cli.RUNTIME_ERROR

    @pytest.mark.parametrize(
        "text",
        ["not json", '{"summaries": {}}', '{"labels": ["run"]}', "[1]"],
        ids=["not json", "no labels", "no summaries", "not an object"],
    )
    def test_unreadable_manifest_is_runtime_error(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        assert run_cli(["summarize", str(tmp_path)]) == cli.RUNTIME_ERROR
        assert capsys.readouterr().err.startswith(f"rbmpt: failed: {manifest}: ")

    def test_unreadable_summary_is_runtime_error(self, tmp_path, capsys):
        out = self.make_outputs(tmp_path)
        summary = out / "run__summary.json"
        for text in ("{", '{"label": "run"}'):
            summary.write_text(text)
            assert run_cli(["summarize", str(out)]) == cli.RUNTIME_ERROR
            assert capsys.readouterr().err.startswith(f"rbmpt: failed: {summary}: ")


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["train", "--algo", "nonsense"])
        assert err.value.code == cli.USAGE_ERROR

    def test_unknown_command_is_one(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["frobnicate"])
        assert err.value.code == cli.USAGE_ERROR

    def test_non_finite_lr_is_usage_error(self, tmp_path):
        assert run_cli(tiny_train_args(tmp_path, ("--lr", "nan"))) == cli.USAGE_ERROR
        assert not (tmp_path / "manifest.json").exists()

    def test_value_error_while_running_is_runtime_error(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("f_up contains non-finite entries")

        monkeypatch.setattr(experiment, "train_lockstep", fail)
        assert run_cli(tiny_train_args(tmp_path)) == cli.RUNTIME_ERROR

    def test_failed_rewrite_keeps_the_old_artifacts(self, tmp_path, monkeypatch):
        # a rerun whose JSON writes die part-way leaves the first run's
        # sidecar and manifest byte for byte, and no temp file
        assert run_cli(tiny_train_args(tmp_path)) == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        def interrupted(record, fh, **kwargs):
            fh.write(json.dumps(record, **kwargs)[:40])
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", interrupted)
        assert run_cli(tiny_train_args(tmp_path)) == cli.RUNTIME_ERROR
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_console_entry_point(self, tmp_path):
        # the child imports the package copy this test imported
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "rbmpt.cli", *tiny_train_args(tmp_path)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0
        assert (tmp_path / "run__seed3.csv").exists()


class TestProgrammaticEquivalence:
    def test_cli_matches_library_run(self, tmp_path):
        # the CLI must not alter numerical behaviour
        out = tmp_path / "via_cli"
        assert run_cli(tiny_train_args(out)) == 0
        cli_rows = read_metrics_csv(out / "run__seed3.csv")

        data = experiment.DatasetSettings(image_side=3, data_seed=0, eval_size=20)
        config = experiment.config_from_dict(
            json.loads((out / "run__seed3.json").read_text())["config"]
        )
        spec, eval_data = experiment.build_dataset(data)
        from rbmpt import dataset as ds
        from rbmpt.training import train

        result = train(config, ds.BatchSampler(spec), eval_data=eval_data)
        assert [r.to_csv_row() for r in result.metrics] == [
            r.to_csv_row() for r in cli_rows
        ]


class TestSharedDataset:
    def test_built_once_per_grid(self, tmp_path, monkeypatch):
        calls = []
        build = experiment.build_dataset

        def counting_build(data):
            calls.append(data)
            return build(data)

        monkeypatch.setattr(experiment, "build_dataset", counting_build)
        assert experiment.run_experiment(tiny_comparison_plan(tmp_path), jobs=1) == 0
        assert len(calls) == 1
        assert len(list(tmp_path.glob("*__seed*.csv"))) == 10

    def test_eval_snapshot_is_read_only(self):
        # the snapshot is kept as its distinct rows with counts
        data = experiment.DatasetSettings(image_side=3, eval_size=10)
        _, eval_rows = experiment.build_dataset(data)
        for array in (eval_rows.rows, eval_rows.counts, eval_rows.visible_sum):
            assert not array.flags.writeable

    def test_eval_snapshot_stays_read_only_through_pickle(self):
        # each `--jobs N` task carries a pickled copy of the snapshot
        data = experiment.DatasetSettings(image_side=3, eval_size=10)
        _, eval_rows = experiment.build_dataset(data)
        copy = pickle.loads(pickle.dumps(eval_rows))
        assert (copy.size, copy.num_visible) == (eval_rows.size, eval_rows.num_visible)
        for name in ("rows", "counts", "visible_sum"):
            array = getattr(copy, name)
            assert array.tobytes() == getattr(eval_rows, name).tobytes()
            assert not array.flags.writeable


def record_worker_env(log_level):
    """Pool initializer: note the BLAS settings the worker started with, in
    its working directory, then set it up as `run_experiment`'s own
    initializer does."""
    settings = {key: os.environ.get(key) for key in experiment._WORKER_BLAS_ENV}
    with open(f"env-{os.getpid()}.json", "w") as fh:
        json.dump(settings, fh)
    experiment._init_worker(log_level)


class TestParallelJobs:
    def test_workers_start_with_one_blas_thread(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment, "_init_worker", record_worker_env)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        assert experiment.run_experiment(tiny_comparison_plan(tmp_path), jobs=2) == 0
        seen = [json.loads(path.read_text()) for path in tmp_path.glob("env-*.json")]
        assert seen and all(env == experiment._WORKER_BLAS_ENV for env in seen)
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"

    def test_worker_pool_matches_sequential(self, tmp_path, monkeypatch):
        # `--jobs 1` trains the plan's one lockstep key in one call, and
        # `--jobs 2` splits it by ladder length: the same bytes either way
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        plan_seq = tiny_comparison_plan(tmp_path / "seq")
        plan_par = tiny_comparison_plan(tmp_path / "par")
        assert experiment.run_experiment(plan_seq, jobs=1) == 0
        assert experiment.run_experiment(plan_par, jobs=2) == 0
        artifacts = sorted((tmp_path / "seq").glob("*__seed*.csv"))
        artifacts += sorted((tmp_path / "seq").glob("*.rbm"))
        assert len(artifacts) == 20
        for seq in artifacts:
            assert seq.read_bytes() == (tmp_path / "par" / seq.name).read_bytes()
        sizes = {}
        for out in ("seq", "par"):
            sizes[out] = {
                path.stem: json.loads(path.read_text())["group_size"]
                for path in (tmp_path / out).glob("*__seed*.json")
            }
        assert set(sizes["seq"].values()) == {10}
        assert sizes["par"] == {
            stem: 4 if stem.startswith(("sml-pt-10_", "sml-apt_")) else 2 for stem in sizes["seq"]
        }
        # the workers' one-thread BLAS settings do not leak into this process
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        assert os.environ["OMP_NUM_THREADS"] == "3"

    def test_full_scale_plan_matches_across_jobs(self, tmp_path):
        # `--jobs 1` trains in the calling process, here with two BLAS
        # threads, and each `--jobs 2` worker with one; 61 eval points per
        # run at 28x28 give the likelihood's bits room to differ
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        args = [
            "-m", "rbmpt.cli", "grid", "--preset", "comparison", "--scale", "full",
            "--num-seeds", "1", "--updates", "300", "--post-steps", "0", "--eval-interval", "5",
        ]
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            subprocess.run(
                [sys.executable, *args, "--jobs", str(jobs), "--out", str(out)],
                check=True,
                capture_output=True,
                env={**os.environ, "PYTHONPATH": package_root, "OPENBLAS_NUM_THREADS": "2"},
            )
        artifacts = sorted((tmp_path / "jobs1").glob("*__seed*.csv"))
        artifacts += sorted((tmp_path / "jobs1").glob("*.rbm"))
        assert len(artifacts) == 10
        for path in artifacts:
            assert path.read_bytes() == (tmp_path / "jobs2" / path.name).read_bytes()

    def test_workers_log_like_the_calling_process(self, tmp_path):
        # two labels of different shapes: two groups, one per worker
        plan = {
            "dataset": {"image_side": 3, "eval_size": 10},
            "runs": [
                {"label": label, "seeds": [0, 1], "config": {
                    "algorithm": "sml", "num_updates": 6, "num_hidden": hidden,
                    "eval_interval": 3,
                }}
                for label, hidden in (("small", 2), ("large", 5))
            ],
        }
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        logged = {}
        for jobs in (1, 2):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "rbmpt.cli", "grid",
                    "--plan", str(tmp_path / "plan.json"),
                    "--jobs", str(jobs), "--out", str(tmp_path / f"jobs{jobs}"),
                ],
                check=True,
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": package_root},
            )
            # the lines without their wall times
            logged[jobs] = {
                re.sub(r" in [0-9.]+s$", "", line)
                for line in proc.stderr.splitlines()
                if line.startswith("INFO ")
            }
        assert logged[1] == {"INFO small: 2 seeds finished", "INFO large: 2 seeds finished"}
        assert logged[2] == logged[1]

    def test_environment_is_restored(self, monkeypatch):
        monkeypatch.setenv("RBMPT_TEST_SET", "before")
        monkeypatch.delenv("RBMPT_TEST_UNSET", raising=False)
        settings = {"RBMPT_TEST_SET": "1", "RBMPT_TEST_UNSET": "1"}
        with pytest.raises(RuntimeError):
            with experiment._environment(settings):
                assert all(os.environ[key] == "1" for key in settings)
                raise RuntimeError("a failing pool")
        assert os.environ["RBMPT_TEST_SET"] == "before"
        assert "RBMPT_TEST_UNSET" not in os.environ


# Each case builds (argv, output directory) in a temporary directory. Every
# one is a bad setting, so it must exit 1 before any run starts.
BAD_SETTINGS = {
    "negative seed": lambda d: (tiny_train_args(d / "out", ("--seed", "-1")), d / "out"),
    "negative data seed": lambda d: (
        tiny_train_args(d / "out", ("--data-seed", "-1")), d / "out"
    ),
    "zero image side": lambda d: (tiny_train_args(d / "out", ("--image-side", "0")), d / "out"),
    "negative eval size": lambda d: (
        tiny_train_args(d / "out", ("--eval-size", "-3")), d / "out"
    ),
    "plan config typo": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json", config={"learning_rat": 0.1}),
         "--out", str(d / "out")],
        d / "out",
    ),
    "plan dataset typo": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json", dataset={"image_sid": 3}),
         "--out", str(d / "out")],
        d / "out",
    ),
    "plan key typo": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json", plan={"data": {"image_side": 8}}),
         "--out", str(d / "out")],
        d / "out",
    ),
    "plan run key typo": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json", run={"sedes": [1]}),
         "--out", str(d / "out")],
        d / "out",
    ),
    "null plan adaptation": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json", config={"adaptation": None}),
         "--out", str(d / "out")],
        d / "out",
    ),
    "field name as file key": lambda d: (
        tiny_train_args(d / "out", ("--config", write_config(d / "c.cfg", "learning_rate = 0.5\n"))),
        d / "out",
    ),
    "fractional file count": lambda d: (
        tiny_train_args(d / "out", ("--config", write_config(d / "c.cfg", "updates = 4.5\n"))),
        d / "out",
    ),
    "word as file count": lambda d: (
        tiny_train_args(d / "out", ("--config", write_config(d / "c.cfg", 'hidden = "two"\n'))),
        d / "out",
    ),
    "flag with plan": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json"), "--hidden", "0", "--out", str(d / "out")],
        d / "out",
    ),
    "config file with plan": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json"),
         "--config", write_config(d / "c.cfg", "eval-size = -1\n"), "--out", str(d / "out")],
        d / "out",
    ),
    "grid seed": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json"), "--seed", "3", "--out", str(d / "out")],
        d / "out",
    ),
    "grid seed in file": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json"),
         "--config", write_config(d / "c.cfg", "seed = 3\n"), "--out", str(d / "out")],
        d / "out",
    ),
    "zero jobs": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json"), "--jobs", "0", "--out", str(d / "out")],
        d / "out",
    ),
    "negative jobs": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json"), "--jobs", "-2", "--out", str(d / "out")],
        d / "out",
    ),
    "no preset seeds": lambda d: (
        ["grid", "--preset", "comparison", "--scale", "ci", "--num-seeds", "0",
         "--out", str(d / "out")],
        d / "out",
    ),
    "negative preset seeds": lambda d: (
        ["grid", "--preset", "comparison", "--scale", "ci", "--num-seeds", "-2",
         "--out", str(d / "out")],
        d / "out",
    ),
    "plan run without seeds": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json", seeds=[]), "--out", str(d / "out")],
        d / "out",
    ),
    "plan without runs": lambda d: (
        ["grid", "--plan", write_config(d / "p.json", json.dumps({"runs": []})),
         "--out", str(d / "out")],
        d / "out",
    ),
    "label with a slash": lambda d: (tiny_train_args(d / "out", ("--label", "a/b")), d / "out"),
    "empty label": lambda d: (tiny_train_args(d / "out", ("--label", "")), d / "out"),
    "unterminated quote in file": lambda d: (
        tiny_train_args(d / "out", ("--config", write_config(d / "c.cfg", 'label = "run#1\n'))),
        d / "out",
    ),
    "label with a slash in file": lambda d: (
        tiny_train_args(d / "out", ("--config", write_config(d / "c.cfg", "label = a/b\n"))),
        d / "out",
    ),
    "plan label with a slash": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json", label="a/b"), "--out", str(d / "out")],
        d / "out",
    ),
    "empty plan label": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json", label=""), "--out", str(d / "out")],
        d / "out",
    ),
    "fractional plan count": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json", config={"num_updates": 4.5}),
         "--out", str(d / "out")],
        d / "out",
    ),
    "chains above the chain budget": lambda d: (
        tiny_train_args(d / "out", ("--algo", "sml-apt", "--chains", "10", "--max-chains", "5")),
        d / "out",
    ),
    "plan chains above the chain budget": lambda d: (
        ["grid", "--plan", write_plan(
            d / "p.json",
            config={"algorithm": "sml-apt", "initial_num_chains": 10,
                    "adaptation": {"max_chains": 5}},
        ), "--out", str(d / "out")],
        d / "out",
    ),
    "adaptive ladder of one chain": lambda d: (
        tiny_train_args(d / "out", ("--algo", "sml-apt", "--chains", "1")), d / "out"
    ),
    "plan adaptive ladder of one chain": lambda d: (
        ["grid", "--plan", write_plan(
            d / "p.json", config={"algorithm": "sml-apt", "initial_num_chains": 1},
        ), "--out", str(d / "out")],
        d / "out",
    ),
    "seed in plan config": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json", config={"seed": 7}), "--out", str(d / "out")],
        d / "out",
    ),
}


def planned_seed(seeds):
    """A one-run plan whose one replicate seed is `seeds`."""
    return experiment.ExperimentPlan(runs=[experiment.PlannedRun("run", TrainConfig(), [seeds])])


def single_chain_config(**kwargs):
    """A `TrainConfig` of the single-chain sampler with `kwargs` set."""
    return TrainConfig(algorithm="sml", **kwargs)


class TestSettings:
    @pytest.mark.parametrize("case", list(BAD_SETTINGS), ids=list(BAD_SETTINGS))
    def test_bad_setting_exits_before_any_run(self, tmp_path, case):
        argv, out = BAD_SETTINGS[case](tmp_path)
        assert exit_code(argv) == cli.USAGE_ERROR
        assert not (out / "manifest.json").exists()
        assert not out.exists()

    def test_unknown_key_names_file_line_and_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", "# lr typo\nupdates = 10\nlearning_rate = 0.5\n")
        assert exit_code(["train", "--config", cfg, "--out", str(tmp_path)]) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert f"{cfg}:3" in err and "'learning_rate'" in err and "'lr'" in err

    def test_bad_file_value_names_file_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", "updates = 4.5\n")
        assert exit_code(["train", "--config", cfg, "--out", str(tmp_path)]) == cli.USAGE_ERROR
        assert f"{cfg}:1" in capsys.readouterr().err

    def test_hash_inside_quotes_is_kept(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg", 'label = "run#1"  # a comment\nlr = 1 # another\n# label = x\n'
        )
        args = cli.build_parser().parse_args(["train", "--config", cfg])
        run = cli.train_plan(args).runs[0]
        assert run.label == "run#1"
        assert run.config.learning_rate == 1.0
        cfg = write_config(tmp_path / "d.cfg", "label = '#'#'\n")
        assert cli.read_config_file(cfg, "train") == {"label": "#"}

    def test_plan_config_seed_names_run_and_seeds(self, tmp_path, capsys):
        plan = write_plan(tmp_path / "p.json", config={"seed": 7}, label="a")
        assert exit_code(["grid", "--plan", plan, "--out", str(tmp_path)]) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert "'a'" in err and "'seeds'" in err
        # a config outside a plan run keeps its seed
        assert experiment.config_from_dict({"seed": 7}).seed == 7

    @pytest.mark.parametrize(
        "case", ["chains above the chain budget", "plan chains above the chain budget"]
    )
    def test_chain_budget_names_both_settings(self, tmp_path, capsys, case):
        argv, _ = BAD_SETTINGS[case](tmp_path)
        assert exit_code(argv) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert "initial_num_chains (10)" in err and "max_chains (5)" in err
        # a ladder that starts at its budget is valid
        args = cli.build_parser().parse_args(
            ["train", "--algo", "sml-apt", "--chains", "5", "--max-chains", "5"]
        )
        assert cli.train_plan(args).runs[0].config.adaptation.max_chains == 5

    @pytest.mark.parametrize(
        "case", ["adaptive ladder of one chain", "plan adaptive ladder of one chain"]
    )
    def test_one_chain_adaptive_ladder_names_the_setting(self, tmp_path, capsys, case):
        argv, _ = BAD_SETTINGS[case](tmp_path)
        assert exit_code(argv) == cli.USAGE_ERROR
        assert "initial_num_chains (1) must be 2 or more" in capsys.readouterr().err

    def test_unterminated_quote_names_file_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", "updates = 4\nlabel = 'run # one\n")
        assert exit_code(["train", "--config", cfg, "--out", str(tmp_path)]) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and "unterminated" in err

    def test_flags_and_file_apply_to_plan(self, tmp_path):
        # flag over file over plan: updates from the flag, hidden from the
        # file, eval interval from the plan
        plan = write_plan(tmp_path / "p.json")
        cfg = write_config(tmp_path / "c.cfg", "updates = 4\nhidden = 3\n")
        out = tmp_path / "out"
        argv = ["grid", "--plan", plan, "--config", cfg, "--updates", "2", "--out", str(out)]
        assert exit_code(argv) == 0
        config = json.loads((out / "planned__seed0.json").read_text())["config"]
        assert (config["num_updates"], config["num_hidden"]) == (2, 3)
        assert config["eval_interval"] == 3
        assert [r.update_index for r in read_metrics_csv(out / "planned__seed0.csv")] == [0, 2]

    def test_file_values_take_their_flag_types(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "lr = 1\nladder = 'geometric'\nbeta_lr = 0\n")
        args = cli.build_parser().parse_args(["train", "--config", cfg])
        config = cli.train_plan(args).runs[0].config
        assert config.learning_rate == 1.0 and isinstance(config.learning_rate, float)
        assert config.initial_ladder == "geometric"
        assert config.adaptation.beta_learning_rate == 0.0

    def test_every_setting_names_a_field(self):
        targets = {
            "run": experiment.PlannedRun,
            "config": TrainConfig,
            "adaptation": AdaptationConfig,
            "dataset": experiment.DatasetSettings,
        }
        for flag, setting in cli.SETTINGS.items():
            fields = {f.name for f in dataclasses.fields(targets[setting.target])}
            assert setting.field in fields, flag
            # the flag's converter is the type its field's settings object checks
            types = typing.get_type_hints(targets[setting.target])
            assert types[setting.field] is setting.type, flag

    def test_plan_records_reject_unknown_keys(self):
        with pytest.raises(ValueError, match="learning_rat"):
            experiment.config_from_dict({"learning_rat": 0.1})
        with pytest.raises(ValueError, match="beta_lr"):
            experiment.config_from_dict({"adaptation": {"beta_lr": 0.1}})
        with pytest.raises(ValueError, match="image_sid"):
            experiment.plan_from_dict({"dataset": {"image_sid": 3}})
        with pytest.raises(ValueError, match="unknown plan key.*'data'"):
            experiment.plan_from_dict({"runs": [], "data": {"image_side": 8}})
        run = {"label": "a", "seeds": [1], "config": {}, "sedes": [1]}
        with pytest.raises(ValueError, match="unknown plan run key.*'sedes'"):
            experiment.plan_from_dict({"runs": [run]})

    def test_plan_values_need_their_field_types(self):
        # an int passes where a float is wanted, and becomes one
        config = experiment.config_from_dict(
            {"learning_rate": 1, "adaptation": {"beta_learning_rate": 0}}
        )
        assert type(config.learning_rate) is float and config.learning_rate == 1.0
        assert type(config.adaptation.beta_learning_rate) is float
        # the settings objects convert it, whoever builds them
        assert type(TrainConfig(learning_rate=1).learning_rate) is float
        adaptation = AdaptationConfig(beta_learning_rate=0, min_avg_swap_rate=0)
        assert type(adaptation.beta_learning_rate) is float
        assert type(adaptation.min_avg_swap_rate) is float
        for config in (
            {"num_updates": 4.5},
            {"num_hidden": True},
            {"learning_rate": "0.1"},
            {"algorithm": 1},
            {"adaptation": {"max_chains": 2.0}},
            {"adaptation": [0.1]},
            {"adaptation": None},
        ):
            with pytest.raises(ValueError, match="expected"):
                experiment.config_from_dict(config)
        for record in (
            {"dataset": {"eval_size": 10.0}},
            {"runs": [{"label": "a", "seeds": [0.5], "config": {}}]},
            {"runs": [{"label": 3, "seeds": [0], "config": {}}]},
            {"runs": [{"label": "a", "config": {}}]},
            {"runs": [{"label": "a", "seeds": [0]}]},
            {"runs": ["a"]},
            {"output_dir": 7},
            [1],
        ):
            with pytest.raises(ValueError, match="expected"):
                experiment.plan_from_dict(record)
        # a run without one of its keys is refused with the key's name
        for key in ("label", "seeds", "config"):
            run = {"label": "a", "seeds": [0], "config": {}}
            del run[key]
            with pytest.raises(ValueError, match=f"plan run: expected key.*'{key}'"):
                experiment.plan_from_dict({"runs": [run]})

    @pytest.mark.parametrize(
        "kwargs", [{"image_side": 0}, {"eval_size": -1}, {"data_seed": -1}], ids=str
    )
    def test_dataset_settings_validate(self, kwargs):
        with pytest.raises(ValueError):
            experiment.DatasetSettings(**kwargs)

    @pytest.mark.parametrize(
        "make, field, value",
        [
            (TrainConfig, "num_updates", 4.5),
            (TrainConfig, "seed", 1.5),
            (TrainConfig, "num_hidden", True),
            (TrainConfig, "learning_rate", True),
            (TrainConfig, "learning_rate", "0.1"),
            (AdaptationConfig, "spawn_check_interval", 2.5),
            (AdaptationConfig, "beta_learning_rate", True),
            (experiment.DatasetSettings, "image_side", 8.0),
            (experiment.DatasetSettings, "eval_size", True),
            (planned_seed, "seeds", 1.5),
            (TrainConfig, "adaptation", {"max_chains": 5}),
            (single_chain_config, "adaptation", None),
        ],
        ids=lambda x: x.__name__ if callable(x) else repr(x),
    )
    def test_settings_objects_check_their_types(self, make, field, value):
        # the plan file's rule: an int setting takes an int, a float setting
        # an int or a float, and neither a bool
        with pytest.raises(ValueError, match=field):
            make(**{field: value})

    def test_seeds_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError):
            experiment.ExperimentPlan(
                runs=[experiment.PlannedRun("run", TrainConfig(), [0, -2])]
            )
