import dataclasses
import json
import subprocess
import sys

import pytest

from rbmpt import cli, experiment
from rbmpt.training import read_metrics_csv


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


class TestGridCommand:
    def test_empty_plan(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"dataset": {"image_side": 3}, "runs": []}))
        out = tmp_path / "out"
        assert run_cli(["grid", "--plan", str(plan_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["runs"] == []

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

    def test_plan_roundtrip(self, tmp_path):
        plan = experiment.comparison_plan(tmp_path / "out", scale="ci", num_seeds=2)
        back = experiment.plan_from_dict(experiment.plan_to_dict(plan))
        assert [r.label for r in back.runs] == [r.label for r in plan.runs]
        assert back.runs[0].config == plan.runs[0].config

    def test_needs_exactly_one_source(self, tmp_path):
        assert run_cli(["grid", "--out", str(tmp_path)]) == cli.USAGE_ERROR

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

        monkeypatch.setattr(experiment, "train", fail)
        assert run_cli(tiny_train_args(tmp_path)) == cli.RUNTIME_ERROR

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rbmpt.cli", *tiny_train_args(tmp_path)],
            capture_output=True,
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
        data = experiment.DatasetSettings(image_side=3, eval_size=10)
        _, eval_data = experiment.build_dataset(data)
        assert not eval_data.flags.writeable


class TestParallelJobs:
    def test_worker_pool_matches_sequential(self, tmp_path):
        plan_seq = tiny_comparison_plan(tmp_path / "seq")
        plan_par = tiny_comparison_plan(tmp_path / "par")
        assert experiment.run_experiment(plan_seq, jobs=1) == 0
        assert experiment.run_experiment(plan_par, jobs=2) == 0
        for csv_seq in (tmp_path / "seq").glob("*.csv"):
            csv_par = tmp_path / "par" / csv_seq.name
            assert csv_seq.read_bytes() == csv_par.read_bytes()
