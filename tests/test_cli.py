import dataclasses
import json
import os
import subprocess
import sys

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


def write_plan(path, dataset=None, config=None, seeds=(0,)):
    """A one-run plan file: sml, 6 updates, 5 hidden units, 3x3 images."""
    record = {
        "dataset": {"image_side": 3, "eval_size": 10, **(dataset or {})},
        "runs": [
            {
                "label": "planned",
                "seeds": list(seeds),
                "config": {
                    "algorithm": "sml",
                    "num_updates": 6,
                    "num_hidden": 5,
                    "eval_interval": 3,
                    **(config or {}),
                },
            }
        ],
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

    def test_plan_roundtrip(self, tmp_path):
        plan = experiment.comparison_plan(tmp_path / "out", scale="ci", num_seeds=2)
        back = experiment.plan_from_dict(experiment.plan_to_dict(plan))
        assert [r.label for r in back.runs] == [r.label for r in plan.runs]
        assert back.runs[0].config == plan.runs[0].config

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


def record_worker_env(data, out_dir):
    """Pool initializer: note the BLAS settings the worker started with,
    then set it up as `run_experiment`'s own initializer does."""
    settings = {key: os.environ.get(key) for key in experiment._WORKER_BLAS_ENV}
    (out_dir / f"env-{os.getpid()}.json").write_text(json.dumps(settings))
    experiment._init_worker(data, out_dir)


class TestParallelJobs:
    def test_workers_start_with_one_blas_thread(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment, "_init_worker", record_worker_env)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        assert experiment.run_experiment(tiny_comparison_plan(tmp_path), jobs=2) == 0
        seen = [json.loads(path.read_text()) for path in tmp_path.glob("env-*.json")]
        assert seen and all(env == experiment._WORKER_BLAS_ENV for env in seen)
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"

    def test_worker_pool_matches_sequential(self, tmp_path, monkeypatch):
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
        # the workers' one-thread BLAS settings do not leak into this process
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        assert os.environ["OMP_NUM_THREADS"] == "3"

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
    "fractional plan count": lambda d: (
        ["grid", "--plan", write_plan(d / "p.json", config={"num_updates": 4.5}),
         "--out", str(d / "out")],
        d / "out",
    ),
}


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

    def test_plan_records_reject_unknown_keys(self):
        with pytest.raises(ValueError, match="learning_rat"):
            experiment.config_from_dict({"learning_rat": 0.1})
        with pytest.raises(ValueError, match="beta_lr"):
            experiment.config_from_dict({"adaptation": {"beta_lr": 0.1}})
        with pytest.raises(ValueError, match="image_sid"):
            experiment.plan_from_dict({"dataset": {"image_sid": 3}})

    def test_plan_values_need_their_field_types(self):
        # an int passes where a float is wanted, and becomes one
        config = experiment.config_from_dict(
            {"learning_rate": 1, "adaptation": {"beta_learning_rate": 0}}
        )
        assert type(config.learning_rate) is float and config.learning_rate == 1.0
        assert type(config.adaptation.beta_learning_rate) is float
        for config in (
            {"num_updates": 4.5},
            {"num_hidden": True},
            {"learning_rate": "0.1"},
            {"algorithm": 1},
            {"adaptation": {"max_chains": 2.0}},
            {"adaptation": [0.1]},
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

    @pytest.mark.parametrize(
        "kwargs", [{"image_side": 0}, {"eval_size": -1}, {"data_seed": -1}], ids=str
    )
    def test_dataset_settings_validate(self, kwargs):
        with pytest.raises(ValueError):
            experiment.DatasetSettings(**kwargs)

    def test_seeds_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError):
            experiment.ExperimentPlan(
                runs=[experiment.PlannedRun("run", TrainConfig(), [0, -2])]
            )
