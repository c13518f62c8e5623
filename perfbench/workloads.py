"""Load generator: turns a workload name and seed into the input files the
program is handed (a plan file, a training config, frozen model parameters).

Standard library only, so the inputs do not depend on the program under
test: a later change to a preset or a default cannot change a workload.
The same (workload, seed) always writes the same bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# ci-scale comparison labels, as in experiment.comparison_plan(scale="ci").
_CI_LABELS = (
    ("sml", {"algorithm": "sml", "initial_num_chains": 1}),
    ("sml-pt-10", {"algorithm": "sml-pt", "initial_num_chains": 10}),
    ("sml-pt-20", {"algorithm": "sml-pt", "initial_num_chains": 20}),
    ("sml-pt-50", {"algorithm": "sml-pt", "initial_num_chains": 50}),
    ("sml-apt", {"algorithm": "sml-apt", "initial_num_chains": 10,
                 "adaptation": {"beta_learning_rate": 1e-4}}),
)
GRID_SEEDS_PER_LABEL = 2
GRID_UPDATES = 250
GRID_POST_STEPS = 50

FULL_UPDATES = 500
FULL_POST_STEPS = 100

APT_UPDATES = 3000

TINY_SHAPE = (4, 3)  # (num_visible, num_hidden): 16 visible states to enumerate
TINY_LADDER = (1.0, 0.6, 0.3, 0.0)
TINY_SWEEPS = 5_000

WORKLOADS = ("grid-ci", "full-pt50", "sampler-tiny", "apt-grow")


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _write_json(path: Path, record: dict) -> str:
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    return path.name


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's inputs under `directory`; return its description
    (file names relative to `directory`, plus the run shape)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    spec = {"workload": workload, "seed": seed}
    if workload == "grid-ci":
        dataset = {"image_side": 8, "data_seed": _seed(rng), "eval_size": 10_000}
        seeds = sorted(rng.sample(range(2**31), GRID_SEEDS_PER_LABEL))
        runs = []
        for label, fields in _CI_LABELS:
            config = {"learning_rate": 1e-3, "num_hidden": 5, "num_updates": GRID_UPDATES,
                      "post_sampling_steps": GRID_POST_STEPS, "eval_interval": 500}
            config.update(fields)
            runs.append({"label": label, "seeds": seeds, "config": config})
        spec["plan"] = _write_json(
            directory / "plan.json", {"dataset": dataset, "output_dir": ".", "runs": runs}
        )
    elif workload in ("full-pt50", "apt-grow"):
        if workload == "full-pt50":
            dataset = {"image_side": 28, "data_seed": _seed(rng), "eval_size": 10_000}
            config = {"algorithm": "sml-pt", "initial_num_chains": 50, "num_hidden": 10,
                      "learning_rate": 1e-3, "num_updates": FULL_UPDATES,
                      "post_sampling_steps": FULL_POST_STEPS, "eval_interval": 1000}
        else:
            # swap-rate floor 0.8 with checks every 100 updates keeps spawning
            # going through the run (2 -> ~12 chains in 3000 updates)
            dataset = {"image_side": 8, "data_seed": _seed(rng), "eval_size": 10_000}
            config = {"algorithm": "sml-apt", "initial_num_chains": 2, "num_hidden": 5,
                      "learning_rate": 1e-3, "num_updates": APT_UPDATES,
                      "post_sampling_steps": 0, "eval_interval": 500,
                      "adaptation": {"beta_learning_rate": 1e-3, "min_avg_swap_rate": 0.8,
                                     "spawn_check_interval": 100}}
        config["seed"] = _seed(rng)
        spec["config"] = _write_json(directory / "config.json", config)
        spec["dataset"] = _write_json(directory / "dataset.json", dataset)
    else:
        nv, nh = TINY_SHAPE
        params = {
            "weights": [[rng.uniform(-1.0, 1.0) for _ in range(nv)] for _ in range(nh)],
            "hidden_bias": [rng.uniform(-1.0, 1.0) for _ in range(nh)],
            "visible_bias": [rng.uniform(-1.0, 1.0) for _ in range(nv)],
        }
        spec["params"] = _write_json(directory / "params.json", params)
        spec.update(betas=list(TINY_LADDER), sweeps=TINY_SWEEPS,
                    ensemble_seed=_seed(rng), sweep_seed=_seed(rng))
    return spec
