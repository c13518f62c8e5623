"""The package's surface: what `import rbmpt` loads, and the functions that
the benchmark's tracer (`perfbench/tracer.py`) wraps by module and name."""

import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import rbmpt
from rbmpt import dataset, rbm, tempering, training

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module


def loaded_modules(statement: str) -> list[str]:
    """The sorted names in `sys.modules` after `statement` runs in a fresh
    interpreter on the package copy this test imported."""
    package_root = os.path.dirname(os.path.dirname(rbmpt.__file__))
    code = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    return json.loads(proc.stdout)


def test_import_loads_no_submodule():
    assert [m for m in loaded_modules("import rbmpt") if m.startswith("rbmpt.")] == []


def test_cli_import_loads_no_process_pool():
    # only `run_experiment` with jobs > 1 loads the pool, and nothing that
    # `rbmpt.cli` imports loads any part of concurrent.futures
    loaded = loaded_modules("import rbmpt.cli")
    assert "rbmpt.experiment" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("multiprocessing", "concurrent")] == []


def test_scipy_loads_at_the_first_logistic():
    every_module = "import " + ", ".join(
        f"rbmpt.{info.name}" for info in pkgutil.iter_modules(rbmpt.__path__)
    )
    loaded = loaded_modules(every_module)
    assert "rbmpt.cli" in loaded and "rbmpt.rbm" in loaded
    deferred = ("scipy", "multiprocessing", "concurrent.futures")
    assert [m for m in loaded if m.startswith(deferred)] == []
    # the first call goes through the stub that imports scipy, and gets
    # expit's bits; the stub then leaves the module bound to the ufunc
    first_call = (
        f"{every_module}\n"
        "import numpy as np; from rbmpt import rbm\n"
        "rng = np.random.default_rng(0)\n"
        "p = rbm.RbmParams(rng.normal(size=(3, 4)), rng.normal(size=3), np.zeros(4))\n"
        "visible = (rng.random((5, 4)) < 0.5).astype(float)\n"
        "got = rbm.hidden_conditional(p, visible)\n"
        "expit = sys.modules['scipy.special'].expit\n"
        "assert rbm.expit is expit\n"
        "want = expit(visible @ p.weights.T + p.hidden_bias)\n"
        "assert got.dtype == want.dtype and got.tobytes() == want.tobytes()"
    )
    assert "scipy.special" in loaded_modules(first_call)


def test_tracer_finds_every_traced_function():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = {(mod.__name__, attr) for mod, attr, _ in tracer._patched}
        assert tracer.absent == []
        for layer, name in tracer_module.LAYER_FUNCTIONS:
            assert (f"rbmpt.{layer}", name) in patched
    finally:
        tracer.uninstall()
    for mod_name, attr in patched:
        assert not hasattr(getattr(sys.modules[mod_name], attr), "__wrapped__")


def sweep_and_train() -> list[bytes]:
    """What a lone `deo_sweep` and a two-run `train_lockstep`, which sweeps
    a stack, leave: the ensemble's arrays, and each run's metrics rows and
    parameters."""
    rng = np.random.default_rng(5)
    params = rbm.RbmParams(rng.normal(size=(3, 4)), rng.normal(size=3), rng.normal(size=4))
    ensemble = tempering.Ensemble.create(np.linspace(1.0, 0.0, 4), 4, 3, rng)
    for _ in range(10):
        tempering.deo_sweep(ensemble, params, 1, rng)
    out = [getattr(ensemble, name).tobytes() for name in ("visible", "hidden", "labels")]
    spec = dataset.MixtureSpec(
        (rng.random((2, 9)) < 0.5).astype(float), np.array([0.5, 0.5]), np.array([0.05, 0.1])
    )
    sampler = dataset.BatchSampler(spec)
    configs = [
        training.TrainConfig(
            algorithm="sml-pt", learning_rate=1e-2, num_updates=30, minibatch_size=4,
            initial_num_chains=4, num_hidden=3, eval_interval=10, seed=seed,
        )
        for seed in (1, 2)
    ]
    for result in training.train_lockstep(configs, sampler):
        out.append(repr([record.to_csv_row() for record in result.metrics]).encode())
        out.append(result.params.flat.tobytes())
    return out


def test_traced_sweeps_keep_their_bits():
    # the traced benchmark run wraps every traced name, so a stacked sweep's
    # energies go through the wrapper too; whether or not a counting hook
    # reads the arguments, the wrapped calls must run and return the bits
    # they return untraced
    want = sweep_and_train()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        got = sweep_and_train()
    finally:
        tracer.uninstall()
    # every sweep of four chains proposes a pair, so each calls `energies`
    calls, _, _ = tracer.fold()
    assert calls["tempering.deo_sweep"] == calls["rbm.energies"] == 10 + 30
    assert got == want
