"""The package's surface: what `import rbmpt` loads, and the functions that
the benchmark's tracer (`perfbench/tracer.py`) wraps by module and name."""

import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import rbmpt

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
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
