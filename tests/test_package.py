"""The package's surface: what `import rbmpt` loads, and the functions that
the benchmark's tracer (`perfbench/tracer.py`) wraps by module and name."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import rbmpt

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_import_loads_no_submodule():
    # a fresh interpreter on the package copy this test imported
    package_root = os.path.dirname(os.path.dirname(rbmpt.__file__))
    code = "import sys, rbmpt; print(sorted(m for m in sys.modules if m.startswith('rbmpt.')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.stdout.strip() == "[]"


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
