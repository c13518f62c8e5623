"""Span recorder for the traced run.

Wraps the public functions of each layer module at every attribute a caller
looks up (a function imported by name into another module is wrapped there
too). Each call is one span: name, start, end, parent span and self time,
where self time is the span minus the wrapped calls made inside it. Spans
stay in memory; `fold` turns a repetition's spans into per-function totals.
Wrappers pass arguments and return values through unchanged, and a function
that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# Layers are the program's modules; the functions are the ones whose self
# time an optimisation of that layer should move.
LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("experiment", "run_experiment"),
    ("experiment", "execute_run"),
    ("experiment", "build_dataset"),
    ("training", "train"),
    ("training", "sml_update"),
    ("dataset", "sample_batch"),
    ("tempering", "deo_sweep"),
    ("tempering", "update_flow_histograms"),
    ("tempering", "f_up"),
    ("adaptation", "adapt_betas"),
    ("adaptation", "maybe_spawn"),
    ("rbm", "gibbs_sweep_chains"),
    ("rbm", "energies"),
    ("rbm", "exact_log_likelihood"),
)
FUNCTION_NAMES = tuple(f"{layer}.{name}" for layer, name in LAYER_FUNCTIONS)


def _gibbs_macs(args, kwargs, counts):
    # two (M x nh x nv) products per Gibbs step
    params, visible = args[0], args[1] if len(args) > 1 else kwargs["visible"]
    steps = args[4] if len(args) > 4 else kwargs["steps"]
    counts["rbm.gibbs_sweep_chains.macs"] += 2 * steps * visible.shape[0] * params.weights.size


def _energies_macs(args, kwargs, counts):
    params, visible = args[0], args[1] if len(args) > 1 else kwargs["visible"]
    nh, nv = params.weights.shape
    counts["rbm.energies.macs"] += visible.shape[0] * (nh * nv + nh + nv)


def _deo_chains(args, kwargs, counts):
    ensemble = args[0] if args else kwargs["ensemble"]
    counts["tempering.deo_sweep.chains"] += len(ensemble.betas)


# Counts computed from argument shapes at the call boundary.
_HOOKS = {
    "rbm.gibbs_sweep_chains": _gibbs_macs,
    "rbm.energies": _energies_macs,
    "tempering.deo_sweep": _deo_chains,
}


PACKAGE = "rbmpt"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.hook_errors: set[str] = set()
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                try:
                    hook(args, kwargs, counts)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.hook_errors.add(name)
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0]] = (name, start, end, parent, end - start - frame[1])

        return wrapper

    def install(self) -> None:
        """Replace every module attribute bound to a traced function."""
        homes = {}
        for layer, _ in LAYER_FUNCTIONS:
            try:
                homes[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                homes[layer] = None
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        self.absent = []
        for layer, fname in LAYER_FUNCTIONS:
            original = getattr(homes[layer], fname, None)
            if not callable(original):
                self.absent.append(f"{layer}.{fname}")
                continue
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def fold(self) -> tuple[Counter, Counter, Counter]:
        """Calls and self seconds per function, plus the hook counts, for the
        spans recorded since the last fold; clears them."""
        calls, self_s = Counter(), Counter()
        for name, _start, _end, _parent, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        counts = Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return calls, self_s, counts

    def write_spans(self, path) -> None:
        """Dump the spans held in memory, one CSV line each."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,self_s\n")
            for i, (name, start, end, parent, own) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{own!r}\n")
