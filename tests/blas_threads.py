"""The sha256 of every blocked product of the exact evaluation over a grid of
shapes, and of the sampler's kernels at the default bounds, printed as one
JSON object by case.

`tests/test_rbm.py` runs this file under OPENBLAS_NUM_THREADS=1 and =2 and
compares the digests: the bits must not depend on the thread count. By hand:

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tests/blas_threads.py
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from rbmpt import experiment, rbm

from oracles import packed_distinct_rows, random_params

HIDDEN = (1, 3, 5, 8, 10, 12, 25)
VISIBLE = (16, 64, 100, 784)
ROWS = (17, 1000, 6912)

# (image side, hidden units, weight scale) of the ci and full presets
SNAPSHOT_SHAPES = {"ci": (8, 5, 1.0), "full": (28, 10, 0.3)}
SNAPSHOT_DRAWS = range(31, 36)

# the sampler at the full preset's shape: `max_chains`' default of 100
# chains, and 64 rows for `hidden_conditional`
SAMPLER_CHAINS = 100
CONDITIONAL_ROWS = 64

# log Z and the likelihood enumerate the smaller layer: 2^25 states is too
# many for a test, so they run where that layer has at most 12 units
ENUMERATED_UNITS = 12


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def blocked_digests() -> dict[str, str]:
    """Case name -> sha256 of `_row_products` over the shape grid, of
    `exact_log_partition` and `exact_log_likelihood` where the grid's
    smaller layer is enumerable, and of all three on five draws at each
    preset's snapshot shape."""
    out = {}
    for nh in HIDDEN:
        for nv in VISIBLE:
            rng = np.random.default_rng([nh, nv])
            p = random_params(rng, nv, nh, scale=0.3)
            if min(nh, nv) <= ENUMERATED_UNITS:
                out[f"log Z {nh}x{nv}"] = digest(rbm.exact_log_partition(p))
            for count in ROWS:
                rows = packed_distinct_rows(rng.random((count, nv)) < 0.5)
                out[f"products {nh}x{nv} rows {count}"] = digest(
                    rbm._row_products(p.weights, rows.rows)
                )
                if min(nh, nv) <= ENUMERATED_UNITS:
                    out[f"likelihood {nh}x{nv} rows {count}"] = digest(
                        rbm.exact_log_likelihood(p, rows)
                    )
    for scale, (image_side, nh, weight_scale) in SNAPSHOT_SHAPES.items():
        data = experiment.DatasetSettings(image_side=image_side, eval_size=10_000)
        rows = experiment.build_dataset(data)[1]
        for seed in SNAPSHOT_DRAWS:
            p = random_params(np.random.default_rng(seed), image_side**2, nh, scale=weight_scale)
            name = f"{scale} snapshot draw {seed}"
            out[f"{name} products"] = digest(rbm._row_products(p.weights, rows.rows))
            out[f"{name} log Z"] = digest(rbm.exact_log_partition(p))
            out[f"{name} likelihood"] = digest(rbm.exact_log_likelihood(p, rows))
    out.update(sampler_digests())
    return out


def sampler_digests() -> dict[str, str]:
    """Case name -> sha256 of a two-step Gibbs sweep of `SAMPLER_CHAINS`
    chains at 28x28 with 10 hidden units (its draws and its kept visible
    pre-activation), of the energies of its states, and of
    `hidden_conditional` on `CONDITIONAL_ROWS` rows, on five draws."""
    out = {}
    image_side, nh, weight_scale = SNAPSHOT_SHAPES["full"]
    nv, m = image_side**2, SAMPLER_CHAINS
    for seed in SNAPSHOT_DRAWS:
        rng = np.random.default_rng(seed)
        p = random_params(rng, nv, nh, scale=weight_scale)
        visible = (rng.random((m, nv)) < 0.5).astype(np.float64)
        hidden = (rng.random((m, nh)) < 0.5).astype(np.float64)
        uniforms = rng.random(2 * m * (nh + nv))
        betas = np.linspace(1.0, 0.0, m)
        v, h, kept = rbm.gibbs_sweep_chains(p, visible, hidden, betas, 2, uniforms)
        name = f"sampler {m} chains draw {seed}"
        out[f"{name} states"] = digest(np.concatenate([v.ravel(), h.ravel()]))
        out[f"{name} pre-activation"] = digest(kept)
        out[f"{name} energies"] = digest(rbm.energies(v, h, kept, p.hidden_bias[:, None]))
        out[f"{name} hidden conditional"] = digest(
            rbm.hidden_conditional(p, visible[:CONDITIONAL_ROWS])
        )
    return out


if __name__ == "__main__":
    print(json.dumps(blocked_digests()))
