"""Reads a metrics CSV written by `training.write_metrics_csv` back into
`MetricsRecord`s, so tests can check the rows a run logged."""

from __future__ import annotations

import csv

from rbmpt.training import MetricsRecord


def read_metrics_csv(path) -> list[MetricsRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            records.append(
                MetricsRecord(
                    update_index=int(row["update_index"]),
                    wall_clock_seconds=float(row["wall_clock_seconds"]),
                    train_loglik=(
                        None if row["train_loglik"] == "n/a" else float(row["train_loglik"])
                    ),
                    tau_hat=float(row["tau_hat"]),
                    avg_swap_rate=float(row["avg_swap_rate"]),
                    num_chains=int(row["num_chains"]),
                    betas=[float(x) for x in row["betas"].split(";") if x],
                    fup=[float(x) for x in row["fup"].split(";") if x],
                    pair_swap_rates=[
                        float(x) for x in row["pair_swap_rates"].split(";") if x
                    ],
                )
            )
    return records
