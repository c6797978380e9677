"""Results tables: CSV with a header row plus an annotated JSON mirror."""

from __future__ import annotations

import csv

import numpy as np

from imukit.harness.artifacts import write_json
from imukit.metrics import DEFENSE_DIRECTIONS
from imukit.ppm import atomic_write

METRIC_NAMES = ("psnr", "ssim", "vifp", "percep_dist")

RESULT_COLUMNS = (
    ["image", "prompt_idx", "prompt", "method"]
    + [f"defense_{m}" for m in METRIC_NAMES]
    + [f"imperceptibility_{m}" for m in METRIC_NAMES]
)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def write_csv(path, columns, rows):
    with atomic_write(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(row[c]) for c in columns])


def aggregate_rows(rows, methods):
    """Per-method mean and median of every metric column."""
    out = {}
    for method in methods:
        sub = [r for r in rows if r["method"] == method]
        if not sub:
            continue
        agg = {"n": len(sub)}
        for kind in ("defense", "imperceptibility"):
            for m in METRIC_NAMES:
                vals = np.array([r[f"{kind}_{m}"] for r in sub], dtype=np.float64)
                agg[f"{kind}_{m}_mean"] = float(vals.mean())
                agg[f"{kind}_{m}_median"] = float(np.median(vals))
        out[method] = agg
    return out


def write_results(csv_path, json_path, rows, methods):
    write_csv(csv_path, RESULT_COLUMNS, rows)
    write_json(json_path, {
        "directions": {
            "defense": dict(DEFENSE_DIRECTIONS),
            "note": "defense compares the two edit outputs; for "
                    "imperceptibility (source vs immunized) read psnr/ssim/vifp "
                    "higher-is-closer and percep_dist lower-is-closer",
        },
        "rows": rows,
        "aggregates": aggregate_rows(rows, methods),
    })
