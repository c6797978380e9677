"""Measure the immunize stage at each cap on taped rows per model pass.

    PYTHONPATH=src python tools/attack_rows.py [--rows 2,4,6,8] [--images 6]
        [--iterations 10] [--repeats 3] [--seed 0]

Builds one run directory in a temporary folder: the dataset of a default
config with ``--images`` test images, and a random-init default-size model
as the stage's input (no training). A cap runs a first lockstep chunk of
min(cap, images) images at max(1, cap // chunk) timesteps per pass, at most
all of them, so caps at or above ``--images`` can run the same rows per
pass; each distinct row count is measured once, at the first cap that runs
it. For each repeat and each measured cap, a fresh interpreter sets
``pipeline.ATTACK_ROWS`` to the cap and runs ``cmd_immunize`` for danp
once, serially, at ``--iterations`` iterations. Each run reports the
process's peak RSS before the stage and after it (``ru_maxrss``), and the
stage's seconds per image-iteration. The table gives every cap with the
rows per pass it runs and the median over repeats of its row count; the
caps of one repeat run back to back, so the host's drift spreads over all
of them alike.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def _config(out_dir, images, iterations, seed):
    from imukit.attack import AttackConfig
    from imukit.harness.config import ExperimentConfig

    return ExperimentConfig(seed=seed, out_dir=str(out_dir), n_train=1,
                            n_test=images, methods=("danp",),
                            attack=AttackConfig(iterations=iterations))


def rows_per_pass(cap, images, timesteps):
    """Taped rows of the stage's first model pass at a cap: a chunk of
    min(cap, images) images at max(1, cap // chunk) of the timesteps."""
    chunk = min(cap, images)
    return chunk * min(max(1, cap // chunk), timesteps)


def _prepare(cfg):
    """The dataset and a random-init default-size model, as stage inputs."""
    from imukit.diffusion.io import save_model
    from imukit.diffusion.model import DenoiserModel
    from imukit.harness import pipeline

    pipeline.cmd_gen_data(cfg)
    mconfig, schedule = cfg.model.build()
    paths = pipeline.run_paths(cfg)
    paths.model_dir.mkdir(parents=True, exist_ok=True)
    save_model(DenoiserModel.init(mconfig, seed=cfg.seed, schedule=schedule),
               paths.model_bin)


def _peak_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(rows, out_dir, images, iterations, seed):
    """One stage call at a row cap, in this process; prints one JSON line."""
    from imukit.harness import pipeline

    cfg = _config(out_dir, images, iterations, seed)
    pipeline.ATTACK_ROWS = rows
    before = _peak_mib()
    t0 = time.perf_counter()
    pipeline.cmd_immunize(cfg, methods=("danp",))
    seconds = time.perf_counter() - t0
    print(json.dumps({"rows": rows, "before_mib": before, "peak_mib": _peak_mib(),
                      "s_per_image_iter": seconds / (images * iterations)}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", default="2,4,6,8")
    parser.add_argument("--images", type=int, default=6)
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure is not None:
        measure(args.measure, args.out, args.images, args.iterations, args.seed)
        return 0

    from imukit.attack import resolve_timesteps

    caps = [int(r) for r in args.rows.split(",")]
    with tempfile.TemporaryDirectory(prefix="attack_rows_") as out:
        cfg = _config(out, args.images, args.iterations, args.seed)
        timesteps = len(resolve_timesteps(cfg.attack, cfg.model.build()[1]))
        rows_of = {cap: rows_per_pass(cap, args.images, timesteps) for cap in caps}
        first_cap = {}
        for cap in caps:
            first_cap.setdefault(rows_of[cap], cap)
        results = {rows: [] for rows in first_cap}
        _prepare(cfg)
        for _ in range(args.repeats):
            for rows, cap in first_cap.items():
                run = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--measure", str(cap), "--out", out,
                     "--images", str(args.images), "--iterations", str(args.iterations),
                     "--seed", str(args.seed)],
                    check=True, capture_output=True, text=True)
                results[rows].append(json.loads(run.stdout.strip().splitlines()[-1]))

    print(f"immunize stage, danp, {args.images} images x {args.iterations} "
          f"iterations, default model, medians of {args.repeats} fresh processes")
    print(f"{'cap':>4}  {'rows/pass':>9}  {'before MiB':>10}  {'peak MiB':>9}  "
          f"{'ms/image-iter':>13}")
    for cap in caps:
        rs = results[rows_of[cap]]
        same = "" if first_cap[rows_of[cap]] == cap else \
            f"  (measured at cap {first_cap[rows_of[cap]]})"
        print(f"{cap:>4}  {rows_of[cap]:>9}  "
              f"{statistics.median(r['before_mib'] for r in rs):>10.1f}  "
              f"{statistics.median(r['peak_mib'] for r in rs):>9.1f}  "
              f"{1000 * statistics.median(r['s_per_image_iter'] for r in rs):>13.1f}"
              f"{same}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
