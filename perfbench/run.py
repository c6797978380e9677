"""imukit stage benchmark: immunize, train and evaluate workloads.

Run from the repository root:

    python3 perfbench/run.py --workload immunize --seed 0 --seconds 35 --trace 0

A run renders its inputs from --seed and sets up its run directory several
times. Each set-up is timed together with a fresh interpreter importing the
CLI, and set-up time is the median. Then the run calls the workload's stage
command in-process until --seconds have passed. The first call warms caches
and is not timed. Every call's outputs are checked and digested. The last line of
standard output is one JSON object: with --trace 0 it holds the end-to-end
metrics; with --trace 1 the calls alternate between untraced and traced,
and it holds the per-layer metrics. Full results, the machine record and the
raw spans go to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import END, NAME, PARENT, START, VALUE, Tracer, percentile, self_times, summarize

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUPS = 3
MIN_TIMED_CALLS = 3
STAGE_SPAN = "harness.pipeline.stage"

END_TO_END = {
    "setup_s": "s",
    "stage_throughput": "units/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "autodiff.backward_ms_p50": "ms",
    "autodiff.backward_share": "ratio",
    "autodiff.tape_nodes_p50": "count",
    "diffusion.model.forward_ms_p50": "ms",
    "diffusion.model.forward_calls": "count",
    "diffusion.model.forward_share": "ratio",
    "attention_mask.aggregate_ms_p50": "ms",
    "attention_mask.make_mask_ms_p50": "ms",
    "attention_mask.kapur_ms_p50": "ms",
    "attention_mask.kapur_share": "ratio",
    "attention_mask.nonempty_bins_p50": "count",
    "attention_mask.degenerate_masks": "count",
    "attack.total_loss_self_ms_p50": "ms",
    "attack.immunize_self_ms_per_iter": "ms",
    "attack.timestep_evals": "count",
    "diffusion.training.train_self_share": "ratio",
    "diffusion.training.adam_ms_p50": "ms",
    "diffusion.training.evaluate_loss_ms": "ms",
    "diffusion.sampling.edit_ms_p50": "ms",
    "diffusion.sampling.edit_ms_p90": "ms",
    "diffusion.sampling.edit_self_share": "ratio",
    "metrics.psnr_ms_p50": "ms",
    "metrics.ssim_ms_p50": "ms",
    "metrics.vifp_ms_p50": "ms",
    "metrics.percep_dist_ms_p50": "ms",
    "metrics.percep_forward_calls": "count",
    "ppm.read_ms_total": "ms",
    "ppm.write_ms_total": "ms",
    "harness.artifacts.bytes_written": "bytes",
    "diffusion.io.load_model_ms": "ms",
    "diffusion.io.save_model_ms": "ms",
    "harness.pipeline.self_share": "ratio",
    "process.cpu_per_wall": "ratio",
    "trace.overhead": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_record():
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _openblas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
    }


def import_seconds(src):
    """Wall time of a fresh interpreter importing the CLI, as a user pays it."""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import imukit.harness.cli"],
                   env=dict(os.environ, PYTHONPATH=path), check=True)
    return time.perf_counter() - t


def run_call(workload, cfg, tracer=None, targets=None):
    """One stage call, then its output checks; tracing covers the call only."""
    stage = workload.stage
    if tracer is not None:
        tracer.install(targets)
        stage = tracer.wrap(STAGE_SPAN, stage)
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        stage(cfg)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    attempted, failed, problems = workload.check(cfg)
    return {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "units": workload.units(cfg), "attempted": attempted, "failed": failed,
            "problems": problems, "digest": workload.digest(cfg)}


def layer_metrics(spans, n_calls, bytes_written):
    """Span-derived per-layer metrics of n_calls traced stage calls."""
    selfs = self_times(spans)
    durs, self_ms, values = {}, {}, {}
    for rec, s in zip(spans, selfs):
        durs.setdefault(rec[NAME], []).append((rec[END] - rec[START]) / 1e6)
        self_ms.setdefault(rec[NAME], []).append(s / 1e6)
        if rec[VALUE] is not None:
            values.setdefault(rec[NAME], []).append(rec[VALUE])
    stage_ns = sum(r[END] - r[START] for r in spans if r[NAME] == STAGE_SPAN)

    def p50(name, table=durs):
        return statistics.median(table[name]) if name in table else 0.0

    def share(name):
        return sum(self_ms.get(name, ())) * 1e6 / stage_ns

    def per_call(name):
        return len(durs.get(name, ())) / n_calls

    def total_ms_per_call(name):
        return sum(durs.get(name, ())) / n_calls

    percep = durs.get("metrics.percep_dist", ())
    percep_forwards = sum(
        1 for r in spans if r[NAME] == "diffusion.model.forward"
        and r[PARENT] >= 0 and spans[r[PARENT]][NAME] == "metrics.percep_dist")
    iterations = sum(values.get("attack.immunize", ()))
    edits = durs.get("diffusion.sampling.edit")
    return {
        "autodiff.backward_ms_p50": p50("autodiff.backward"),
        "autodiff.backward_share": share("autodiff.backward"),
        "autodiff.tape_nodes_p50": p50("autodiff.backward", values),
        "diffusion.model.forward_ms_p50": p50("diffusion.model.forward"),
        "diffusion.model.forward_calls": per_call("diffusion.model.forward"),
        "diffusion.model.forward_share": share("diffusion.model.forward"),
        "attention_mask.aggregate_ms_p50": p50("attention_mask.aggregate"),
        "attention_mask.make_mask_ms_p50": p50("attention_mask.make_mask"),
        "attention_mask.kapur_ms_p50": p50("attention_mask.kapur"),
        "attention_mask.kapur_share": share("attention_mask.kapur"),
        "attention_mask.nonempty_bins_p50": p50("attention_mask.kapur", values),
        "attention_mask.degenerate_masks":
            sum(values.get("attention_mask.make_mask", ())) / n_calls,
        "attack.total_loss_self_ms_p50": p50("attack.total_loss", self_ms),
        "attack.immunize_self_ms_per_iter":
            sum(self_ms.get("attack.immunize", ())) / iterations if iterations else 0.0,
        "attack.timestep_evals": per_call("attack.total_loss"),
        "diffusion.training.train_self_share": share("diffusion.training.train"),
        "diffusion.training.adam_ms_p50": p50("diffusion.training.adam"),
        "diffusion.training.evaluate_loss_ms": p50("diffusion.training.evaluate_loss"),
        "diffusion.sampling.edit_ms_p50": p50("diffusion.sampling.edit"),
        "diffusion.sampling.edit_ms_p90": percentile(edits, 90.0) if edits else 0.0,
        "diffusion.sampling.edit_self_share": share("diffusion.sampling.edit"),
        "metrics.psnr_ms_p50": p50("metrics.psnr"),
        "metrics.ssim_ms_p50": p50("metrics.ssim"),
        "metrics.vifp_ms_p50": p50("metrics.vifp"),
        "metrics.percep_dist_ms_p50": p50("metrics.percep_dist"),
        "metrics.percep_forward_calls": percep_forwards / len(percep) if percep else 0.0,
        "ppm.read_ms_total": total_ms_per_call("ppm.read"),
        "ppm.write_ms_total": total_ms_per_call("ppm.write"),
        "harness.artifacts.bytes_written": bytes_written,
        "diffusion.io.load_model_ms": p50("diffusion.io.load_model"),
        "diffusion.io.save_model_ms": p50("diffusion.io.save_model"),
        "harness.pipeline.self_share": share(STAGE_SPAN),
    }


def measure(workload, cfg, seconds, targets=None):
    """Stage calls until `seconds` have passed: a warm-up, then timed calls.

    With wrap targets, timed calls alternate untraced and traced, starting
    untraced, and the tracer is returned with the calls.
    """
    trace = targets is not None
    tracer = None
    if trace:
        tracer = Tracer(f"{workload.name}-{cfg.seed}-{os.getpid()}-{time.time_ns()}")
    deadline = time.perf_counter() + seconds
    calls = [run_call(workload, cfg)]
    needed = 4 if trace else MIN_TIMED_CALLS  # traced: two calls of each kind
    timed = 0
    while timed < needed or time.perf_counter() < deadline:
        traced = trace and timed % 2 == 1
        calls.append(run_call(workload, cfg, tracer if traced else None, targets))
        timed += 1
    return calls, tracer


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "imukit" / "__init__.py").is_file():
        print(f"perfbench: no imukit sources at {src}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)

    try:
        # the stage commands print progress; keep stdout for the result
        with contextlib.redirect_stdout(sys.stderr):
            setup_times = []
            for k in range(SETUPS):
                cfg = workload.config(args.seed, str(work / f"setup{k}"))
                t = import_seconds(src)
                t0 = time.perf_counter()
                workload.setup(cfg)
                setup_times.append(t + time.perf_counter() - t0)
            targets = workloads.layer_targets() if args.trace else None
            calls, tracer = measure(workload, cfg, args.seconds, targets)
        bytes_written = workload.bytes_written(cfg)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untimed, timed = calls[0], calls[1:]
    untraced = [c for c in timed if not c["traced"]]
    digests = sorted({c["digest"] for c in calls})
    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    problems = [p for c in calls for p in c["problems"]]
    if len(digests) != 1:
        problems.append(f"stage outputs differ between calls: {digests}")
    correct = failed == 0 and not problems

    if args.trace:
        traced = [c for c in timed if c["traced"]]
        metrics = layer_metrics(tracer.spans, len(traced), bytes_written)
        metrics["process.cpu_per_wall"] = statistics.median(
            c["cpu_s"] / c["wall_s"] for c in untraced)
        metrics["trace.overhead"] = (statistics.median(c["wall_s"] for c in traced)
                                     / statistics.median(c["wall_s"] for c in untraced))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "stage_throughput": statistics.median(c["units"] / c["wall_s"] for c in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}

    machine = machine_record()
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "throughput_unit": workload.unit,
        "check_unit": workload.check_unit, "machine": machine,
        "setup_times_s": setup_times,
        "digest": digests[0] if len(digests) == 1 else digests,
        "calls": [{k: v for k, v in c.items() if k != "problems"} for c in calls],
        "problems": problems, "result": result,
    }
    if tracer is not None:
        record["run_id"] = tracer.run_id
        record["span_summary"] = summarize(tracer.spans)
        record["spans"] = tracer.spans
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{tag}.json", "w", encoding="utf-8") as f:
        json.dump(record, f)

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"digest {record['digest']} over {len(calls)} {workload.name} calls "
          f"({untimed['units']} {workload.unit} each)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
