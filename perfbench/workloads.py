"""The three stage workloads: set-up, the timed stage call, output checks,
the artifact digest, and the wrap points of the traced run.

Each workload builds its own run directory from the benchmark seed and then
calls one CLI stage command in-process with jobs=1, exactly as
``imukit <stage>`` would. Work sizes are fixed here so every stage call does
the same amount of work on every machine.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

import imukit.attack as attack
import imukit.attention_mask as attention_mask
import imukit.autodiff as autodiff
import imukit.diffusion.model as model_mod
import imukit.diffusion.training as training
import imukit.harness.pipeline as pipeline
import imukit.metrics as metrics
import imukit.ppm as ppm
from imukit.attack import AttackConfig
from imukit.diffusion.io import load_model, save_model
from imukit.diffusion.model import DenoiserModel, ModelConfig
from imukit.diffusion.schedule import build_schedule
from imukit.diffusion.training import TrainConfig
from imukit.harness.artifacts import read_delta, read_json
from imukit.harness.config import ExperimentConfig
from imukit.ppm import read_ppm

# the analytic imperceptibility floor at gamma = 0.03 (acceptance criterion 3)
PSNR_FLOOR_DB = 30.45
METRIC_COLUMNS = tuple(f"{kind}_{m}" for kind in ("defense", "imperceptibility")
                       for m in ("psnr", "ssim", "vifp", "percep_dist"))


def _save_initial_model(cfg):
    """Default-size random-init denoiser from the run seed, as a stage input."""
    spec = cfg.model
    sched = build_schedule(spec.T, spec.beta_min, spec.beta_max)
    mconfig = ModelConfig(image_size=spec.image_size, widths=spec.widths,
                          d_k=spec.d_k, d_text=spec.d_text, d_time=spec.d_time)
    model = DenoiserModel.init(mconfig, seed=cfg.seed, schedule=sched)
    paths = pipeline.run_paths(cfg)
    paths.model_dir.mkdir(parents=True, exist_ok=True)
    save_model(model, paths.model_bin)


def _canonical_bytes(path):
    """File bytes, with the wall-clock fields of JSON reports left out."""
    if path.suffix != ".json":
        return path.read_bytes()
    obj = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(obj, dict):
        obj.pop("wall_time_s", None)
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


class Workload:
    """One stage command on a run directory built from the seed."""

    name = ""
    unit = ""        # what stage_throughput counts
    check_unit = ""  # what attempted/failed count

    def config(self, seed, out_dir):
        raise NotImplementedError

    def prepare(self, cfg):
        """Set-up beyond rendering the dataset."""

    def stage(self, cfg):
        raise NotImplementedError

    def units(self, cfg):
        """Throughput units one stage call completes."""
        raise NotImplementedError

    def check(self, cfg):
        """Check the last stage call's outputs: (attempted, failed, problems)."""
        raise NotImplementedError

    def artifact_dir(self, paths):
        raise NotImplementedError

    def setup(self, cfg):
        pipeline.cmd_gen_data(cfg)
        self.prepare(cfg)

    def artifacts(self, cfg):
        root = self.artifact_dir(pipeline.run_paths(cfg))
        return sorted(p for p in root.rglob("*") if p.is_file())

    def digest(self, cfg):
        """sha256 over the stage's artifacts, wall-clock fields excluded."""
        root = pipeline.run_paths(cfg).root
        h = hashlib.sha256()
        for path in self.artifacts(cfg):
            data = _canonical_bytes(path)
            h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
        return h.hexdigest()

    def bytes_written(self, cfg):
        return sum(p.stat().st_size for p in self.artifacts(cfg))


class Immunize(Workload):
    """danp on an untrained default-size model: the B=1 taped attack path."""

    name = "immunize"
    unit = "attack iterations"
    check_unit = "images"
    images = 2
    iterations = 10

    def config(self, seed, out_dir):
        return ExperimentConfig(seed=seed, out_dir=out_dir, n_train=1,
                                n_test=self.images, methods=("danp",),
                                attack=AttackConfig(iterations=self.iterations))

    def prepare(self, cfg):
        _save_initial_model(cfg)

    def stage(self, cfg):
        pipeline.cmd_immunize(cfg, methods=("danp",))

    def units(self, cfg):
        return cfg.n_test * cfg.attack.iterations

    def artifact_dir(self, paths):
        return paths.immunize_dir("danp")

    def check(self, cfg):
        paths = pipeline.run_paths(cfg)
        gamma = cfg.attack.gamma
        problems = []
        for idx, item in enumerate(pipeline.load_split(paths, "test")):
            x0 = item.image.astype(np.float64)
            x_imu = read_ppm(paths.immunized_image("danp", idx)).astype(np.float64)
            delta, _ = read_delta(paths.delta_file("danp", idx))
            report = read_json(paths.attack_report("danp", idx))
            steps = delta.astype(np.float64) * 255.0
            mse = float(np.mean((x_imu - x0) ** 2))
            psnr = math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)
            trace = report["trace"]
            bad = []
            if not float(np.abs(delta).max()) <= gamma:
                bad.append("linf above gamma")
            if not float(np.abs(steps - np.rint(steps)).max()) <= 1e-3:
                bad.append("delta off the 1/255 grid")
            if x_imu.min() < 0.0 or x_imu.max() > 1.0:
                bad.append("x_imu outside [0, 1]")
            if not psnr >= PSNR_FLOOR_DB:
                bad.append(f"psnr {psnr:.2f} dB below {PSNR_FLOOR_DB}")
            if len(trace) != cfg.attack.iterations or not all(
                    math.isfinite(v) for e in trace for v in e.values()):
                bad.append("trace incomplete or non-finite")
            if bad:
                problems.append(f"image {idx}: " + ", ".join(bad))
        return cfg.n_test, len(problems), problems


class Train(Workload):
    """Training at B=64: large tensors, no attention capture, no Kapur."""

    name = "train"
    unit = "training samples"
    check_unit = "steps"
    steps = 40
    heldout_images = 8

    def config(self, seed, out_dir):
        return ExperimentConfig(seed=seed, out_dir=out_dir, n_train=40,
                                n_test=self.heldout_images, methods=("none",),
                                train=TrainConfig(steps=self.steps, batch_size=64))

    def stage(self, cfg):
        pipeline.cmd_train(cfg)

    def units(self, cfg):
        return cfg.train.steps * cfg.train.batch_size

    def artifact_dir(self, paths):
        return paths.model_dir

    def check(self, cfg):
        paths = pipeline.run_paths(cfg)
        report = read_json(paths.train_report)
        with open(paths.loss_curve, encoding="utf-8", newline="") as f:
            curve = list(csv.DictReader(f))
        losses = [float(r["train_loss"]) for r in curve]
        losses += [report["initial_loss"], report["final_loss"], report["final_heldout"]]
        bad = []
        if not all(math.isfinite(v) for v in losses):
            bad.append("non-finite loss")
        # each minibatch loss is at its own random timestep, so compare the
        # held-out loss (fixed timesteps, seeded noise) after step 1 and at the end
        elif not report["final_heldout"] < float(curve[0]["heldout_loss"]):
            bad.append(f"held-out loss {report['final_heldout']} not below "
                       f"{curve[0]['heldout_loss']} after step 1")
        try:
            n_params = load_model(paths.model_bin).n_params()
        except (OSError, ValueError) as e:
            bad.append(f"model.bin does not reload: {e}")
        else:
            if n_params != report["n_params"]:
                bad.append("reloaded model has a different parameter count")
        steps = cfg.train.steps
        return steps, steps if bad else 0, bad


class Evaluate(Workload):
    """Untaped forwards only: edits, metrics, PPM reads and heatmaps."""

    name = "evaluate"
    unit = "results rows"
    check_unit = "rows"
    images = 2
    methods = ("none", "random-noise")

    def config(self, seed, out_dir):
        return ExperimentConfig(seed=seed, out_dir=out_dir, n_train=1,
                                n_test=self.images, methods=self.methods,
                                edit_prompts="both")

    def prepare(self, cfg):
        _save_initial_model(cfg)
        pipeline.cmd_immunize(cfg, methods=self.methods)

    def stage(self, cfg):
        pipeline.cmd_evaluate(cfg, methods=self.methods)

    def units(self, cfg):
        return cfg.n_test * (1 + cfg.n_unseen) * len(self.methods)

    def artifact_dir(self, paths):
        return paths.evaluate_dir

    def check(self, cfg):
        paths = pipeline.run_paths(cfg)
        expected = self.units(cfg)
        rows = read_json(paths.results_json)["rows"]
        with open(paths.results_csv, encoding="utf-8", newline="") as f:
            csv_rows = sum(1 for _ in csv.DictReader(f))
        problems = []
        if len(rows) != expected or csv_rows != expected:
            problems.append(f"{len(rows)} json / {csv_rows} csv rows, expected {expected}")
        failed = abs(expected - len(rows))
        for row in rows:
            bad = [c for c in METRIC_COLUMNS if not math.isfinite(row[c])]
            if row["method"] == "none" and row["defense_psnr"] != metrics.PSNR_CAP_DB:
                bad.append(f"none row defense_psnr {row['defense_psnr']} != cap")
            if bad:
                failed += 1
                problems.append(f"row {row['image']}/{row['prompt_idx']}/"
                                f"{row['method']}: " + ", ".join(bad))
        return expected, min(failed, expected), problems


WORKLOADS = {w.name: w for w in (Immunize(), Train(), Evaluate())}


def layer_targets():
    """Where the traced run wraps each layer: (owner, attribute, span, before, after).

    Every function is wrapped under the name its caller looks it up by, so
    a module that imports a name gets its own entry.
    """
    def nodes(tape, root):
        return len(tape.nodes)

    def nonempty_bins(hist):
        return int(np.count_nonzero(hist.bins))

    def degenerate(mask):
        return int(mask.degenerate)

    def iterations(x0, prompt, model, cfg):
        return cfg.iterations

    P = pipeline
    return [
        (autodiff.Tape, "backward", "autodiff.backward", nodes, None),
        (model_mod.DenoiserModel, "forward_batch", "diffusion.model.forward", None, None),
        (attack, "aggregate", "attention_mask.aggregate", None, None),
        (P, "aggregate", "attention_mask.aggregate", None, None),
        (attack, "make_mask", "attention_mask.make_mask", None, degenerate),
        (P, "make_mask", "attention_mask.make_mask", None, degenerate),
        (attention_mask, "kapur_threshold", "attention_mask.kapur", nonempty_bins, None),
        (P, "dump_debug", "attention_mask.dump_debug", None, None),
        (attack, "total_loss", "attack.total_loss", None, None),
        (P, "immunize", "attack.immunize", iterations, None),
        (P, "train", "diffusion.training.train", None, None),
        (training.Adam, "step", "diffusion.training.adam", None, None),
        (training, "evaluate_loss", "diffusion.training.evaluate_loss", None, None),
        (P, "edit", "diffusion.sampling.edit", None, None),
        (metrics, "psnr", "metrics.psnr", None, None),
        (metrics, "ssim", "metrics.ssim", None, None),
        (metrics, "vifp", "metrics.vifp", None, None),
        (metrics, "percep_dist", "metrics.percep_dist", None, None),
        (P, "read_ppm", "ppm.read", None, None),
        (P, "write_ppm", "ppm.write", None, None),
        (ppm, "write_ppm", "ppm.write", None, None),
        (P, "load_model", "diffusion.io.load_model", None, None),
        (P, "save_model", "diffusion.io.save_model", None, None),
        (P, "read_json", "harness.artifacts.read_json", None, None),
        (P, "write_json", "harness.artifacts.write_json", None, None),
        (P, "write_delta", "harness.artifacts.write_delta", None, None),
        (P, "write_csv", "harness.tables.write_csv", None, None),
        (P, "write_results", "harness.tables.write_results", None, None),
    ]
