"""Experiment orchestration: dataset, training, immunization, evaluation,
ablations, and the merged report.

Every artifact lives under out_dir/<config-hash>/ so results can never be
compared across stale configurations. All randomness is derived from the run
seed through fixed-role seed sequences, which makes each stage reproducible
in isolation and the whole pipeline byte-deterministic.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from imukit.attack import (
    PerturbationState, immunize, immunize_batch, random_noise_delta, resolve_timesteps,
)
from imukit.attention_mask import aggregate, dump_debug, make_mask
from imukit.autodiff import Tensor
from imukit.diffusion.dataset import (
    SPLIT_TEST, SPLIT_TRAIN, make_dataset, unseen_captions,
)
from imukit.diffusion.io import load_model, save_model
from imukit.diffusion.model import DenoiserModel
from imukit.diffusion.sampling import edit, edit_batch
from imukit.diffusion.schedule import forward_diffuse
from imukit.diffusion.text import encode_caption
from imukit.diffusion.training import train
from imukit.harness.artifacts import read_json, write_delta, write_json
from imukit.harness.config import (
    METHOD_CODES, ConfigError, ExperimentConfig, check_methods, config_hash,
)
from imukit.harness.tables import METRIC_NAMES, aggregate_rows, write_csv, write_results
from imukit.metrics import full_report
from imukit.ppm import ArtifactError, atomic_write, read_ppm, write_ppm

# The stages attack through immunize_batch; immunize stays bound and exported
# because the benchmark's traced run wraps the attack under this module's
# name for it (perfbench/workloads.py, layer_targets).
__all__ = ["immunize"]

# Taped rows per model pass of the attack. A lockstep chunk holds at most
# this many images, and a chunk of B images attacks max(1, ATTACK_ROWS // B)
# timesteps per pass. tools/attack_rows.py (danp, 6 images x 10 iterations,
# default model, medians of 3 fresh processes; 2-vCPU Xeon, one BLAS
# thread; caps above 6 run 6 rows, as a chunk holds at most 6 images here):
#
#   rows          2     3     4     6     8    10
#   peak MiB   41.1  41.7  42.5  43.4  43.6  43.4
#   ms/img-it  11.9   9.9   9.0   7.9   8.1   7.9
#
# 4 keeps the benchmark's 2-image stage (perfbench immunize) within 1% of
# the peak it had with one timestep per pass; 6 rows add about 3% there.
ATTACK_ROWS = 4

# seed-sequence role tags: [seed, role, ...]
_ROLE_MODEL = 1
_ROLE_TRAIN = 2
_ROLE_ATTACK = 4
_ROLE_EDIT = 5
_ROLE_HEATMAP = 7
_ROLE_ABLATE = 8


class MissingArtifactError(RuntimeError):
    """A command's inputs are absent; lists every missing path."""

    def __init__(self, missing):
        self.missing = [str(m) for m in missing]
        listing = "\n  ".join(self.missing)
        super().__init__(f"missing artifacts:\n  {listing}")


@dataclass
class RunPaths:
    root: Path

    @property
    def config_json(self):
        return self.root / "config.json"

    @property
    def dataset_dir(self):
        return self.root / "dataset"

    @property
    def manifest(self):
        return self.dataset_dir / "manifest.json"

    @property
    def model_dir(self):
        return self.root / "model"

    @property
    def model_bin(self):
        return self.model_dir / "model.bin"

    @property
    def loss_curve(self):
        return self.model_dir / "loss_curve.csv"

    @property
    def train_report(self):
        return self.model_dir / "train_report.json"

    def immunize_dir(self, method):
        return self.root / "immunize" / method

    def immunized_image(self, method, idx):
        return self.immunize_dir(method) / f"img_{idx:03d}.ppm"

    def delta_file(self, method, idx):
        return self.immunize_dir(method) / f"img_{idx:03d}_delta.bin"

    def attack_report(self, method, idx):
        return self.immunize_dir(method) / f"img_{idx:03d}_report.json"

    @property
    def evaluate_dir(self):
        return self.root / "evaluate"

    @property
    def results_csv(self):
        return self.evaluate_dir / "results.csv"

    @property
    def results_json(self):
        return self.evaluate_dir / "results.json"

    @property
    def heatmaps_dir(self):
        return self.evaluate_dir / "heatmaps"

    @property
    def ablate_dir(self):
        return self.root / "ablate"

    @property
    def components_csv(self):
        return self.ablate_dir / "components.csv"

    @property
    def components_json(self):
        return self.ablate_dir / "components.json"

    @property
    def bins_csv(self):
        return self.ablate_dir / "bins.csv"

    @property
    def bins_json(self):
        return self.ablate_dir / "bins.json"

    def bins_image(self, bins, idx):
        return self.ablate_dir / f"bins_{bins}_img_{idx:03d}.ppm"

    @property
    def report_dir(self):
        return self.root / "report"

    @property
    def summary_txt(self):
        return self.report_dir / "summary.txt"

    @property
    def report_json(self):
        return self.report_dir / "report.json"


def run_paths(cfg):
    return RunPaths(root=Path(cfg.out_dir) / config_hash(cfg))


def _require(*paths):
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise MissingArtifactError(missing)


def _derive_seed(*entropy):
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _write_config(cfg, paths):
    paths.root.mkdir(parents=True, exist_ok=True)
    cfg.save(paths.config_json)


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

@dataclass
class LoadedItem:
    image: np.ndarray
    tokens: tuple
    caption: str
    unseen: list = field(default_factory=list)


def cmd_gen_data(cfg):
    """Render the train/test scenes to PPM plus a JSON manifest."""
    paths = run_paths(cfg)
    _write_config(cfg, paths)
    paths.dataset_dir.mkdir(parents=True, exist_ok=True)
    size = cfg.model.image_size

    items = []
    for split_name, split, n in (("train", SPLIT_TRAIN, cfg.n_train),
                                 ("test", SPLIT_TEST, cfg.n_test)):
        for i, item in enumerate(make_dataset(cfg.seed, split, n, size=size)):
            stem = f"{split_name}_{i:03d}"
            write_ppm(paths.dataset_dir / f"{stem}.ppm", item.image)
            mask_img = np.repeat(item.mask[:, :, None].astype(np.float32), 3, axis=2)
            write_ppm(paths.dataset_dir / f"{stem}_mask.ppm", mask_img)
            entry = {
                "split": split_name, "index": i,
                "image": f"{stem}.ppm", "mask": f"{stem}_mask.ppm",
                "tokens": list(item.tokens), "caption": item.caption,
            }
            if split == SPLIT_TEST:
                entry["unseen_captions"] = unseen_captions(
                    cfg.seed, i, item.meta, n_variants=cfg.n_unseen)
            items.append(entry)

    write_json(paths.manifest, {
        "seed": cfg.seed, "image_size": size,
        "n_train": cfg.n_train, "n_test": cfg.n_test, "items": items,
    })
    print(f"[imukit] dataset: {cfg.n_train} train + {cfg.n_test} test -> {paths.dataset_dir}")
    return paths.manifest


def load_split(paths, split_name):
    manifest = read_json(paths.manifest)
    out = []
    for entry in manifest["items"]:
        if entry["split"] != split_name:
            continue
        img = read_ppm(paths.dataset_dir / entry["image"])
        out.append(LoadedItem(
            image=img, tokens=tuple(entry["tokens"]), caption=entry["caption"],
            unseen=entry.get("unseen_captions", [])))
    return out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(cfg):
    """Fit the denoiser on the generated dataset and store the weights."""
    paths = run_paths(cfg)
    _require(paths.manifest)
    _write_config(cfg, paths)
    paths.model_dir.mkdir(parents=True, exist_ok=True)

    train_items = load_split(paths, "train")
    test_items = load_split(paths, "test")

    mconfig, sched = cfg.model.build()
    model = DenoiserModel.init(mconfig, seed=_derive_seed(cfg.seed, _ROLE_MODEL),
                               schedule=sched)
    tcfg = replace(cfg.train, seed=_derive_seed(cfg.seed, _ROLE_TRAIN))

    t0 = time.perf_counter()
    result = train(model, train_items, tcfg, heldout=test_items)
    elapsed = time.perf_counter() - t0

    save_model(model, paths.model_bin)
    rows = [{"step": s, "train_loss": l,
             "heldout_loss": "" if h is None else f"{h:.6f}"}
            for s, l, h in result.curve]
    write_csv(paths.loss_curve, ["step", "train_loss", "heldout_loss"], rows)
    write_json(paths.train_report, {
        "config_hash": config_hash(cfg),
        "initial_loss": result.initial_loss,
        "final_loss": result.final_loss,
        "final_heldout": result.final_heldout,
        "heldout_threshold": result.heldout_threshold,
        "passed_heldout": result.passed_heldout,
        "n_params": model.n_params(),
        "wall_time_s": round(elapsed, 3),
    })
    print(f"[imukit] trained {model.n_params()} params in {elapsed:.1f}s; "
          f"held-out loss {result.final_heldout:.4f} "
          f"({'<' if result.passed_heldout else '>='} {result.heldout_threshold})")
    return paths.model_bin


# ---------------------------------------------------------------------------
# immunize
# ---------------------------------------------------------------------------

def method_attack_config(cfg, method, seed_int):
    kw = dict(seed=seed_int)
    if method == "wo-daa":
        kw["daa_mode"] = "off"
    elif method == "wo-nba":
        kw["lambda_nba"] = 0.0
    elif method == "sa-style":
        kw["daa_mode"] = "suppress-fixed"
        kw["lambda_nba"] = 0.0
    return replace(cfg.attack, **kw)


def _loss_weights(acfg):
    weights = {}
    if acfg.daa_mode == "dual":
        weights["lambda_daa"] = acfg.lambda_daa
    if acfg.lambda_nba != 0.0:
        weights["lambda_nba"] = acfg.lambda_nba
    return weights


def _immunize_chunk(model, cfg, paths, items, method, idxs):
    """Immunize test items idxs with one method and write their artifacts.

    An attack runs the chunk's images in lockstep (immunize_batch), at most
    ATTACK_ROWS taped rows per model pass, so each report's wall_time_s is
    the chunk's wall time divided by its number of images.
    """
    acfgs = [method_attack_config(
        cfg, method, _derive_seed(cfg.seed, _ROLE_ATTACK, METHOD_CODES[method], idx))
        for idx in idxs]
    images = [items[idx].image for idx in idxs]
    t0 = time.perf_counter()
    if method == "none":
        results = [(x0, PerturbationState()) for x0 in images]
    elif method == "random-noise":
        results = [(random_noise_delta(x0, acfg), PerturbationState())
                   for x0, acfg in zip(images, acfgs)]
    else:
        prompts = [model.encode_prompt(items[idx].tokens) for idx in idxs]
        results = immunize_batch(images, prompts, model, acfgs, rows=ATTACK_ROWS)
    elapsed = (time.perf_counter() - t0) / len(idxs)

    for idx, x0, acfg, (x_imu, state) in zip(idxs, images, acfgs, results):
        write_ppm(paths.immunized_image(method, idx), x_imu)
        delta = (x_imu - x0).astype(np.float32)
        write_delta(paths.delta_file(method, idx), delta,
                    meta={"method": method, "image_index": idx,
                          "gamma": acfg.gamma, "config_hash": config_hash(cfg)})
        cfg_echo = asdict(acfg)
        for key in ("lambda_daa", "lambda_nba"):
            del cfg_echo[key]
        if method not in ("none", "random-noise"):
            cfg_echo["timesteps"] = list(resolve_timesteps(acfg, model.schedule))
        report = {
            "method": method, "image_index": idx,
            "config": cfg_echo,
            "loss_weights": _loss_weights(acfg),
            "trace": state.trace,
            "degenerate_mask_count": state.degenerate_count,
            "final_linf": float(np.abs(delta).max()),
            "warnings": state.warnings,
            "wall_time_s": round(elapsed, 4),
        }
        write_json(paths.attack_report(method, idx), report)


_POOL_STATE = {}


def _pool_init(cfg_dict):
    """Load the config, model and test split once per worker process."""
    cfg = ExperimentConfig.from_dict(cfg_dict)
    paths = run_paths(cfg)
    _POOL_STATE.update(cfg=cfg, paths=paths, model=load_model(paths.model_bin),
                       items=load_split(paths, "test"))


def _pool_task(fn_task):
    fn, task = fn_task
    s = _POOL_STATE
    return fn(s["model"], s["cfg"], s["paths"], s["items"], *task)


def _run_tasks(fn, model, cfg, paths, items, tasks):
    """[fn(model, cfg, paths, items, *task) for task in tasks], in task order.

    With cfg.jobs > 1 the tasks run on that many worker processes, each of
    which loads its own model and test split, so fn must be a module-level
    function and each task independent of the others.
    """
    if cfg.jobs == 1:
        return [fn(model, cfg, paths, items, *task) for task in tasks]
    # imported here: the pool's modules (multiprocessing, socket, logging)
    # cost every other process about 1.5 MiB and 10 ms of import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=cfg.jobs, initializer=_pool_init,
                             initargs=(cfg.to_dict(),)) as pool:
        return list(pool.map(_pool_task, [(fn, task) for task in tasks], chunksize=1))


def _chunks(idxs, jobs):
    """idxs in consecutive lockstep chunks of at most ATTACK_ROWS images,
    so a model pass of the chunk at one timestep fits the row cap.

    With jobs > 1 a chunk also holds at most 1/jobs of the images, so the
    images of one method spread over every worker.
    """
    idxs = list(idxs)
    size = min(ATTACK_ROWS, -(-len(idxs) // jobs))
    return [idxs[i:i + size] for i in range(0, len(idxs), size)]


def cmd_immunize(cfg, methods=None):
    """Produce immunized images, raw deltas, and attack reports per method."""
    methods = tuple(methods) if methods else cfg.methods
    check_methods(methods)
    paths = run_paths(cfg)
    _require(paths.manifest, paths.model_bin)
    _write_config(cfg, paths)
    items = load_split(paths, "test")
    for method in methods:
        paths.immunize_dir(method).mkdir(parents=True, exist_ok=True)

    tasks = [(method, idxs) for method in methods
             for idxs in _chunks(range(len(items)), cfg.jobs)]
    t0 = time.perf_counter()
    _run_tasks(_immunize_chunk, load_model(paths.model_bin), cfg, paths, items, tasks)
    print(f"[imukit] immunized {len(items)} images x {len(methods)} methods "
          f"in {time.perf_counter() - t0:.1f}s")
    return paths.root / "immunize"


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _prompts_for(cfg, item):
    prompts = []
    if cfg.edit_prompts in ("original", "both"):
        prompts.append((0, item.caption))
    if cfg.edit_prompts in ("unseen", "both"):
        prompts.extend((k + 1, c) for k, c in enumerate(item.unseen))
    return prompts


def _edit_rng(cfg, idx, pidx):
    return np.random.default_rng(
        np.random.SeedSequence([cfg.seed, _ROLE_EDIT, idx, pidx]))


def _defense_pass(model, cfg, idx, x0, images, prompts, features):
    """Defense metrics of each labelled image of test item idx, per prompt.

    x0 and each image of images (label -> image) are edited under each
    (prompt index, caption) of prompts in one edit_batch call. All edits
    under one prompt draw the same noise, _edit_rng(cfg, idx, prompt index),
    so a metric between the clean edit and an image's edit reflects the
    perturbation alone, and equal inputs give equal edits: each distinct
    input (by float32 bytes, x0 first) is edited once, and an image equal to
    x0 (the `none` method) scores against the clean edit itself. features is
    the item's percep_dist feature dict.

    Returns {prompt index: {label: metric dict}}.
    """
    inputs = [x0]
    seen = {(x0.shape, x0.tobytes()): 0}
    input_of = {}
    for label, x in images.items():
        key = (x.shape, x.tobytes())
        if key not in seen:
            seen[key] = len(inputs)
            inputs.append(x)
        input_of[label] = seen[key]
    edits = edit_batch(model, [(model.encode_prompt(encode_caption(caption)),
                                _edit_rng(cfg, idx, pidx), inputs)
                               for pidx, caption in prompts], cfg.t_edit)
    return {pidx: {label: full_report(outs[0], outs[i], model, features)
                   for label, i in input_of.items()}
            for (pidx, _), outs in zip(prompts, edits)}


def _read_immunized(paths, method, item, idx):
    """The immunized image of test item idx; an image of another shape than
    the item's raises ArtifactError naming the file."""
    path = paths.immunized_image(method, idx)
    x = read_ppm(path)
    if x.shape != item.image.shape:
        raise ArtifactError(f"{path}: image shape {x.shape} does not match "
                            f"the test image's {item.image.shape}")
    return x


def _item_rows(model, cfg, paths, items, idx, methods):
    """Defense + imperceptibility rows of test item idx, prompt-major.

    Every method's image is read and checked before any metric or edit runs.
    """
    item = items[idx]
    features = {}
    images = {method: _read_immunized(paths, method, item, idx) for method in methods}
    imperc = {method: full_report(item.image, x_imu, model, features)
              for method, x_imu in images.items()}
    prompts = _prompts_for(cfg, item)
    defense = _defense_pass(model, cfg, idx, item.image, images, prompts, features)
    rows = []
    for pidx, caption in prompts:
        for method in methods:
            row = {"image": idx, "prompt_idx": pidx, "prompt": caption, "method": method}
            for m in METRIC_NAMES:
                row[f"defense_{m}"] = defense[pidx][method][m]
                row[f"imperceptibility_{m}"] = imperc[method][m]
            rows.append(row)
    return rows


def _evaluate_rows(model, cfg, paths, items, methods):
    """Defense + imperceptibility metric rows of every test item, in item order."""
    tasks = [(idx, methods) for idx in range(len(items))]
    return [row for rows in _run_tasks(_item_rows, model, cfg, paths, items, tasks)
            for row in rows]


def _write_heatmaps(model, cfg, paths, items, methods):
    paths.heatmaps_dir.mkdir(parents=True, exist_ok=True)
    # heatmap_images is not in the config hash, so a rerun with fewer images
    # writes into this directory: clear the maps of earlier calls first
    for stale in paths.heatmaps_dir.glob("img_*"):
        stale.unlink()
    ts = resolve_timesteps(cfg.attack, model.schedule)
    t_h = ts[len(ts) // 2]
    variants = [("clean", None)]
    if "danp" in methods:
        variants.append(("danp", "danp"))
    for idx in range(min(cfg.heatmap_images, len(items))):
        item = items[idx]
        prompt = model.encode_prompt(item.tokens)
        pm = Tensor(prompt.matrix.data[None])
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _ROLE_HEATMAP, idx]))
        eps = rng.standard_normal(item.image.shape).astype(np.float32)
        images = [(label, item.image if method is None
                   else _read_immunized(paths, method, item, idx))
                  for label, method in variants]
        for label, x in images:
            x_t = forward_diffuse(model.schedule, x, t_h, eps)
            _, rec = model.forward_batch(Tensor(x_t[None]), t_h, pm,
                                         capture_attention=True)
            agg = aggregate(rec, [prompt]).images()[0]
            mask = make_mask(agg, cfg.attack.bins, timestep=t_h)
            dump_debug(agg, mask, str(paths.heatmaps_dir / f"img_{idx:03d}_{label}"))


def cmd_evaluate(cfg, methods=None):
    """Metric tables for defense (edit vs edit) and imperceptibility (x0 vs x_imu)."""
    paths = run_paths(cfg)
    methods = tuple(methods) if methods else cfg.methods
    check_methods(methods)
    items_missing = [paths.manifest, paths.model_bin]
    _require(*items_missing)
    items = load_split(paths, "test")
    needed = []
    for method in methods:
        for idx in range(len(items)):
            needed.append(paths.immunized_image(method, idx))
    _require(*needed)
    _write_config(cfg, paths)
    paths.evaluate_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    model = load_model(paths.model_bin)
    rows = _evaluate_rows(model, cfg, paths, items, methods)
    write_results(paths.results_csv, paths.results_json, rows, methods)
    _write_heatmaps(model, cfg, paths, items, methods)
    print(f"[imukit] evaluated {len(rows)} rows in {time.perf_counter() - t0:.1f}s "
          f"-> {paths.results_csv}")
    return paths.results_csv


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

ABLATION_METHODS = ("danp", "wo-daa", "wo-nba")


def _trace_component_zero(paths, method, n_images, key):
    """True when every trace entry of every image logs 0 for the component."""
    for idx in range(n_images):
        report = read_json(paths.attack_report(method, idx))
        for entry in report["trace"]:
            if entry[key] != 0.0:
                return False
    return True


def cmd_ablate(cfg):
    """Component ablation rows plus the histogram-bin sweep with wall times."""
    paths = run_paths(cfg)
    _require(paths.manifest, paths.model_bin)
    _write_config(cfg, paths)
    paths.ablate_dir.mkdir(parents=True, exist_ok=True)
    items = load_split(paths, "test")
    model = load_model(paths.model_bin)

    # components: make sure the three variants exist, then measure defense
    missing_methods = [
        m for m in ABLATION_METHODS
        if not all(paths.immunized_image(m, i).exists() for i in range(len(items)))]
    if missing_methods:
        cmd_immunize(cfg, methods=missing_methods)

    rows = _evaluate_rows(model, cfg, paths, items, ABLATION_METHODS)
    agg = aggregate_rows(rows, ABLATION_METHODS)
    comp_rows = []
    for method in ABLATION_METHODS:
        row = {"method": method}
        for m in METRIC_NAMES:
            row[f"defense_{m}"] = agg[method][f"defense_{m}_mean"]
        comp_rows.append(row)
    write_csv(paths.components_csv,
              ["method"] + [f"defense_{m}" for m in METRIC_NAMES], comp_rows)
    contracts = {
        "wo-daa_daa_identically_zero":
            _trace_component_zero(paths, "wo-daa", len(items), "daa"),
        "wo-nba_nba_identically_zero":
            _trace_component_zero(paths, "wo-nba", len(items), "nba"),
    }
    write_json(paths.components_json, {
        "config_hash": config_hash(cfg), "rows": comp_rows,
        "aggregates": agg, "contracts": contracts,
    })

    # bin-count sweep on the subset, timing the attack loop per iteration
    subset = list(range(min(cfg.ablate_images, len(items))))
    time_per_iter = []
    for bins in cfg.ablate_bins:
        times = []
        for rep in range(cfg.ablate_repeats):
            t0 = time.perf_counter()
            for idxs in _chunks(subset, 1):
                acfgs = [replace(method_attack_config(
                    cfg, "danp", _derive_seed(cfg.seed, _ROLE_ABLATE, bins, idx)),
                    bins=bins, iterations=cfg.ablate_iterations) for idx in idxs]
                results = immunize_batch(
                    [items[idx].image for idx in idxs],
                    [model.encode_prompt(items[idx].tokens) for idx in idxs],
                    model, acfgs, rows=ATTACK_ROWS)
                if rep == 0:
                    for idx, (x_imu, _) in zip(idxs, results):
                        write_ppm(paths.bins_image(bins, idx), x_imu)
            total_iters = cfg.ablate_iterations * len(subset)
            times.append((time.perf_counter() - t0) / max(total_iters, 1))
        time_per_iter.append(float(np.median(times)))

    # defense of every bin count's images, one pass per subset image under
    # its original caption
    defense = [_defense_pass(model, cfg, idx, items[idx].image,
                             {bins: read_ppm(paths.bins_image(bins, idx))
                              for bins in cfg.ablate_bins},
                             [(0, items[idx].caption)], features={})[0]
               for idx in subset]
    bin_rows = []
    for bins, seconds in zip(cfg.ablate_bins, time_per_iter):
        drow = {"bins": bins}
        for m in METRIC_NAMES:
            drow[f"defense_{m}"] = float(np.mean([d[bins][m] for d in defense]))
        drow["time_per_iter_s"] = seconds
        bin_rows.append(drow)

    write_csv(paths.bins_csv,
              ["bins"] + [f"defense_{m}" for m in METRIC_NAMES] + ["time_per_iter_s"],
              bin_rows)
    write_json(paths.bins_json, {
        "config_hash": config_hash(cfg), "rows": bin_rows,
        "subset_images": subset, "iterations": cfg.ablate_iterations,
        "timing_repeats": cfg.ablate_repeats,
    })
    print(f"[imukit] ablation tables -> {paths.ablate_dir}")
    return paths.components_csv


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(cfg):
    """Merge evaluation and ablation outputs into one summary + JSON."""
    paths = run_paths(cfg)
    _require(paths.results_json)
    paths.report_dir.mkdir(parents=True, exist_ok=True)
    results = read_json(paths.results_json)
    components = read_json(paths.components_json) if paths.components_json.exists() else None
    bins = read_json(paths.bins_json) if paths.bins_json.exists() else None

    def table_row(label, values, key):
        psnr, ssim, vifp, percep = (values[key.format(m)] for m in METRIC_NAMES)
        return f"{label:>14} | {psnr:>10.4f} {ssim:>8.4f} {vifp:>8.4f} {percep:>10.6f}"

    lines = []
    h = config_hash(cfg)
    lines.append("immunization run summary")
    lines.append(f"config hash: {h}")
    lines.append("")
    lines.append("defense metrics between edit(x0) and edit(x_imu); arrows give the")
    lines.append("direction of a stronger defense: psnr(v) ssim(v) vifp(v) percep_dist(^)")
    lines.append("")
    header = f"{'method':>14} | {'psnr(v)':>10} {'ssim(v)':>8} {'vifp(v)':>8} {'percep(^)':>10}"
    lines.append("DEFENSE (median over rows)")
    lines.append(header)
    aggs = results["aggregates"]
    for method, agg in aggs.items():
        lines.append(table_row(method, agg, "defense_{}_median"))
    lines.append("")
    lines.append("IMPERCEPTIBILITY x0 vs x_imu (mean over rows; higher psnr = closer)")
    lines.append(header.replace("(v)", "   ").replace("(^)", "   "))
    for method, agg in aggs.items():
        lines.append(table_row(method, agg, "imperceptibility_{}_mean"))
    if components:
        lines.append("")
        lines.append("ABLATION (defense means)")
        lines.append(header)
        for row in components["rows"]:
            lines.append(table_row(row["method"], row, "defense_{}"))
        for name, ok in components["contracts"].items():
            lines.append(f"  contract {name}: {'ok' if ok else 'VIOLATED'}")
    if bins:
        lines.append("")
        lines.append("BIN SWEEP (defense means + time/iter)")
        lines.append(header + f" {'time/iter(s)':>13}")
        for row in bins["rows"]:
            lines.append(table_row(row["bins"], row, "defense_{}")
                         + f" {row['time_per_iter_s']:>13.6f}")
    lines.append("")
    text = "\n".join(lines)
    with atomic_write(paths.summary_txt, "w", encoding="utf-8") as f:
        f.write(text)
    write_json(paths.report_json, {
        "config_hash": h,
        "config": cfg.hashable_dict(),
        "directions": results["directions"],
        "defense_and_imperceptibility": results["aggregates"],
        "ablation_components": components,
        "bin_sweep": bins,
    })
    print(f"[imukit] report -> {paths.summary_txt}")
    return paths.summary_txt


# ---------------------------------------------------------------------------
# single-image edit helper for the CLI
# ---------------------------------------------------------------------------

def cmd_edit_file(cfg, image_path, caption, out_path, t_edit=None, edit_seed=0):
    paths = run_paths(cfg)
    _require(paths.model_bin, image_path)
    model = load_model(paths.model_bin)
    x = read_ppm(image_path)
    t = cfg.t_edit if t_edit is None else int(t_edit)
    size, T = model.config.image_size, model.schedule.T
    if not 0 <= t < T or x.shape != (size, size, 3):
        raise ConfigError(f"edit needs --t-edit in [0, {T}) and a {size}x{size} image, "
                          f"got {t} and {x.shape[1]}x{x.shape[0]} ({image_path})")
    try:
        prompt = model.encode_prompt(encode_caption(caption))
    except ValueError as e:
        raise ConfigError(str(e)) from None
    rng = np.random.default_rng(np.random.SeedSequence([edit_seed, _ROLE_EDIT]))
    out = edit(model, x, prompt, t, rng)
    write_ppm(out_path, out)
    print(f"[imukit] edited {image_path} -> {out_path} (t_edit={t})")
    return out_path
