"""Experiment orchestration: dataset, training, immunization, evaluation,
ablations, and the merged report.

Every artifact lives under out_dir/<config-hash>/ so results can never be
compared across stale configurations. All randomness is derived from the run
seed through fixed-role seed sequences, which makes each stage reproducible
in isolation and the whole pipeline byte-deterministic.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from imukit.attack import immunize, random_noise_delta, resolve_timesteps
from imukit.attention_mask import aggregate, dump_debug, make_mask
from imukit.diffusion.dataset import (
    SPLIT_TEST, SPLIT_TRAIN, ToyDataset, make_dataset, unseen_captions,
)
from imukit.diffusion.io import load_model, save_model
from imukit.diffusion.model import DenoiserModel, ModelConfig, predict_noise
from imukit.diffusion.sampling import edit, edit_batch
from imukit.diffusion.schedule import build_schedule, forward_diffuse
from imukit.diffusion.text import encode_caption
from imukit.diffusion.training import train
from imukit.harness.artifacts import read_json, write_delta, write_json
from imukit.harness.config import METHOD_CODES, METHODS, ExperimentConfig, config_hash
from imukit.harness.tables import (
    METRIC_NAMES, RESULT_COLUMNS, aggregate_rows, write_csv, write_results,
)
from imukit.metrics import full_report
from imukit.ppm import read_ppm, write_ppm

# seed-sequence role tags: [seed, role, ...]
_ROLE_MODEL = 1
_ROLE_TRAIN = 2
_ROLE_ATTACK = 4
_ROLE_EDIT = 5
_ROLE_UNSEEN = 6
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
    mask: np.ndarray
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
        ds = make_dataset(cfg.seed, split, n, size=size)
        for i, item in enumerate(ds.items):
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
        mask = read_ppm(paths.dataset_dir / entry["mask"])[:, :, 0] > 0.5
        out.append(LoadedItem(
            image=img, tokens=tuple(entry["tokens"]), caption=entry["caption"],
            mask=mask, unseen=entry.get("unseen_captions", [])))
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

    train_items = ToyDataset(cfg.seed, SPLIT_TRAIN, load_split(paths, "train"))
    test_items = ToyDataset(cfg.seed, SPLIT_TEST, load_split(paths, "test"))

    spec = cfg.model
    sched = build_schedule(spec.T, spec.beta_min, spec.beta_max)
    mconfig = ModelConfig(image_size=spec.image_size, widths=spec.widths,
                          d_k=spec.d_k, d_text=spec.d_text, d_time=spec.d_time)
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
    kw = dict(seed=seed_int, daa_mode="dual")
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


def run_method_on_image(model, method, x0, tokens, acfg):
    """Dispatch one (method, image) immunization; returns (x_imu, state or None)."""
    if method == "none":
        return x0.copy(), None
    if method == "random-noise":
        return random_noise_delta(x0, acfg)
    prompt = model.encode_prompt(tokens)
    return immunize(x0, prompt, model, acfg)


def _immunize_one(model, cfg, paths, method, idx, item):
    seed_int = _derive_seed(cfg.seed, _ROLE_ATTACK, METHOD_CODES[method], idx)
    acfg = method_attack_config(cfg, method, seed_int)
    t0 = time.perf_counter()
    x_imu, state = run_method_on_image(model, method, item.image, item.tokens, acfg)
    elapsed = time.perf_counter() - t0

    write_ppm(paths.immunized_image(method, idx), x_imu)
    delta = (x_imu - item.image).astype(np.float32)
    write_delta(paths.delta_file(method, idx), delta,
                meta={"method": method, "image_index": idx,
                      "gamma": acfg.gamma, "config_hash": config_hash(cfg)})
    cfg_echo = asdict(acfg)
    for key in ("lambda_daa", "lambda_nba", "record_masks"):
        del cfg_echo[key]
    if method not in ("none", "random-noise"):
        cfg_echo["timesteps"] = list(resolve_timesteps(acfg, model.schedule))
    report = {
        "method": method, "image_index": idx,
        "config": cfg_echo,
        "loss_weights": _loss_weights(acfg),
        "trace": state.trace if state else [],
        "degenerate_mask_count": state.degenerate_count if state else 0,
        "final_linf": float(np.abs(delta).max()),
        "nba_scale": state.nba_scale if state else None,
        "warnings": state.warnings if state else [],
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


def _pool_immunize(args):
    method, idx = args
    s = _POOL_STATE
    _immunize_one(s["model"], s["cfg"], s["paths"], method, idx, s["items"][idx])
    return (method, idx)


def cmd_immunize(cfg, methods=None):
    """Produce immunized images, raw deltas, and attack reports per method."""
    paths = run_paths(cfg)
    _require(paths.manifest, paths.model_bin)
    _write_config(cfg, paths)
    methods = tuple(methods) if methods else cfg.methods
    items = load_split(paths, "test")
    for method in methods:
        paths.immunize_dir(method).mkdir(parents=True, exist_ok=True)

    tasks = [(method, idx) for method in methods for idx in range(len(items))]
    t0 = time.perf_counter()
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs, initializer=_pool_init,
                                 initargs=(cfg.to_dict(),)) as pool:
            list(pool.map(_pool_immunize, tasks, chunksize=1))
    else:
        model = load_model(paths.model_bin)
        for method, idx in tasks:
            _immunize_one(model, cfg, paths, method, idx, items[idx])
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


def _evaluate_rows(model, cfg, paths, items, methods, indices=None, keep=None):
    """Defense + imperceptibility metric rows with shared edit randomness.

    The clean and every immunized edit of one (image, prompt) pair consume
    identical sampler noise, so row differences are attributable to the
    perturbation alone. It also makes an immunized image equal to x0 (the
    `none` method) edit to the clean edit, so each distinct input of a pair
    is edited once, and each distinct image of one item gets one
    percep_dist feature pass. All edits of one item run as one edit_batch.

    keep, when given, is a dict keyed by item index; each of its entries is
    set to (feature dict, {prompt index: (prompt, clean edit)}) for callers
    that edit the same pairs again.
    """
    indices = list(range(len(items))) if indices is None else list(indices)
    rows = []
    for idx in indices:
        item = items[idx]
        x0 = item.image
        features = {}
        imperc = {}
        # distinct edit inputs by float32 bytes, x0 first
        inputs = [x0]
        seen = {(x0.shape, x0.tobytes()): 0}
        input_of = {}
        for method in methods:
            x_imu = read_ppm(paths.immunized_image(method, idx))
            imperc[method] = full_report(x0, x_imu, model, features).to_dict()
            key = (x_imu.shape, x_imu.tobytes())
            if key not in seen:
                seen[key] = len(inputs)
                inputs.append(x_imu)
            input_of[method] = seen[key]
        prompts = [(pidx, caption, model.encode_prompt(encode_caption(caption)))
                   for pidx, caption in _prompts_for(cfg, item)]
        edits = edit_batch(model, [(prompt, _edit_rng(cfg, idx, pidx), inputs)
                                   for pidx, _, prompt in prompts], cfg.t_edit)
        clean_edits = {}
        for (pidx, caption, prompt), outs in zip(prompts, edits):
            clean_out = outs[0]
            clean_edits[pidx] = (prompt, clean_out)
            for method in methods:
                defense = full_report(clean_out, outs[input_of[method]], model, features)
                row = {"image": idx, "prompt_idx": pidx, "prompt": caption,
                       "method": method}
                for m in METRIC_NAMES:
                    row[f"defense_{m}"] = defense.to_dict()[m]
                    row[f"imperceptibility_{m}"] = imperc[method][m]
                rows.append(row)
        if keep is not None and idx in keep:
            keep[idx] = (features, clean_edits)
    return rows


def _pool_evaluate(args):
    methods, idx = args
    s = _POOL_STATE
    return _evaluate_rows(s["model"], s["cfg"], s["paths"], s["items"],
                          list(methods), indices=[idx])


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
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _ROLE_HEATMAP, idx]))
        eps = rng.standard_normal(item.image.shape).astype(np.float32)
        for label, method in variants:
            x = item.image if method is None else read_ppm(
                paths.immunized_image(method, idx))
            x_t = forward_diffuse(model.schedule, x, t_h, eps)
            _, rec = predict_noise(model, x_t, t_h, prompt, capture_attention=True)
            agg = aggregate(rec, prompt)
            mask = make_mask(agg, cfg.attack.bins, timestep=t_h)
            dump_debug(agg, mask, str(paths.heatmaps_dir / f"img_{idx:03d}_{label}"))


def cmd_evaluate(cfg, methods=None):
    """Metric tables for defense (edit vs edit) and imperceptibility (x0 vs x_imu)."""
    paths = run_paths(cfg)
    methods = tuple(methods) if methods else cfg.methods
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
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs, initializer=_pool_init,
                                 initargs=(cfg.to_dict(),)) as pool:
            chunks = pool.map(_pool_evaluate,
                              [(methods, i) for i in range(len(items))], chunksize=1)
            rows = [r for chunk in chunks for r in chunk]
        model = load_model(paths.model_bin)
    else:
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

    # the bin sweep edits its subset under the original prompt with the
    # component rows' seeds; keep those rows' clean edits and features
    subset = list(range(min(cfg.ablate_images, len(items))))
    shared = dict.fromkeys(subset)
    rows = _evaluate_rows(model, cfg, paths, items, list(ABLATION_METHODS),
                          keep=shared)
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

    # bin-count sweep on the subset, timing the attack loop per iteration;
    # the clean edits exist already unless edit_prompts leaves out the
    # original caption
    clean = {}
    for idx in subset:
        features, clean_edits = shared[idx]
        if 0 not in clean_edits:
            prompt = model.encode_prompt(encode_caption(items[idx].caption))
            clean_edits[0] = (prompt, edit(model, items[idx].image, prompt,
                                           cfg.t_edit, _edit_rng(cfg, idx, 0)))
        clean[idx] = clean_edits[0] + (features,)
    bin_rows = []
    for bins in cfg.ablate_bins:
        times = []
        for rep in range(cfg.ablate_repeats):
            t0 = time.perf_counter()
            for idx in subset:
                item = items[idx]
                acfg = method_attack_config(
                    cfg, "danp", _derive_seed(cfg.seed, _ROLE_ABLATE, bins, idx))
                acfg = replace(acfg, bins=bins, iterations=cfg.ablate_iterations)
                x_imu, _ = run_method_on_image(model, "danp", item.image,
                                               item.tokens, acfg)
                if rep == 0:
                    out = paths.ablate_dir / f"bins_{bins}_img_{idx:03d}.ppm"
                    write_ppm(out, x_imu)
            total_iters = cfg.ablate_iterations * len(subset)
            times.append((time.perf_counter() - t0) / max(total_iters, 1))
        time_per_iter = float(np.median(times))

        # defense metrics for this bin count on the subset, original prompts
        drow = {"bins": bins}
        vals = {m: [] for m in METRIC_NAMES}
        for idx in subset:
            prompt, clean_out, features = clean[idx]
            x_imu = read_ppm(paths.ablate_dir / f"bins_{bins}_img_{idx:03d}.ppm")
            imu_out = edit(model, x_imu, prompt, cfg.t_edit, _edit_rng(cfg, idx, 0))
            rep = full_report(clean_out, imu_out, model, features)
            for m in METRIC_NAMES:
                vals[m].append(rep.to_dict()[m])
        for m in METRIC_NAMES:
            drow[f"defense_{m}"] = float(np.mean(vals[m]))
        drow["time_per_iter_s"] = time_per_iter
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
        lines.append(
            f"{method:>14} | {agg['defense_psnr_median']:>10.4f} "
            f"{agg['defense_ssim_median']:>8.4f} {agg['defense_vifp_median']:>8.4f} "
            f"{agg['defense_percep_dist_median']:>10.6f}")
    lines.append("")
    lines.append("IMPERCEPTIBILITY x0 vs x_imu (mean over rows; higher psnr = closer)")
    lines.append(header.replace("(v)", "   ").replace("(^)", "   "))
    for method, agg in aggs.items():
        lines.append(
            f"{method:>14} | {agg['imperceptibility_psnr_mean']:>10.4f} "
            f"{agg['imperceptibility_ssim_mean']:>8.4f} "
            f"{agg['imperceptibility_vifp_mean']:>8.4f} "
            f"{agg['imperceptibility_percep_dist_mean']:>10.6f}")
    if components:
        lines.append("")
        lines.append("ABLATION (defense means)")
        lines.append(header)
        for row in components["rows"]:
            lines.append(
                f"{row['method']:>14} | {row['defense_psnr']:>10.4f} "
                f"{row['defense_ssim']:>8.4f} {row['defense_vifp']:>8.4f} "
                f"{row['defense_percep_dist']:>10.6f}")
        for name, ok in components["contracts"].items():
            lines.append(f"  contract {name}: {'ok' if ok else 'VIOLATED'}")
    if bins:
        lines.append("")
        lines.append("BIN SWEEP (defense means + time/iter)")
        lines.append(header + f" {'time/iter(s)':>13}")
        for row in bins["rows"]:
            lines.append(
                f"{row['bins']:>14} | {row['defense_psnr']:>10.4f} "
                f"{row['defense_ssim']:>8.4f} {row['defense_vifp']:>8.4f} "
                f"{row['defense_percep_dist']:>10.6f} {row['time_per_iter_s']:>13.6f}")
    lines.append("")
    text = "\n".join(lines)
    with open(paths.summary_txt, "w", encoding="utf-8") as f:
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
    _require(paths.model_bin)
    model = load_model(paths.model_bin)
    x = read_ppm(image_path)
    prompt = model.encode_prompt(encode_caption(caption))
    t = cfg.t_edit if t_edit is None else int(t_edit)
    rng = np.random.default_rng(np.random.SeedSequence([edit_seed, _ROLE_EDIT]))
    out = edit(model, x, prompt, t, rng)
    write_ppm(out_path, out)
    print(f"[imukit] edited {image_path} -> {out_path} (t_edit={t})")
    return out_path
