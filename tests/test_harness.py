import dataclasses
import json
import shutil

import numpy as np
import pytest

from conftest import shape_masks, tiny_experiment
from imukit.attack import immunize, immunize_batch
from imukit.autodiff import ShapeMismatchError
from imukit.harness import cli
from imukit.harness.cli import build_parser, load_config, main
from imukit.harness.config import (
    METHOD_CODES, ConfigError, ExperimentConfig, config_hash,
)
from imukit.harness.pipeline import (
    _ROLE_ATTACK, ABLATION_METHODS, ATTACK_ROWS, MissingArtifactError, _derive_seed,
    _edit_rng, _evaluate_rows, _prompts_for, _write_heatmaps, cmd_ablate, cmd_evaluate,
    cmd_gen_data, cmd_immunize, cmd_report, cmd_train, load_split, method_attack_config,
    run_paths,
)
from imukit.harness.artifacts import read_delta, read_json, write_delta
from imukit.harness.tables import METRIC_NAMES, read_csv
from imukit.diffusion.io import load_model, save_model
from imukit.diffusion.sampling import EDIT_ROWS, edit
from imukit.diffusion.text import encode_caption
from imukit.metrics import full_report
from imukit.ppm import ArtifactError, read_ppm, write_ppm


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One fully executed tiny pipeline shared by the read-only tests here."""
    cfg = tiny_experiment(tmp_path_factory.mktemp("tiny_run"))
    cmd_gen_data(cfg)
    cmd_train(cfg)
    cmd_immunize(cfg)
    cmd_evaluate(cfg)
    cmd_ablate(cfg)
    cmd_report(cfg)
    return cfg


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = tiny_experiment(tmp_path)
    p = tmp_path / "cfg.json"
    cfg.save(p)
    loaded = ExperimentConfig.load(p)
    assert config_hash(loaded) == config_hash(cfg)


def test_config_hash_changes_with_any_hyperparameter(tmp_path):
    base = tiny_experiment(tmp_path)
    h = config_hash(base)
    assert config_hash(tiny_experiment(tmp_path, seed=1)) != h
    assert config_hash(tiny_experiment(tmp_path, n_test=4)) != h
    bumped = tiny_experiment(tmp_path)
    bumped.attack = dataclasses.replace(bumped.attack, gamma=0.05)
    assert config_hash(bumped) != h
    # out_dir and jobs are execution details, not hyperparameters
    moved = tiny_experiment(tmp_path / "elsewhere")
    assert config_hash(moved) == h


def test_config_hashes_are_pinned(tmp_path):
    """The run directory names of the default and tiny configs do not move."""
    assert config_hash(ExperimentConfig()) == "ac882f66df35"
    assert config_hash(ExperimentConfig(seed=3)) == "bc88a1b69624"
    assert config_hash(tiny_experiment(tmp_path, seed=0)) == "a4a9e0b866c4"
    assert config_hash(tiny_experiment(tmp_path, seed=5, edit_prompts="both")) == "5fba7b064142"


@pytest.mark.parametrize("section,key", [
    (None, "bogus"), ("model", "bogus"), ("model", "seed"), ("train", "bogus"),
    ("attack", "bogus"), ("attack", "record_masks"),
])
def test_config_unknown_key_is_rejected(tmp_path, section, key):
    d = tiny_experiment(tmp_path).to_dict()
    (d if section is None else d[section])[key] = 1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)


def test_config_json_lists_load_as_tuples(tmp_path):
    cfg = tiny_experiment(tmp_path)
    p = tmp_path / "cfg.json"
    cfg.save(p)
    loaded = ExperimentConfig.load(p)
    assert loaded.model.widths == (8, 12, 16)
    assert loaded.attack.timesteps == (2, 9, 17)
    assert loaded.methods == ("none", "random-noise", "danp")
    assert loaded.ablate_bins == (16, 64)
    assert loaded == cfg


def test_model_config_round_trips_through_model_bin(tmp_path, tiny_model):
    save_model(tiny_model, tmp_path / "model.bin")
    loaded = load_model(tmp_path / "model.bin")
    assert loaded.config == tiny_model.config
    assert loaded.config.widths == (8, 12, 16)


def _damage(path, case, payload):
    """Cut or extend the container file at path; returns the error text it must give."""
    raw = path.read_bytes()
    data, text = {
        "truncated": (raw[:-7], f"expected {payload} bytes, got {payload - 7}"),
        "over-long": (raw + b"\0" * 5, f"expected {payload} bytes, got {payload + 5}"),
        "cut-in-header": (raw[:40], "unreadable header"),
    }[case]
    path.write_bytes(data)
    return text


@pytest.mark.parametrize("case", ["truncated", "over-long", "cut-in-header"])
def test_model_bin_wrong_payload_size_names_the_file(tmp_path, tiny_model, case):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    text = _damage(path, case, 4 * tiny_model.n_params())
    with pytest.raises(ArtifactError) as err:
        load_model(path)
    assert str(path) in str(err.value)
    assert text in str(err.value)


@pytest.mark.parametrize("case", ["truncated", "over-long", "cut-in-header"])
def test_delta_file_wrong_payload_size_names_the_file(tmp_path, case):
    path = tmp_path / "img_000_delta.bin"
    delta = np.linspace(-0.03, 0.03, 4 * 5 * 3, dtype=np.float32).reshape(4, 5, 3)
    write_delta(path, delta, meta={"method": "danp", "image_index": 0})
    back, meta = read_delta(path)
    assert back.tobytes() == delta.tobytes() and meta["method"] == "danp"
    text = _damage(path, case, delta.nbytes)
    with pytest.raises(ArtifactError) as err:
        read_delta(path)
    assert str(path) in str(err.value)
    assert text in str(err.value)


@pytest.mark.parametrize("method,daa_mode,lambda_nba", [
    ("none", "dual", 0.5), ("random-noise", "dual", 0.5),
    ("sa-style", "suppress-fixed", 0.0), ("danp", "dual", 0.5),
    ("wo-daa", "off", 0.5), ("wo-nba", "dual", 0.0),
])
def test_method_attack_config(tmp_path, method, daa_mode, lambda_nba):
    cfg = tiny_experiment(tmp_path, attack={
        "iterations": 4, "timesteps": [2, 9, 17], "alpha_step": 0.0075,
        "lambda_daa": 2.0, "lambda_nba": 0.5, "bins": 64})
    acfg = method_attack_config(cfg, method, 1234)
    assert (acfg.daa_mode, acfg.lambda_nba, acfg.seed) == (daa_mode, lambda_nba, 1234)
    # every other field comes from the configured attack
    assert dataclasses.replace(acfg, daa_mode="dual", lambda_nba=0.5, seed=0) == cfg.attack


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        tiny_experiment(tmp_path, edit_prompts="nope")
    with pytest.raises(ConfigError):
        tiny_experiment(tmp_path, methods=["danp", "bogus"])
    with pytest.raises(ConfigError):
        tiny_experiment(tmp_path, n_test=0)
    with pytest.raises(ConfigError):
        tiny_experiment(tmp_path, ablate_repeats=0)
    with pytest.raises(ConfigError):
        tiny_experiment(tmp_path, ablate_images=0)
    for bins in ([16, 16], [1, 16]):
        with pytest.raises(ConfigError):
            tiny_experiment(tmp_path, ablate_bins=bins)
    # each method sets its own mask mode
    for mode in ("off", "suppress-fixed"):
        with pytest.raises(ConfigError):
            tiny_experiment(tmp_path, attack={"iterations": 4, "daa_mode": mode})
    # rejected at load, not clamped or left to a later stage
    for n_unseen in (-1, 9):
        with pytest.raises(ConfigError):
            tiny_experiment(tmp_path, n_unseen=n_unseen)
    for policy in ("unseen", "both"):
        with pytest.raises(ConfigError):
            tiny_experiment(tmp_path, n_unseen=0, edit_prompts=policy)
    tiny_experiment(tmp_path, n_unseen=0)
    for timesteps in ([25], [0, 9], [19, 20]):
        with pytest.raises(ConfigError):
            tiny_experiment(tmp_path, attack={"iterations": 4, "timesteps": timesteps})
    model = tiny_experiment(tmp_path).to_dict()["model"]
    for key, value in (("image_size", 18), ("T", 1), ("beta_min", 0.5)):
        with pytest.raises(ConfigError):
            tiny_experiment(tmp_path, model={**model, key: value})
    with pytest.raises(ConfigError):
        ExperimentConfig.load(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def test_gen_data_deterministic_bytes(tmp_path):
    cfg_a = tiny_experiment(tmp_path / "a")
    cfg_b = tiny_experiment(tmp_path / "b")
    pa, pb = cmd_gen_data(cfg_a), cmd_gen_data(cfg_b)
    assert pa.read_bytes() == pb.read_bytes()
    for f in sorted(p.name for p in pa.parent.iterdir()):
        assert (pa.parent / f).read_bytes() == (pb.parent / f).read_bytes()


def test_gen_data_single_item(tmp_path):
    cfg = tiny_experiment(tmp_path, n_train=1, n_test=1)
    manifest = cmd_gen_data(cfg)
    data = read_json(manifest)
    assert len(data["items"]) == 2
    items = load_split(run_paths(cfg), "test")
    assert len(items) == 1
    assert items[0].image.shape == (16, 16, 3)
    assert len(items[0].unseen) == cfg.n_unseen


def test_gen_data_mask_coverage(tiny_run):
    for split in ("train", "test"):
        for mask in shape_masks(run_paths(tiny_run), split):
            assert 0.05 <= mask.mean() <= 0.60


def test_stages_run_without_the_mask_ppms(tiny_run, tmp_path):
    """gen-data writes the shape masks for inspection; no stage reads them."""
    cfg = dataclasses.replace(tiny_run, out_dir=str(tmp_path))
    paths = run_paths(cfg)
    shutil.copytree(run_paths(tiny_run).root, paths.root)
    masks = list(paths.dataset_dir.glob("*_mask.ppm"))
    assert len(masks) == cfg.n_train + cfg.n_test
    for mask in masks:
        mask.unlink()
    assert len(load_split(paths, "train")) == cfg.n_train
    assert len(load_split(paths, "test")) == cfg.n_test
    cmd_evaluate(cfg)
    assert (paths.results_csv.read_bytes()
            == run_paths(tiny_run).results_csv.read_bytes())


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_artifacts(tiny_run):
    paths = run_paths(tiny_run)
    report = read_json(paths.train_report)
    assert report["config_hash"] == config_hash(tiny_run)
    assert np.isfinite(report["final_heldout"])
    assert "passed_heldout" in report
    curve = read_csv(paths.loss_curve)
    assert curve[0]["step"] == "1"
    assert float(curve[-1]["train_loss"]) < float(curve[0]["train_loss"])


def test_train_requires_dataset(tmp_path):
    cfg = tiny_experiment(tmp_path)
    with pytest.raises(MissingArtifactError):
        cmd_train(cfg)


# ---------------------------------------------------------------------------
# immunize
# ---------------------------------------------------------------------------

def test_immunize_artifacts_and_budget(tiny_run):
    paths = run_paths(tiny_run)
    items = load_split(paths, "test")
    gamma = tiny_run.attack.gamma
    for method in tiny_run.methods:
        for idx in range(len(items)):
            x_imu = read_ppm(paths.immunized_image(method, idx))
            delta, meta = read_delta(paths.delta_file(method, idx))
            assert meta["method"] == method
            assert np.abs(delta).max() <= gamma + 1e-9
            # the PPM is a lossless view of x0 + delta
            assert np.abs((items[idx].image + delta) - x_imu).max() <= 1e-6
            report = read_json(paths.attack_report(method, idx))
            assert report["final_linf"] <= gamma + 1e-9


def test_immunize_none_is_identity(tiny_run):
    paths = run_paths(tiny_run)
    items = load_split(paths, "test")
    x = read_ppm(paths.immunized_image("none", 0))
    assert np.array_equal(x, items[0].image)


def test_immunize_requires_model(tmp_path):
    cfg = tiny_experiment(tmp_path)
    cmd_gen_data(cfg)
    with pytest.raises(MissingArtifactError):
        cmd_immunize(cfg)


def test_sa_style_report_has_no_amplification_weight(tmp_path):
    cfg = tiny_experiment(tmp_path, methods=["sa-style", "wo-daa", "wo-nba", "danp"])
    cmd_gen_data(cfg)
    cmd_train(cfg)
    cmd_immunize(cfg)
    paths = run_paths(cfg)
    sa = read_json(paths.attack_report("sa-style", 0))
    assert "lambda_daa" not in sa["loss_weights"]
    assert "lambda_nba" not in sa["loss_weights"]
    assert "lambda_daa" not in sa["config"]
    danp = read_json(paths.attack_report("danp", 0))
    assert danp["loss_weights"] == {"lambda_daa": 1.0, "lambda_nba": 1.0}
    wo_daa = read_json(paths.attack_report("wo-daa", 0))
    assert "lambda_daa" not in wo_daa["loss_weights"]
    wo_nba = read_json(paths.attack_report("wo-nba", 0))
    assert "lambda_nba" not in wo_nba["loss_weights"]
    # component contracts: disabled term is identically zero in every entry
    assert all(e["daa"] == 0.0 for e in wo_daa["trace"])
    assert all(e["nba"] == 0.0 for e in wo_nba["trace"])


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_results_table(tiny_run):
    paths = run_paths(tiny_run)
    rows = read_csv(paths.results_csv)
    n_methods = len(tiny_run.methods)
    assert len(rows) == tiny_run.n_test * n_methods  # original prompt policy
    blob = read_json(paths.results_json)
    assert blob["directions"]["defense"]["psnr"] == "lower"
    assert blob["directions"]["defense"]["percep_dist"] == "higher"
    for m in tiny_run.methods:
        assert m in blob["aggregates"]


def test_evaluate_none_method_defense_is_cap(tiny_run):
    rows = read_csv(run_paths(tiny_run).results_csv)
    none_rows = [r for r in rows if r["method"] == "none"]
    assert none_rows
    for r in none_rows:
        assert float(r["defense_psnr"]) == 100.0
        assert float(r["imperceptibility_psnr"]) == 100.0


def test_evaluate_rows_edit_and_feature_pass_counts(tiny_run, forward_calls):
    cfg = dataclasses.replace(tiny_run, edit_prompts="both")
    paths = run_paths(tiny_run)
    items = load_split(paths, "test")
    model = load_model(paths.model_bin)
    methods = list(cfg.methods)  # none, random-noise, danp
    rows = _evaluate_rows(model, cfg, paths, items, methods)
    n_prompts = 1 + cfg.n_unseen
    # the `none` image equals x0, so each (image, prompt) pair has three
    # distinct edit inputs; percep_dist sees x0, two immunized images and
    # three distinct edits per prompt
    distinct_edits = n_prompts * 3
    distinct_percep = 3 + n_prompts * 3
    assert sum(forward_calls) == cfg.n_test * (cfg.t_edit * distinct_edits + distinct_percep)
    # each item's edits step together, EDIT_ROWS rows per forward
    chunks = -(-distinct_edits // EDIT_ROWS)
    assert len(forward_calls) == cfg.n_test * (chunks * cfg.t_edit + distinct_percep) == 171
    assert max(forward_calls) == EDIT_ROWS

    # the shared passes give the rows that independent passes give
    want = []
    for idx, item in enumerate(items):
        imu = {m: read_ppm(paths.immunized_image(m, idx)) for m in methods}
        imperc = {m: full_report(item.image, imu[m], model) for m in methods}
        for pidx, caption in _prompts_for(cfg, item):
            prompt = model.encode_prompt(encode_caption(caption))
            clean = edit(model, item.image, prompt, cfg.t_edit, _edit_rng(cfg, idx, pidx))
            for m in methods:
                out = edit(model, imu[m], prompt, cfg.t_edit, _edit_rng(cfg, idx, pidx))
                defense = full_report(clean, out, model)
                row = {"image": idx, "prompt_idx": pidx, "prompt": caption, "method": m}
                for k in METRIC_NAMES:
                    row[f"defense_{k}"] = defense[k]
                    row[f"imperceptibility_{k}"] = imperc[m][k]
                want.append(row)
    assert rows == want


def test_evaluate_imperceptibility_bound(tiny_run):
    rows = read_csv(run_paths(tiny_run).results_csv)
    for r in rows:
        if r["method"] == "none":
            continue
        assert float(r["imperceptibility_psnr"]) >= 30.45


def test_evaluate_heatmaps_written(tiny_run):
    paths = run_paths(tiny_run)
    files = sorted(p.name for p in paths.heatmaps_dir.iterdir())
    assert "img_000_clean_attention.ppm" in files
    assert "img_000_clean_mask.ppm" in files
    assert "img_000_danp.json" in files


def test_evaluate_heatmaps_drop_maps_beyond_the_current_count(tiny_run, tmp_path):
    cfg = dataclasses.replace(tiny_run, out_dir=str(tmp_path))
    shutil.copytree(run_paths(tiny_run).root, run_paths(cfg).root)
    paths = run_paths(cfg)
    items = load_split(paths, "test")
    model = load_model(paths.model_bin)
    written = {}
    for n in (3, 1):
        run = dataclasses.replace(cfg, heatmap_images=n)
        assert config_hash(run) == config_hash(tiny_run)
        _write_heatmaps(model, run, paths, items, run.methods)
        written[n] = sorted(p.name for p in paths.heatmaps_dir.iterdir())
    assert {name[:7] for name in written[3]} == {"img_000", "img_001", "img_002"}
    assert written[1] == [name for name in written[3] if name.startswith("img_000_")]


def test_evaluate_missing_artifacts_listed(tmp_path):
    cfg = tiny_experiment(tmp_path)
    cmd_gen_data(cfg)
    cmd_train(cfg)
    with pytest.raises(MissingArtifactError) as err:
        cmd_evaluate(cfg)
    assert len(err.value.missing) == cfg.n_test * len(cfg.methods)


def test_evaluate_unseen_prompt_policy(tmp_path):
    cfg = tiny_experiment(tmp_path, n_test=2, edit_prompts="unseen",
                          methods=["none", "danp"])
    cmd_gen_data(cfg)
    cmd_train(cfg)
    cmd_immunize(cfg)
    cmd_evaluate(cfg)
    rows = read_csv(run_paths(cfg).results_csv)
    assert len(rows) == 2 * cfg.n_unseen * 2
    prompts = {r["prompt"] for r in rows}
    assert len(prompts) >= cfg.n_unseen


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def test_ablate_tables(tiny_run):
    paths = run_paths(tiny_run)
    comp = read_json(paths.components_json)
    methods = [r["method"] for r in comp["rows"]]
    assert methods == ["danp", "wo-daa", "wo-nba"]
    assert comp["contracts"]["wo-daa_daa_identically_zero"] is True
    assert comp["contracts"]["wo-nba_nba_identically_zero"] is True
    comp_csv = read_csv(paths.components_csv)
    assert set(comp_csv[0]) == {"method", "defense_psnr", "defense_ssim",
                                "defense_vifp", "defense_percep_dist"}
    bins = read_json(paths.bins_json)
    assert [r["bins"] for r in bins["rows"]] == list(tiny_run.ablate_bins)
    bins_csv = read_csv(paths.bins_csv)
    assert set(bins_csv[0]) == {"bins", "defense_psnr", "defense_ssim",
                                "defense_vifp", "defense_percep_dist",
                                "time_per_iter_s"}
    for r in bins["rows"]:
        assert r["time_per_iter_s"] > 0


@pytest.mark.parametrize("edit_prompts", ["original", "unseen"])
def test_ablate_sweep_scores_each_image_in_one_defense_pass(tiny_run, forward_calls,
                                                            tmp_path, edit_prompts):
    cfg = dataclasses.replace(tiny_run, out_dir=str(tmp_path), edit_prompts=edit_prompts)
    shutil.copytree(run_paths(tiny_run).root, run_paths(cfg).root)
    paths = run_paths(cfg)
    cmd_ablate(cfg)
    n_ablate = len(forward_calls)

    items = load_split(paths, "test")
    model = load_model(paths.model_bin)
    forward_calls.clear()
    _evaluate_rows(model, cfg, paths, items, list(ABLATION_METHODS))
    n_components = len(forward_calls)
    # per bin count: one forward per attacked timestep for each lockstep
    # chunk of the subset (ATTACK_ROWS images per chunk); per subset image:
    # one defense pass under the original caption that edits the clean image
    # and every bin count's image together, EDIT_ROWS rows per forward, and
    # runs the percep features of each edit
    subset = range(min(cfg.ablate_images, len(items)))
    n_bins = len(cfg.ablate_bins)
    attack = cfg.ablate_repeats * cfg.ablate_iterations * len(cfg.attack.timesteps)
    chunks = -(-len(subset) // ATTACK_ROWS)
    defense = cfg.t_edit * -(-(1 + n_bins) // EDIT_ROWS) + 1 + n_bins
    assert n_ablate == n_components + chunks * n_bins * attack + len(subset) * defense

    bins = read_json(paths.bins_json)
    before = read_json(run_paths(tiny_run).bins_json)
    for row, old in zip(bins["rows"], before["rows"]):
        assert {**row, "time_per_iter_s": 0} == {**old, "time_per_iter_s": 0}
        vals = {m: [] for m in METRIC_NAMES}
        for idx in subset:
            prompt = model.encode_prompt(encode_caption(items[idx].caption))
            clean = edit(model, items[idx].image, prompt, cfg.t_edit, _edit_rng(cfg, idx, 0))
            x_imu = read_ppm(paths.ablate_dir / f"bins_{row['bins']}_img_{idx:03d}.ppm")
            out = edit(model, x_imu, prompt, cfg.t_edit, _edit_rng(cfg, idx, 0))
            for m, v in full_report(clean, out, model).items():
                vals[m].append(v)
        for m in METRIC_NAMES:
            assert row[f"defense_{m}"] == float(np.mean(vals[m]))


def test_jobs_parallel_ablate_matches_serial(tiny_run, tmp_path):
    cfg = dataclasses.replace(tiny_run, out_dir=str(tmp_path), jobs=2)
    shutil.copytree(run_paths(tiny_run).root, run_paths(cfg).root)
    serial, parallel = run_paths(tiny_run).ablate_dir, run_paths(cfg).ablate_dir
    shutil.rmtree(parallel)
    cmd_ablate(cfg)
    names = sorted(p.name for p in serial.iterdir())
    assert sorted(p.name for p in parallel.iterdir()) == names
    for name in names:
        if not name.startswith("bins."):
            assert (parallel / name).read_bytes() == (serial / name).read_bytes(), name

    def untimed(rows):
        return [{**row, "time_per_iter_s": 0} for row in rows]

    blob, want = read_json(parallel / "bins.json"), read_json(serial / "bins.json")
    assert {**blob, "rows": untimed(blob["rows"])} == {**want, "rows": untimed(want["rows"])}
    assert untimed(read_csv(parallel / "bins.csv")) == untimed(read_csv(serial / "bins.csv"))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_regeneration_byte_identical(tiny_run):
    paths = run_paths(tiny_run)
    before_txt = paths.summary_txt.read_bytes()
    before_json = paths.report_json.read_bytes()
    cmd_report(tiny_run)
    assert paths.summary_txt.read_bytes() == before_txt
    assert paths.report_json.read_bytes() == before_json


def test_report_contents(tiny_run):
    paths = run_paths(tiny_run)
    text = paths.summary_txt.read_text()
    assert "DEFENSE" in text and "IMPERCEPTIBILITY" in text
    assert config_hash(tiny_run) in text
    blob = read_json(paths.report_json)
    assert blob["config_hash"] == config_hash(tiny_run)
    assert blob["ablation_components"] is not None


def test_report_requires_evaluate(tmp_path):
    cfg = tiny_experiment(tmp_path)
    cmd_gen_data(cfg)
    with pytest.raises(MissingArtifactError):
        cmd_report(cfg)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_full_pipeline_and_exit_codes(tmp_path):
    cfg = tiny_experiment(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg.save(cfg_path)
    base = ["--config", str(cfg_path)]
    assert main(["gen-data", *base]) == 0
    assert main(["train", *base]) == 0
    assert main(["immunize", *base, "--methods", "none,random-noise,danp"]) == 0
    assert main(["evaluate", *base]) == 0
    assert main(["report", *base]) == 0

    # 3: missing artifacts (fresh out dir via --out)
    assert main(["evaluate", *base, "--out", str(tmp_path / "fresh")]) == 3
    # 2: config errors
    assert main(["immunize", *base, "--methods", "bogus"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen-data", "--config", str(bad)]) == 2
    # 4: numeric failure (divergent lr)
    diverge = tiny_experiment(tmp_path / "div",
                              train={"steps": 300, "batch_size": 8, "lr": 1e9,
                                     "eval_every": 1000,
                                     "heldout_threshold": 2.0})
    dpath = tmp_path / "div.json"
    diverge.save(dpath)
    assert main(["gen-data", "--config", str(dpath)]) == 0
    assert main(["train", "--config", str(dpath)]) == 4


@pytest.mark.parametrize("command,damaged", [
    ("evaluate", "model/model.bin"), ("evaluate", "dataset/test_000.ppm"),
    ("report", "evaluate/results.json"),
])
def test_cli_corrupt_artifact_exits_3_naming_it(tiny_run, tmp_path, capsys,
                                                command, damaged):
    cfg = dataclasses.replace(tiny_run, out_dir=str(tmp_path))
    shutil.copytree(run_paths(tiny_run).root, run_paths(cfg).root)
    path = run_paths(cfg).root / damaged
    path.write_bytes(path.read_bytes()[:-7])
    cfg_path = tmp_path / "cfg.json"
    cfg.save(cfg_path)
    assert main([command, "--config", str(cfg_path)]) == 3
    assert str(path) in capsys.readouterr().err


def test_cli_edit_command(tmp_path, tiny_run):
    paths = run_paths(tiny_run)
    cfg_path = tmp_path / "cfg.json"
    tiny_run.save(cfg_path)
    src = paths.dataset_dir / "test_000.ppm"
    out = tmp_path / "edited.ppm"
    rc = main(["edit", "--config", str(cfg_path), "--image", str(src),
               "--caption", "blue circle on white background",
               "--output", str(out), "--t-edit", "8", "--edit-seed", "3"])
    assert rc == 0
    img = read_ppm(out)
    assert img.shape == (16, 16, 3)
    rc = main(["edit", "--config", str(cfg_path), "--image", str(src),
               "--caption", "sparkly circle on white background",
               "--output", str(out)])
    assert rc == 2  # unknown caption word
    rc = main(["edit", "--config", str(cfg_path), "--image", str(src),
               "--caption", "blue circle on white background",
               "--output", str(out), "--t-edit", "99"])
    assert rc == 2  # depth outside [0, T)
    small = tmp_path / "small.ppm"
    write_ppm(small, np.zeros((8, 8, 3), dtype=np.float32))
    rc = main(["edit", "--config", str(cfg_path), "--image", str(small),
               "--caption", "blue circle on white background", "--output", str(out)])
    assert rc == 2  # not the model's image size
    rc = main(["edit", "--config", str(cfg_path), "--image", str(tmp_path / "none.ppm"),
               "--caption", "blue circle on white background", "--output", str(out)])
    assert rc == 3  # missing input image


def test_cli_corrupt_model_header_exits_3_naming_it(tiny_run, tmp_path, capsys):
    """A model.bin whose header config the model rejects is a corrupt
    artifact, not a config error."""
    cfg = dataclasses.replace(tiny_run, out_dir=str(tmp_path))
    shutil.copytree(run_paths(tiny_run).root, run_paths(cfg).root)
    path = run_paths(cfg).model_bin
    header, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    header["config"]["image_size"] = 18
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    cfg_path = tmp_path / "cfg.json"
    cfg.save(cfg_path)
    assert main(["evaluate", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "image_size" in err


def test_cli_engine_error_is_not_a_config_error(tmp_path, monkeypatch):
    """A ValueError from the engine propagates (exit 1 with a traceback)
    instead of being reported as a config error."""
    def broken(cfg):
        raise ShapeMismatchError("matmul", (2, 3), (4, 5))

    monkeypatch.setattr(cli, "cmd_gen_data", broken)
    with pytest.raises(ShapeMismatchError):
        main(["gen-data", "--out", str(tmp_path)])


def test_cli_seed_override_changes_hash(tmp_path):
    cfg = tiny_experiment(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg.save(cfg_path)
    assert main(["gen-data", "--config", str(cfg_path), "--seed", "7"]) == 0
    bumped = ExperimentConfig.from_dict({**cfg.to_dict(), "seed": 7})
    assert run_paths(bumped).manifest.exists()
    assert config_hash(bumped) != config_hash(cfg)


def test_cli_rejects_zero_jobs(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path), "--jobs", "0"]) == 2
    assert not any(tmp_path.iterdir())


def test_cli_rejects_out_of_range_timesteps_before_writing(tmp_path):
    d = tiny_experiment(tmp_path / "runs").to_dict()
    d["attack"]["timesteps"] = [25]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(d))
    assert main(["gen-data", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "runs").exists()


def test_cli_overrides_seed_out_and_jobs(tmp_path):
    args = build_parser().parse_args(
        ["gen-data", "--seed", "7", "--out", str(tmp_path), "--jobs", "2"])
    cfg = load_config(args)
    assert config_hash(cfg) == config_hash(ExperimentConfig(seed=7))
    assert cfg.out_dir == str(tmp_path)
    assert cfg.jobs == 2


def timeless_report(paths, method, idx):
    report = read_json(paths.attack_report(method, idx))
    del report["wall_time_s"]
    return report


def test_jobs_parallel_immunize_matches_serial(tmp_path):
    """Serial immunize attacks each method's 3 images as one lockstep chunk;
    --jobs 2 splits them into chunks of 2 and 1 on two workers. Every
    artifact but the wall time is the same."""
    methods = ["random-noise", "danp", "wo-daa", "wo-nba", "sa-style"]
    serial = tiny_experiment(tmp_path / "s", methods=methods)
    cmd_gen_data(serial)
    cmd_train(serial)
    cmd_immunize(serial)
    parallel = tiny_experiment(tmp_path / "p", methods=methods)
    parallel.jobs = 2
    cmd_gen_data(parallel)
    cmd_train(parallel)
    cmd_immunize(parallel)
    ps, pp = run_paths(serial), run_paths(parallel)
    for method in serial.methods:
        for idx in range(3):
            for path in (ps.delta_file, ps.immunized_image):
                rel = path(method, idx).relative_to(ps.root)
                assert (ps.root / rel).read_bytes() == (pp.root / rel).read_bytes()
            assert timeless_report(ps, method, idx) == timeless_report(pp, method, idx)


def test_immunize_chunks_split_at_the_row_cap(tiny_run, tmp_path, monkeypatch):
    """With the lockstep cap at 2, each method's 3 images run as chunks of
    2 and 1; every image's artifacts equal the tiny run's (one chunk of 3)
    and its one-image immunize."""
    cfg = dataclasses.replace(tiny_run, out_dir=str(tmp_path))
    shutil.copytree(run_paths(tiny_run).root, run_paths(cfg).root)
    paths, ref = run_paths(cfg), run_paths(tiny_run)
    shutil.rmtree(paths.root / "immunize")
    chunks = []

    def recording(x0s, prompts, model, cfgs):
        chunks.append(len(x0s))
        return immunize_batch(x0s, prompts, model, cfgs)

    monkeypatch.setattr("imukit.harness.pipeline.ATTACK_ROWS", 2)
    monkeypatch.setattr("imukit.harness.pipeline.immunize_batch", recording)
    cmd_immunize(cfg, methods=["danp"])
    assert chunks == [2, 1]
    model = load_model(paths.model_bin)
    for idx, item in enumerate(load_split(paths, "test")):
        assert (paths.delta_file("danp", idx).read_bytes()
                == ref.delta_file("danp", idx).read_bytes())
        assert timeless_report(paths, "danp", idx) == timeless_report(ref, "danp", idx)
        acfg = method_attack_config(cfg, "danp", _derive_seed(
            cfg.seed, _ROLE_ATTACK, METHOD_CODES["danp"], idx))
        prompt = model.encode_prompt(item.tokens)
        x_imu, state = immunize(item.image, prompt, model, acfg)
        delta, _ = read_delta(paths.delta_file("danp", idx))
        assert delta.tobytes() == (x_imu - item.image).astype(np.float32).tobytes()
        assert timeless_report(paths, "danp", idx)["trace"] == state.trace


def test_jobs_parallel_evaluate_matches_serial(tmp_path):
    cfg = tiny_experiment(tmp_path, n_test=2, methods=["none", "random-noise"],
                          edit_prompts="both")
    cmd_gen_data(cfg)
    cmd_train(cfg)
    cmd_immunize(cfg)
    cmd_evaluate(cfg)
    paths = run_paths(cfg)
    serial = [paths.results_csv.read_bytes(), paths.results_json.read_bytes()]
    cfg.jobs = 2  # jobs is not hashed: same run directory
    cmd_evaluate(cfg)
    assert [paths.results_csv.read_bytes(), paths.results_json.read_bytes()] == serial
