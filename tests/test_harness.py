import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_experiment
from imukit.harness.cli import build_parser, load_config, main
from imukit.harness.config import ConfigError, ExperimentConfig, config_hash
from imukit.harness.pipeline import (
    ABLATION_METHODS, MissingArtifactError, _edit_rng, _evaluate_rows, _prompts_for,
    _write_heatmaps, cmd_ablate, cmd_evaluate, cmd_gen_data, cmd_immunize, cmd_report,
    cmd_train, load_split, method_attack_config, run_paths,
)
from imukit.harness.artifacts import read_delta, read_json
from imukit.harness.tables import METRIC_NAMES, read_csv
from imukit.diffusion.io import load_model, save_model
from imukit.diffusion.sampling import EDIT_ROWS, edit
from imukit.diffusion.text import encode_caption
from imukit.metrics import full_report
from imukit.ppm import read_ppm


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
    ("attack", "bogus"),
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


@pytest.mark.parametrize("cut,extra", [(7, b""), (0, b"\0" * 5)],
                         ids=["truncated", "over-long"])
def test_model_bin_wrong_payload_size_names_the_file(tmp_path, tiny_model, cut, extra):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - cut] + extra)
    expected = 4 * tiny_model.n_params()
    with pytest.raises(ValueError) as err:
        load_model(path)
    msg = str(err.value)
    assert str(path) in msg
    assert f"expected {expected} bytes, got {expected - cut + len(extra)}" in msg


@pytest.mark.parametrize("method,daa_mode,lambda_nba", [
    ("none", "dual", 0.5), ("random-noise", "dual", 0.5),
    ("sa-style", "suppress-fixed", 0.0), ("danp", "dual", 0.5),
    ("wo-daa", "off", 0.5), ("wo-nba", "dual", 0.0),
])
def test_method_attack_config(tmp_path, method, daa_mode, lambda_nba):
    cfg = tiny_experiment(tmp_path, attack={
        "iterations": 4, "timesteps": [2, 9, 17], "alpha_step": 0.0075,
        "lambda_daa": 2.0, "lambda_nba": 0.5, "bins": 64, "daa_mode": "off"})
    acfg = method_attack_config(cfg, method, 1234)
    assert (acfg.daa_mode, acfg.lambda_nba, acfg.seed) == (daa_mode, lambda_nba, 1234)
    # every other field comes from the configured attack
    assert dataclasses.replace(acfg, daa_mode="off", lambda_nba=0.5, seed=0) == cfg.attack


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
        for item in load_split(run_paths(tiny_run), split):
            assert 0.05 <= item.mask.mean() <= 0.60


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
        imperc = {m: full_report(item.image, imu[m], model).to_dict() for m in methods}
        for pidx, caption in _prompts_for(cfg, item):
            prompt = model.encode_prompt(encode_caption(caption))
            clean = edit(model, item.image, prompt, cfg.t_edit, _edit_rng(cfg, idx, pidx))
            for m in methods:
                out = edit(model, imu[m], prompt, cfg.t_edit, _edit_rng(cfg, idx, pidx))
                defense = full_report(clean, out, model).to_dict()
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
def test_ablate_sweep_reuses_evaluated_clean_edits(tiny_run, forward_calls, tmp_path,
                                                   edit_prompts):
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
    # per bin count and subset image: two forwards per attacked timestep, then
    # the immunized image's edit and its percep features; the clean edits
    # and their features come from the component rows when those edit
    # under the original caption
    subset = range(min(cfg.ablate_images, len(items)))
    attack = cfg.ablate_repeats * cfg.ablate_iterations * len(cfg.attack.timesteps) * 2
    per_image = attack + cfg.t_edit + 1
    clean = 0 if edit_prompts == "original" else cfg.t_edit + 1
    assert n_ablate == (n_components + len(cfg.ablate_bins) * len(subset) * per_image
                        + len(subset) * clean)

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
            for m, v in full_report(clean, out, model).to_dict().items():
                vals[m].append(v)
        for m in METRIC_NAMES:
            assert row[f"defense_{m}"] == float(np.mean(vals[m]))


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


def test_cli_overrides_seed_out_and_jobs(tmp_path):
    args = build_parser().parse_args(
        ["gen-data", "--seed", "7", "--out", str(tmp_path), "--jobs", "2"])
    cfg = load_config(args)
    assert config_hash(cfg) == config_hash(ExperimentConfig(seed=7))
    assert cfg.out_dir == str(tmp_path)
    assert cfg.jobs == 2


def test_jobs_parallel_immunize_matches_serial(tmp_path):
    serial = tiny_experiment(tmp_path / "s", n_test=2,
                             methods=["random-noise", "danp"])
    cmd_gen_data(serial)
    cmd_train(serial)
    cmd_immunize(serial)
    parallel = tiny_experiment(tmp_path / "p", n_test=2,
                               methods=["random-noise", "danp"])
    parallel.jobs = 2
    cmd_gen_data(parallel)
    cmd_train(parallel)
    cmd_immunize(parallel)
    ps, pp = run_paths(serial), run_paths(parallel)
    for method in serial.methods:
        for idx in range(2):
            assert (ps.delta_file(method, idx).read_bytes()
                    == pp.delta_file(method, idx).read_bytes())


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
