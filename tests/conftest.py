import csv

import numpy as np
import pytest

import imukit.attack as attack
from imukit.diffusion.io import load_model
from imukit.diffusion.model import DenoiserModel, ModelConfig
from imukit.diffusion.schedule import build_schedule
from imukit.harness.artifacts import read_json
from imukit.harness.config import ExperimentConfig
from imukit.harness.pipeline import cmd_gen_data, cmd_train, load_split, run_paths
from imukit.ppm import read_ppm


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "reference: needs the trained default-scale reference run")


def pytest_collection_modifyitems(items):
    """Mark every test that trains or reads the reference run, so that
    `pytest -m "not reference"` runs the rest in a fraction of the time."""
    for item in items:
        if "ref_cfg" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.reference)


def tiny_experiment(out_dir, seed=0, **overrides):
    """A minutes-not-hours config for end-to-end harness tests."""
    d = {
        "seed": seed,
        "out_dir": str(out_dir),
        "n_train": 6,
        "n_test": 3,
        "model": {"image_size": 16, "widths": [8, 12, 16], "d_k": 8,
                  "d_text": 8, "d_time": 16, "T": 20,
                  "beta_min": 1e-4, "beta_max": 0.02},
        "train": {"steps": 60, "batch_size": 16, "eval_every": 30,
                  "heldout_threshold": 2.0},
        "attack": {"iterations": 4, "timesteps": [2, 9, 17],
                   "alpha_step": 0.0075},
        "methods": ["none", "random-noise", "danp"],
        "heatmap_images": 1,
        "ablate_images": 2,
        "ablate_iterations": 3,
        "ablate_bins": [16, 64],
        "ablate_repeats": 1,
    }
    d.update(overrides)
    return ExperimentConfig.from_dict(d)


def read_csv(path):
    """A CSV table's rows as dicts keyed by its header row."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def shape_masks(paths, split):
    """The split's rendered shape masks (bool H x W), read from the mask PPMs
    that gen-data writes, in manifest order."""
    return [read_ppm(paths.dataset_dir / entry["mask"])[:, :, 0] > 0.5
            for entry in read_json(paths.manifest)["items"]
            if entry["split"] == split]


@pytest.fixture(scope="session")
def tiny_model():
    """Random-init small model for mechanical (non-quality) tests."""
    sched = build_schedule(20)
    cfg = ModelConfig(image_size=16, widths=(8, 12, 16), d_k=8, d_text=8, d_time=16)
    model = DenoiserModel.init(cfg, seed=11, schedule=sched)
    model.set_trainable(False)
    return model


@pytest.fixture(scope="session")
def ref_cfg(tmp_path_factory):
    """Default-scale reference run: dataset rendered and model trained once.

    This is the expensive session fixture backing the acceptance criteria
    that require the trained reference model.
    """
    out = tmp_path_factory.mktemp("ref_run")
    cfg = ExperimentConfig(seed=0, out_dir=str(out))
    cmd_gen_data(cfg)
    cmd_train(cfg)
    return cfg


@pytest.fixture(scope="session")
def ref_model(ref_cfg):
    model = load_model(run_paths(ref_cfg).model_bin)
    return model


@pytest.fixture(scope="session")
def ref_test_items(ref_cfg):
    return load_split(run_paths(ref_cfg), "test")


@pytest.fixture()
def forward_calls(monkeypatch):
    """A list that grows by the batch size of every model pass.

    Every pass runs the encoder, a full forward and a feature pass alike, so
    this counts DenoiserModel.encode calls.
    """
    calls = []
    original = DenoiserModel.encode

    def counting(self, xb, *args, **kwargs):
        calls.append(xb.shape[0])
        return original(self, xb, *args, **kwargs)

    monkeypatch.setattr(DenoiserModel, "encode", counting)
    return calls


@pytest.fixture()
def mask_calls(monkeypatch):
    """Every BinaryMask the attack's dynamic threshold builds, in call order."""
    masks = []
    original = attack.make_mask

    def recording(*args, **kwargs):
        mask = original(*args, **kwargs)
        masks.append(mask)
        return mask

    monkeypatch.setattr(attack, "make_mask", recording)
    return masks


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
