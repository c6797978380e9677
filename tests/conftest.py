import numpy as np
import pytest

from imukit.diffusion import DenoiserModel, ModelConfig, build_schedule, load_model
from imukit.harness.config import ExperimentConfig
from imukit.harness.pipeline import cmd_gen_data, cmd_train, load_split, run_paths


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
    """A list that grows by the batch size of every DenoiserModel.forward_batch call."""
    calls = []
    original = DenoiserModel.forward_batch

    def counting(self, xb, *args, **kwargs):
        calls.append(xb.shape[0])
        return original(self, xb, *args, **kwargs)

    monkeypatch.setattr(DenoiserModel, "forward_batch", counting)
    return calls


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
