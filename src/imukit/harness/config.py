"""Experiment configuration: one JSON document fully determines a run."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from imukit.attack import AttackConfig, resolve_timesteps
from imukit.diffusion.dataset import UNSEEN_PLANS
from imukit.diffusion.model import ModelConfig
from imukit.diffusion.schedule import build_schedule
from imukit.diffusion.training import TrainConfig
from imukit.harness.artifacts import write_json

METHODS = ("none", "random-noise", "sa-style", "danp", "wo-daa", "wo-nba")
METHOD_CODES = {m: i for i, m in enumerate(METHODS)}

EDIT_POLICIES = ("original", "unseen", "both")

# execution details and output counts; they never enter the config hash
_UNHASHED = ("out_dir", "jobs", "heatmap_images", "ablate_repeats")


class ConfigError(ValueError):
    """Invalid or unreadable experiment configuration."""


def check_methods(methods):
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")


@dataclass
class ModelSpec:
    image_size: int = 32
    widths: tuple = (16, 24, 32)
    d_k: int = 16
    d_text: int = 16
    d_time: int = 32
    T: int = 50
    beta_min: float = 1e-4
    beta_max: float = 0.02

    def __post_init__(self):
        self.widths = tuple(self.widths)

    def build(self):
        """(ModelConfig, NoiseSchedule); ValueError when either is invalid."""
        mconfig = ModelConfig(image_size=self.image_size, widths=self.widths,
                              d_k=self.d_k, d_text=self.d_text, d_time=self.d_time)
        return mconfig, build_schedule(self.T, self.beta_min, self.beta_max)


_SECTIONS = {"model": ModelSpec, "train": TrainConfig, "attack": AttackConfig}


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs"
    n_train: int = 40
    n_test: int = 20
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    methods: tuple = METHODS
    edit_prompts: str = "original"
    n_unseen: int = 5
    edit_t_frac: float = 0.6
    heatmap_images: int = 4
    ablate_images: int = 4
    ablate_iterations: int = 30
    ablate_bins: tuple = (32, 64, 128, 256)
    ablate_repeats: int = 3
    jobs: int = 1

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise ConfigError("n_train and n_test must be >= 1")
        if self.edit_prompts not in EDIT_POLICIES:
            raise ConfigError(
                f"edit_prompts must be one of {EDIT_POLICIES}, got {self.edit_prompts!r}")
        check_methods(self.methods)
        if not 0 <= self.n_unseen <= len(UNSEEN_PLANS):
            raise ConfigError(f"n_unseen must be in [0, {len(UNSEEN_PLANS)}], "
                              f"got {self.n_unseen}")
        if self.n_unseen == 0 and self.edit_prompts != "original":
            raise ConfigError(
                f"edit_prompts {self.edit_prompts!r} needs n_unseen >= 1")
        if not (0.0 <= self.edit_t_frac < 1.0):
            raise ConfigError(f"edit_t_frac must be in [0, 1), got {self.edit_t_frac}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.ablate_images < 1 or self.ablate_repeats < 1:
            raise ConfigError("ablate_images and ablate_repeats must be >= 1")
        if len(set(self.ablate_bins)) != len(self.ablate_bins) or any(
                b < 2 for b in self.ablate_bins):
            raise ConfigError(
                f"ablate_bins must be distinct and >= 2, got {list(self.ablate_bins)}")
        if self.attack.daa_mode != "dual":
            raise ConfigError(f"attack.daa_mode is set per method; only 'dual' "
                              f"is accepted, got {self.attack.daa_mode!r}")
        # what train and immunize would reject only after gen-data has run
        try:
            _, schedule = self.model.build()
            resolve_timesteps(self.attack, schedule)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        self.methods = tuple(self.methods)
        self.ablate_bins = tuple(self.ablate_bins)

    @property
    def t_edit(self):
        return int(round(self.edit_t_frac * self.model.T))

    def to_dict(self):
        """The config.json document; the train and attack seeds follow the run seed."""
        d = asdict(self)
        d["train"]["seed"] = d["attack"]["seed"] = self.seed
        return d

    def hashable_dict(self):
        """Everything that shapes the outputs."""
        d = self.to_dict()
        for key in _UNHASHED:
            del d[key]
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        try:
            for name, section in _SECTIONS.items():
                if name in d:
                    kw = dict(d[name])
                    if name in ("train", "attack"):
                        kw.pop("seed", None)  # follows the run seed
                    d[name] = section(**kw)
            return cls(**d)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad experiment config: {e}") from e

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        return cls.from_dict(data)

    def save(self, path):
        write_json(path, self.to_dict())


def config_hash(cfg):
    """Stable 12-hex-digit digest of every output-shaping hyperparameter."""
    blob = json.dumps(cfg.hashable_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
