"""Model weights container: one JSON header line + little-endian float32 payload."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from imukit.autodiff import Tensor
from imukit.diffusion.model import DenoiserModel, ModelConfig
from imukit.diffusion.schedule import build_schedule

_FORMAT = "imukit-weights-v1"


def save_model(model, path):
    if model.schedule is None:
        raise ValueError("save_model: model has no schedule attached")
    names = model.param_names()
    header = {
        "format": _FORMAT,
        "config": asdict(model.config),
        "schedule": {
            "T": model.schedule.T,
            "beta_min": model.schedule.beta_min,
            "beta_max": model.schedule.beta_max,
        },
        "params": [[n, list(model.params[n].shape)] for n in names],
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for n in names:
            arr = np.ascontiguousarray(model.params[n].data, dtype="<f4")
            f.write(arr.tobytes())


def load_model(path, trainable=False):
    """Bit-exact inverse of save_model."""
    with open(path, "rb") as f:
        header_line = f.readline()
        payload = f.read()
    header = json.loads(header_line.decode("utf-8"))
    if header.get("format") != _FORMAT:
        raise ValueError(f"load_model: {path}: unrecognized format")
    config = ModelConfig(**header["config"])
    sched = build_schedule(header["schedule"]["T"], header["schedule"]["beta_min"],
                           header["schedule"]["beta_max"])
    expected = 4 * sum(int(np.prod(shape)) for _, shape in header["params"])
    if len(payload) != expected:
        raise ValueError(f"load_model: {path}: payload size mismatch: expected "
                         f"{expected} bytes, got {len(payload)}")
    params = {}
    offset = 0
    for name, shape in header["params"]:
        n = int(np.prod(shape))
        arr = np.frombuffer(payload, dtype="<f4", count=n,
                            offset=offset).reshape(shape)
        offset += n * 4
        params[name] = Tensor(arr.astype(np.float32), requires_grad=False)
    return DenoiserModel(config, params, schedule=sched, trainable=trainable)
