"""Float32 containers (one JSON header line + little-endian float32 payload)
and the model weights file built on them."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from imukit.autodiff import Tensor
from imukit.diffusion.model import DenoiserModel, ModelConfig
from imukit.diffusion.schedule import build_schedule

_FORMAT = "imukit-weights-v1"


def write_container(path, header, arrays):
    """header as one sorted-key JSON line, then each array as "<f4" bytes."""
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_container(path, fmt, shapes_of):
    """Bit-exact inverse of write_container: (header, float32 arrays).

    shapes_of(header) lists the payload's array shapes. A header that is not a
    JSON line of format fmt, or a payload of another size, raises ValueError
    naming the path.
    """
    with open(path, "rb") as f:
        line = f.readline()
        payload = f.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as e:
        raise ValueError(f"{path}: unreadable header: {e}") from None
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise ValueError(f"{path}: unrecognized format, expected {fmt}")
    shapes = [tuple(shape) for shape in shapes_of(header)]
    expected = 4 * sum(int(np.prod(shape)) for shape in shapes)
    if len(payload) != expected:
        raise ValueError(f"{path}: payload size mismatch: expected "
                         f"{expected} bytes, got {len(payload)}")
    arrays, offset = [], 0
    for shape in shapes:
        n = int(np.prod(shape))
        arrays.append(np.frombuffer(payload, dtype="<f4", count=n, offset=offset)
                      .reshape(shape).astype(np.float32))
        offset += 4 * n
    return header, arrays


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
    write_container(path, header, [model.params[n].data for n in names])


def load_model(path, trainable=False):
    """Bit-exact inverse of save_model."""
    header, arrays = read_container(
        path, _FORMAT, lambda h: [shape for _, shape in h["params"]])
    config = ModelConfig(**header["config"])
    sched = build_schedule(header["schedule"]["T"], header["schedule"]["beta_min"],
                           header["schedule"]["beta_max"])
    params = {name: Tensor(arr, requires_grad=False)
              for (name, _), arr in zip(header["params"], arrays)}
    return DenoiserModel(config, params, schedule=sched, trainable=trainable)
