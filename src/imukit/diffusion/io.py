"""Float32 containers (one JSON header line + little-endian float32 payload)
and the model weights file built on them."""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict

import numpy as np

from imukit.autodiff import Tensor
from imukit.diffusion.model import DenoiserModel, ModelConfig, _param_specs
from imukit.diffusion.schedule import build_schedule
from imukit.ppm import ArtifactError, atomic_write

_FORMAT = "imukit-weights-v1"


def write_container(path, header, arrays):
    """header as one sorted-key JSON line, then each array as "<f4" bytes."""
    with atomic_write(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_container(path, fmt, shapes_of):
    """Bit-exact inverse of write_container: (header, float32 arrays).

    shapes_of(header) lists the payload's array shapes. A header that is not a
    JSON line of format fmt, whose shapes shapes_of cannot read or are not
    lists of non-negative ints, or a payload of another size, raises
    ArtifactError naming the path.
    """
    with open(path, "rb") as f:
        line = f.readline()
        payload = f.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as e:
        raise ArtifactError(f"{path}: unreadable header: {e}") from None
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise ArtifactError(f"{path}: unrecognized format, expected {fmt}")
    try:
        shapes = [tuple(shape) for shape in shapes_of(header)]
    except (KeyError, TypeError, ValueError) as e:
        raise ArtifactError(f"{path}: header has no readable array shapes: {e!r}") from None
    if not all(type(n) is int and n >= 0 for shape in shapes for n in shape):
        raise ArtifactError(f"{path}: array shapes must be lists of non-negative "
                            f"ints, got {[list(shape) for shape in shapes]}")
    expected = 4 * sum(int(np.prod(shape)) for shape in shapes)
    if len(payload) != expected:
        raise ArtifactError(f"{path}: payload size mismatch: expected "
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


def load_model(path):
    """Bit-exact inverse of save_model.

    A header whose params list differs from the one its model config
    defines, in names, order or shapes, or a param holding a NaN or Inf,
    raises ArtifactError naming the path.
    """
    header, arrays = read_container(
        path, _FORMAT, lambda h: [shape for _, shape in h["params"]])
    try:
        config = ModelConfig(**header["config"])
        sched = build_schedule(header["schedule"]["T"], header["schedule"]["beta_min"],
                               header["schedule"]["beta_max"])
    except (KeyError, TypeError, ValueError) as e:
        raise ArtifactError(f"{path}: bad model header: {e!r}") from None
    want = [(name, shape) for name, shape, _ in _param_specs(config)]
    got = [(name, tuple(shape)) for name, shape in header["params"]]
    for i, (w, g) in enumerate(itertools.zip_longest(want, got)):
        if w != g:
            raise ArtifactError(f"{path}: params do not match the model config: "
                                f"param {i} is {g}, expected {w}")
    params = {}
    for (name, _), arr in zip(header["params"], arrays):
        if not np.isfinite(arr).all():
            raise ArtifactError(f"{path}: param {name} holds non-finite values")
        params[name] = Tensor(arr, requires_grad=False)
    return DenoiserModel(config, params, schedule=sched)
