"""On-disk containers: raw float32 delta files and JSON/CSV helpers."""

from __future__ import annotations

import json

import numpy as np

from imukit.diffusion.io import read_container, write_container

_DELTA_FORMAT = "imukit-delta-v1"


def write_delta(path, delta, meta=None):
    """JSON header line + little-endian float32 payload; exact round-trip."""
    header = {"format": _DELTA_FORMAT, "shape": list(np.shape(delta))}
    if meta:
        header["meta"] = meta
    write_container(path, header, [delta])


def read_delta(path):
    header, (delta,) = read_container(path, _DELTA_FORMAT, lambda h: [h["shape"]])
    return delta, header.get("meta", {})


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)
