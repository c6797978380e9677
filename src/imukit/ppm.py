"""Binary PPM (P6) image I/O.

Images travel through the pipeline as float32 (H, W, 3) arrays in [0, 1];
on disk they are 8-bit binary PPM. Round-trips are exact for values on the
k/255 grid.
"""

from __future__ import annotations

import numpy as np


def write_ppm(path, img):
    """Write a float [0,1] (H, W, 3) array as binary P6 with maxval 255."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"write_ppm: expected (H, W, 3), got {img.shape}")
    h, w = img.shape[:2]
    data = np.clip(np.rint(img.astype(np.float64) * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_ppm(path):
    """Read a binary P6 file into a float32 (H, W, 3) array in [0, 1]."""
    with open(path, "rb") as f:
        raw = f.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        # skip whitespace and '#' comments between header fields
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P6":
        raise ValueError(f"read_ppm: {path}: not a binary PPM (P6) file")
    for name, value in zip(("width", "height", "maxval"), fields[1:]):
        if not value.isdigit():
            raise ValueError(f"read_ppm: {path}: header {name} "
                             f"{value.decode('ascii', 'replace')!r} is not a number")
    w, h, maxval = map(int, fields[1:])
    if maxval != 255:
        raise ValueError(f"read_ppm: {path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace after maxval
    expected, actual = h * w * 3, max(len(raw) - pos, 0)
    if actual < expected:
        raise ValueError(f"read_ppm: {path}: truncated payload: expected {expected} "
                         f"bytes, got {actual}")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=expected, offset=pos)
    return (pixels.reshape(h, w, 3).astype(np.float32)) / np.float32(255.0)


def write_heatmap_ppm(path, values):
    """Write a (H, W) array as a blue-to-red heat PPM, min-max scaled."""
    v = np.asarray(values, dtype=np.float64)
    lo, hi = float(v.min()), float(v.max())
    t = np.zeros_like(v) if hi <= lo else (v - lo) / (hi - lo)
    img = np.stack([t, 0.15 + 0.2 * t * (1.0 - t) * 4.0 * 0.5, 1.0 - t], axis=-1)
    write_ppm(path, img)
