import numpy as np
import pytest

from imukit.diffusion.io import write_container
from imukit.harness.artifacts import write_json
from imukit.harness.tables import write_csv
from imukit.ppm import atomic_write, read_ppm, write_heatmap_ppm, write_ppm


def test_round_trip_exact_on_grid(tmp_path, rng):
    img = (rng.integers(0, 256, size=(8, 10, 3)).astype(np.float32)) / np.float32(255.0)
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.dtype == np.float32
    assert back.shape == (8, 10, 3)
    assert np.array_equal(back, img)


def test_write_clips_and_rounds(tmp_path):
    img = np.array([[[-0.2, 0.4, 1.3]]], dtype=np.float32)
    path = tmp_path / "clip.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert np.allclose(back[0, 0], [0.0, 102 / 255, 1.0], atol=1e-7)


def test_header_and_comments(tmp_path):
    raw = b"P6\n# a comment\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0])
    p = tmp_path / "c.ppm"
    p.write_bytes(raw)
    img = read_ppm(p)
    assert img.shape == (1, 2, 3)
    assert np.allclose(img[0, 0], [1.0, 0.0, 0.0])


def test_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(ValueError):
        read_ppm(p)
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))


def test_heatmap_writes_valid_ppm(tmp_path, rng):
    vals = rng.normal(size=(6, 6))
    path = tmp_path / "heat.ppm"
    write_heatmap_ppm(path, vals)
    img = read_ppm(path)
    assert img.shape == (6, 6, 3)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_heatmap_constant_input(tmp_path):
    write_heatmap_ppm(tmp_path / "flat.ppm", np.ones((4, 4)))
    img = read_ppm(tmp_path / "flat.ppm")
    assert img.shape == (4, 4, 3)


def test_truncated_payload_names_the_file_and_byte_counts(tmp_path, rng):
    img = rng.random((4, 5, 3)).astype(np.float32)
    path = tmp_path / "cut.ppm"
    write_ppm(path, img)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(ValueError) as err:
        read_ppm(path)
    msg = str(err.value)
    assert str(path) in msg
    assert "expected 60 bytes, got 53" in msg


@pytest.mark.parametrize("raw,field", [
    (b"P6\n4 ", "height ''"),
    (b"P6\nx 4\n255\n", "width 'x'"),
], ids=["cut-short", "non-numeric"])
def test_bad_header_field_names_the_file_and_field(tmp_path, raw, field):
    path = tmp_path / "head.ppm"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as err:
        read_ppm(path)
    msg = str(err.value)
    assert str(path) in msg
    assert f"header {field} is not a number" in msg


def _raise_inside(path):
    with atomic_write(path, "wb") as f:
        f.write(b"partial")
        raise RuntimeError("interrupted")


@pytest.mark.parametrize("write,error", [
    (_raise_inside, RuntimeError),
    # each fails after it has written part of the file
    (lambda path: write_json(path, {"a": 1, "b": object()}), TypeError),
    (lambda path: write_csv(path, ["a"], [{"a": 1.0}, {}]), KeyError),
    (lambda path: write_container(path, {"format": "f"}, [np.zeros(3), "x"]), ValueError),
])
@pytest.mark.parametrize("old", [None, b"old content"])
def test_a_write_that_raises_leaves_the_target_as_it_was(tmp_path, write, error, old):
    """The target keeps its old content, or stays absent, and no temporary
    file is left beside it."""
    path = tmp_path / "artifact"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(error):
        write(path)
    assert sorted(tmp_path.iterdir()) == ([] if old is None else [path])
    assert old is None or path.read_bytes() == old


def test_atomic_write_replaces_the_target_whole(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"old content")
    img = np.full((2, 3, 3), 0.5, dtype=np.float32)
    write_ppm(path, img)
    assert list(tmp_path.iterdir()) == [path]
    with open(path, "rb") as f:
        assert f.read() == b"P6\n3 2\n255\n" + bytes([128] * 18)
