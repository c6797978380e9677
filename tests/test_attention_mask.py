import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import shape_masks
from imukit.attention_mask import (
    AggregatedAttention, BinaryMask, DegenerateHistogramError, KapurHistogram,
    aggregate, dump_debug, fixed_threshold_mask, histogram_of, kapur_threshold,
    make_mask,
)
from imukit import autodiff as ad
from imukit.autodiff import Tape, Tensor
from imukit.diffusion.model import AttentionRecord, PromptEmbedding
from imukit.harness.pipeline import run_paths
from oracles import (
    fd_agreement, kapur_bruteforce, kapur_bruteforce_stacked, kapur_slice_scan,
    numeric_grad,
)


def fake_prompt(content):
    mask = np.asarray(content, dtype=bool)
    return PromptEmbedding(matrix=Tensor(np.zeros((mask.size, 4), dtype=np.float32)),
                           content_mask=mask)


def record_of(*maps):
    rec = AttentionRecord()
    for m in maps:
        rec.per_block.append(Tensor(np.asarray(m, dtype=np.float32)))
    return rec


def random_histograms(rng, L, n):
    """Mixed family: dense dirichlet-like, sparse, and spiky histograms."""
    out = []
    for k in range(n):
        kind = k % 3
        if kind == 0:
            h = rng.random(L)
        elif kind == 1:
            h = rng.random(L) * (rng.random(L) < 0.25)
            if h.sum() == 0:
                h[int(rng.integers(0, L))] = 1.0
        else:
            h = np.zeros(L)
            spikes = rng.integers(0, L, size=4)
            h[spikes] = rng.random(4) + 0.1
        out.append(h / h.sum())
    return np.asarray(out)


# ---------------------------------------------------------------------------
# kapur_threshold
# ---------------------------------------------------------------------------

def test_two_delta_histogram_ties_to_smallest():
    L = 16
    p = np.zeros(L)
    p[0] = 0.5
    p[L - 1] = 0.5
    tau, score = kapur_threshold(KapurHistogram(p))
    assert tau == 0
    assert score == pytest.approx(0.0, abs=1e-12)


def test_uniform_histogram_matches_bruteforce_near_midpoint():
    L = 128
    p = np.full(L, 1.0 / L)
    tau, score = kapur_threshold(KapurHistogram(p))
    want_tau, want_score = kapur_bruteforce(p)
    assert tau == want_tau
    assert score == pytest.approx(want_score, rel=1e-12)
    # analytic: maximize log(tau+1) + log(L-1-tau)
    assert abs(tau - (L // 2 - 1)) <= 1


def test_exact_match_with_bruteforce_on_random_histograms(rng):
    for L in (32, 128):
        hists = random_histograms(rng, L, 250)
        want_tau, _ = kapur_bruteforce_stacked(hists)
        for i in range(hists.shape[0]):
            tau, _ = kapur_threshold(KapurHistogram(hists[i]))
            assert tau == want_tau[i]


def test_single_bin_degenerate_raises():
    p = np.zeros(32)
    p[7] = 1.0
    with pytest.raises(DegenerateHistogramError):
        kapur_threshold(KapurHistogram(p))


def test_entropy_score_bounds(rng):
    # 0 <= H0+H1 at tau* and H0+H1 <= log(tau+1) + log(L-1-tau)
    for L in (32, 64):
        for h in random_histograms(rng, L, 60):
            try:
                tau, score = kapur_threshold(KapurHistogram(h))
            except DegenerateHistogramError:
                continue
            assert score >= -1e-12
            assert score <= np.log(tau + 1) + np.log(L - 1 - tau) + 1e-9


@st.composite
def sparse_histograms(draw):
    """Up to six runs of equal mass on a zero floor, L in [2, 512].

    Equal-mass runs make plateaus and exactly tied class masses; zero gaps
    make candidate splits that are identical to their left neighbour; a
    mirror image makes distinct splits whose scores tie in exact arithmetic.
    """
    L = draw(st.integers(2, 512))
    h = np.zeros(L)
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.integers(0, L - 1))
        length = draw(st.integers(1, 8))
        h[start:start + length] = draw(
            st.sampled_from([1.0, 2.0, 3.0]) | st.floats(0.01, 1.0))
    if draw(st.booleans()):
        h = h + h[::-1]
    return h / h.sum()


def class_entropy_sum(p, tau):
    """H0 + H1 at one split from the renormalized-class definition."""
    lo, hi = p[:tau + 1], p[tau + 1:]
    q0 = lo[lo > 0] / lo.sum()
    q1 = hi[hi > 0] / hi.sum()
    return -(q0 * np.log(q0)).sum() - (q1 * np.log(q1)).sum()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sparse_histograms())
def test_kapur_scan_property_matches_oracles(p):
    hist = KapurHistogram(p)
    if np.count_nonzero(hist.bins) < 2:
        with pytest.raises(DegenerateHistogramError):
            kapur_threshold(hist)
        return
    tau, score = kapur_threshold(hist)
    # tau and the score bits equal the per-tau slice-sum scan
    want_tau, want_score = kapur_slice_scan(hist.bins)
    assert tau == want_tau
    assert np.float64(score).tobytes() == np.float64(want_score).tobytes()
    # tau equals brute force; where distinct splits tie in exact arithmetic
    # (mirror-image runs), each scan picks by rounding, so tau is one of them
    bf_tau, bf_score = kapur_bruteforce(hist.bins)
    if tau != bf_tau:
        assert class_entropy_sum(hist.bins, tau) == pytest.approx(bf_score, abs=1e-12)


def test_kapur_exact_tie_is_decided_by_rounding():
    # tau=3 and tau=5 split the nine equal bins 4|5 and 5|4: an exact tie
    p = np.zeros(12)
    p[[0, 1, 2, 3, 5, 6, 7, 8, 9]] = 1.0 / 9.0
    hist = KapurHistogram(p)
    tau, score = kapur_threshold(hist)
    assert tau in (3, 5)
    assert class_entropy_sum(hist.bins, 3) == pytest.approx(
        class_entropy_sum(hist.bins, 5), abs=1e-12)
    want_tau, want_score = kapur_slice_scan(hist.bins)
    assert tau == want_tau
    assert np.float64(score).tobytes() == np.float64(want_score).tobytes()


@given(L=st.integers(2, 512), data=st.data())
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
def test_kapur_scan_single_bin_raises(L, data):
    p = np.zeros(L)
    p[data.draw(st.integers(0, L - 1))] = 1.0
    with pytest.raises(DegenerateHistogramError):
        kapur_threshold(KapurHistogram(p))


def test_histogram_validation():
    with pytest.raises(ValueError):
        KapurHistogram(np.array([0.5, 0.4]))  # mass != 1
    with pytest.raises(ValueError):
        KapurHistogram(np.array([1.5, -0.5]))  # negative
    with pytest.raises(ValueError):
        KapurHistogram(np.array([1.0]))  # single bin


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

def test_single_block_single_token_is_normalized_copy(rng):
    m = rng.random((4, 4, 3)).astype(np.float32)
    rec = record_of(m)
    agg = aggregate(rec, fake_prompt([True, False, False]))
    want = m[:, :, 0]
    want = (want - want.min()) / (want.max() - want.min())
    assert not agg.degenerate
    assert np.allclose(agg.map.data, want, atol=1e-6)
    assert np.allclose(agg.map.data.min(), 0.0) and np.allclose(agg.map.data.max(), 1.0)


def test_constant_map_degenerates_to_zero():
    rec = record_of(np.full((4, 4, 2), 0.5))
    agg = aggregate(rec, fake_prompt([True, True]))
    assert agg.degenerate
    assert np.array_equal(agg.map.data, np.zeros((4, 4), dtype=np.float32))


def test_two_block_hand_computed_aggregation():
    # 1x1 block and 2x2 block with one content token; upsample then average
    b_small = np.array([[[0.4]]], dtype=np.float32)           # 1x1x1
    b_big = np.array([[[0.0], [0.2]], [[0.6], [1.0]]], dtype=np.float32)  # 2x2x1
    rec = record_of(b_small, b_big)
    agg = aggregate(rec, fake_prompt([True]))
    pre_want = (np.full((2, 2), 0.4) + b_big[:, :, 0]) / 2.0
    assert np.allclose(agg.pre_norm.data, pre_want, atol=1e-6)
    norm_want = (pre_want - pre_want.min()) / (pre_want.max() - pre_want.min())
    assert np.allclose(agg.map.data, norm_want, atol=1e-6)


def test_aggregate_requires_content_tokens(rng):
    rec = record_of(rng.random((4, 4, 2)).astype(np.float32))
    with pytest.raises(ValueError):
        aggregate(rec, fake_prompt([False, False]))
    with pytest.raises(ValueError):
        aggregate(AttentionRecord(), fake_prompt([True]))


def test_aggregate_is_differentiable(rng):
    """pre_norm, the map the DAA loss uses, carries the gradient; the
    normalized map is a constant equal to the float32 min-max normalization."""
    raw = rng.random((4, 4, 2)).astype(np.float32)
    prompt = fake_prompt([True, True])
    x = Tensor(raw, requires_grad=True)
    with Tape() as tape:
        rec = AttentionRecord(per_block=[x])
        agg = aggregate(rec, prompt)
        y = ad.frobenius_sq(agg.pre_norm)
    got = tape.backward(y)[x]

    def f(v):
        return float((v.mean(axis=2) ** 2).sum())

    want = numeric_grad(f, raw.astype(np.float64))
    assert fd_agreement(got, want) >= 0.99

    pre = agg.pre_norm.data
    want = (pre - pre.min()) / (pre.max() - pre.min())
    assert not agg.map.requires_grad
    assert want.dtype == agg.map.data.dtype == np.float32
    assert agg.map.data.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# make_mask
# ---------------------------------------------------------------------------

def bimodal_agg():
    v = np.full((4, 4), 0.1, dtype=np.float32)
    v[2:, :] = 0.9
    return AggregatedAttention(map=Tensor(v), pre_norm=Tensor(v), degenerate=False)


def test_bimodal_mask_selects_upper_mode():
    agg = bimodal_agg()
    bm = make_mask(agg, 128)
    want = (agg.map.data > 0.5).astype(np.uint8)
    assert np.array_equal(bm.mask, want)
    assert not bm.degenerate
    assert 0.0 < bm.threshold_used < 0.9


def test_constant_agg_gives_flagged_zero_mask():
    v = np.zeros((4, 4), dtype=np.float32)
    agg = AggregatedAttention(map=Tensor(v), pre_norm=Tensor(v), degenerate=True)
    bm = make_mask(agg, 64)
    assert bm.degenerate
    assert bm.mask.sum() == 0


def test_mask_binary_and_both_classes_present(rng):
    for _ in range(20):
        v = rng.random((8, 8)).astype(np.float32)
        v = (v - v.min()) / (v.max() - v.min())
        agg = AggregatedAttention(map=Tensor(v), pre_norm=Tensor(v), degenerate=False)
        bm = make_mask(agg, 32)
        assert set(np.unique(bm.mask)).issubset({0, 1})
        assert 0 < bm.mask.sum() < bm.mask.size


def test_mask_invariant_to_affine_rescaling(rng):
    """Min-max normalization absorbs any positive affine map: bit-identical."""
    raw = rng.random((6, 6, 1)).astype(np.float32)
    base = None
    for a, b in [(1.0, 0.0), (2.0, 0.0), (0.5, 1.25), (3.7, -0.4), (256.0, 11.0)]:
        rec = record_of(a * raw + b)
        agg = aggregate(rec, fake_prompt([True]))
        bm = make_mask(agg, 128)
        if base is None:
            base = bm.mask
        else:
            assert np.array_equal(bm.mask, base), f"mask changed under ({a}, {b})"


def test_histogram_binning_edges():
    h = histogram_of(np.array([0.0, 1.0, 0.999999, 0.5]), 4)
    # 1.0 and 0.999999 land in the top bin; 0.5 on a boundary goes up
    assert np.allclose(h.bins, [0.25, 0.0, 0.25, 0.5])


def test_fixed_threshold_mask_uses_unnormalized_map():
    pre = np.array([[0.01, 0.03], [0.5, 0.0]], dtype=np.float32)
    agg = AggregatedAttention(map=Tensor(np.zeros((2, 2), dtype=np.float32)),
                              pre_norm=Tensor(pre), degenerate=False)
    bm = fixed_threshold_mask(agg, 0.02)
    assert np.array_equal(bm.mask, [[0, 1], [1, 0]])
    assert bm.threshold_used == pytest.approx(0.02)


def test_mask_iou_against_ground_truth_shape(ref_cfg, ref_model, ref_test_items):
    """Localization regression: mean mask IoU with the rendered shape mask
    stays above the floor measured on the reference model."""
    from imukit.diffusion import forward_diffuse, predict_noise
    ious = []
    shapes = shape_masks(run_paths(ref_cfg), "test")
    for item, shape in zip(ref_test_items, shapes, strict=True):
        prompt = ref_model.encode_prompt(item.tokens)
        gen = np.random.default_rng(11)
        eps = gen.standard_normal(item.image.shape).astype(np.float32)
        x_t = forward_diffuse(ref_model.schedule, item.image, 25, eps)
        _, rec = predict_noise(ref_model, x_t, 25, prompt, capture_attention=True)
        agg = aggregate(rec, prompt)
        bm = make_mask(agg, 128, timestep=25)
        gt = shape.reshape(16, 2, 16, 2).mean(axis=(1, 3)) > 0.5
        pred = bm.mask.astype(bool)
        union = (pred | gt).sum()
        ious.append(((pred & gt).sum() / union) if union else 0.0)
    mean_iou = float(np.mean(ious))
    print(f"mask IoU vs ground truth: mean {mean_iou:.3f}")
    assert mean_iou >= 0.05  # pinned floor from the reference measurement


def test_dump_debug_writes_artifacts(tmp_path, rng):
    agg = bimodal_agg()
    bm = make_mask(agg, 64, timestep=3)
    prefix = tmp_path / "dbg"
    dump_debug(agg, bm, str(prefix))
    import json
    from imukit.ppm import read_ppm
    assert read_ppm(f"{prefix}_attention.ppm").shape == (4, 4, 3)
    assert read_ppm(f"{prefix}_mask.ppm").shape == (4, 4, 3)
    side = json.loads((tmp_path / "dbg.json").read_text())
    assert side["timestep"] == 3 and side["degenerate"] is False
    assert side["threshold"] == pytest.approx(bm.threshold_used)
