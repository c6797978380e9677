"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rA to see them). The expensive fixtures
(trained reference model, immunization runs) are session-scoped and shared.
"""

import time

import numpy as np
import pytest

from conftest import tiny_experiment
from imukit import autodiff as ad
from imukit.attack import AttackConfig, immunize, total_loss
from imukit.attention_mask import KapurHistogram, aggregate, kapur_threshold, make_mask
from imukit.autodiff import Tape, Tensor
from imukit.diffusion import predict_noise
from imukit.diffusion.model import AttentionRecord
from imukit.harness.artifacts import read_json
from imukit.harness.config import config_hash
from imukit.harness.pipeline import (
    cmd_ablate, cmd_evaluate, cmd_gen_data, cmd_immunize, cmd_train, load_split,
    run_paths,
)
from imukit.harness.tables import read_csv
from imukit.metrics import percep_dist, psnr, ssim, vifp
from imukit.ppm import read_ppm
from oracle_forward import oracle_total_loss
from oracles import (
    REFERENCE_OPS, fd_agreement, kapur_bruteforce_stacked, numeric_grad,
    psnr_direct, ssim_direct,
)
from test_attack import IDS, grid_image, micro_model


def passline(n, msg):
    print(f"\nACCEPTANCE {n}: PASS - {msg}")


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def defense_run(ref_cfg):
    """Immunize + evaluate danp vs the random baseline on the reference run."""
    methods = ("random-noise", "danp")
    t0 = time.perf_counter()
    cmd_immunize(ref_cfg, methods=methods)
    cmd_evaluate(ref_cfg, methods=methods)
    elapsed = time.perf_counter() - t0
    paths = run_paths(ref_cfg)
    rows = read_csv(paths.results_csv)
    return {"rows": rows, "elapsed": elapsed, "paths": paths, "methods": methods}


@pytest.fixture(scope="session")
def small_run(tmp_path_factory):
    """Tiny-scale pipeline exercising every method plus the ablation tables."""
    cfg = tiny_experiment(tmp_path_factory.mktemp("accept_small"), seed=2,
                          methods=["none", "random-noise", "sa-style", "danp",
                                   "wo-daa", "wo-nba"])
    cmd_gen_data(cfg)
    cmd_train(cfg)
    cmd_immunize(cfg)
    cmd_ablate(cfg)
    return cfg


# ---------------------------------------------------------------------------
# 1. Kapur oracle equivalence
# ---------------------------------------------------------------------------

def acceptance_histograms(rng, L, n):
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
            h[rng.integers(0, L, size=4)] = rng.random(4) + 0.1
        out.append(h / h.sum())
    return np.asarray(out)


def test_acceptance_1_kapur_oracle_equivalence():
    gen = np.random.default_rng(1001)
    t0 = time.perf_counter()
    total = 0
    for L in (32, 128, 256):
        hists = acceptance_histograms(gen, L, 1000)
        want_tau, _ = kapur_bruteforce_stacked(hists)
        for i in range(hists.shape[0]):
            tau, _ = kapur_threshold(KapurHistogram(hists[i]))
            assert tau == want_tau[i], f"L={L} histogram {i}: {tau} != {want_tau[i]}"
            total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"kapur equivalence took {elapsed:.2f}s"
    passline(1, f"{total} histograms exact-match brute force in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Gradient correctness
# ---------------------------------------------------------------------------

def test_acceptance_2_gradient_correctness():
    gen = np.random.default_rng(2002)
    t0 = time.perf_counter()

    # every autodiff primitive against float64 finite differences
    def check(build, ref, x0, out_shape):
        w = gen.normal(size=out_shape).astype(np.float32)
        x = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            y = ad.sum_(ad.mul(build(x), Tensor(w)))
        got = tape.backward(y)[x]
        w64 = w.astype(np.float64)
        want = numeric_grad(lambda xv: float((ref(xv) * w64).sum()), x0)
        frac = fd_agreement(got, want)
        assert frac >= 0.99, f"{build}: agreement {frac}"

    x = (gen.normal(size=(6, 5)) + np.sign(gen.normal(size=(6, 5))) * 0.1)
    x = x.astype(np.float32)
    xs = gen.normal(size=(4, 4, 3)).astype(np.float32)
    gen.normal(size=(4, 4))  # keeps the later operands' draws
    b = (gen.normal(size=(6, 5)) + 3.0).astype(np.float32)
    b64 = b.astype(np.float64)
    w2 = gen.normal(size=(5, 7)).astype(np.float32)
    w64 = w2.astype(np.float64)
    cases = [
        (ad.silu, REFERENCE_OPS["silu"], x, (6, 5)),
        (ad.square, REFERENCE_OPS["square"], x, (6, 5)),
        (lambda t: ad.softmax(t, axis=-1), REFERENCE_OPS["softmax"], x, (6, 5)),
        (lambda t: ad.scale(t, 1.7), lambda v: 1.7 * v, x, (6, 5)),
        (lambda t: ad.add(t, Tensor(b)), lambda v: v + b64, x, (6, 5)),
        (lambda t: ad.sub(t, Tensor(b)), lambda v: v - b64, x, (6, 5)),
        (lambda t: ad.mul(t, Tensor(b)), lambda v: v * b64, x, (6, 5)),
        (lambda t: ad.matmul(t, Tensor(w2)), lambda v: v @ w64, x, (6, 7)),
        (lambda t: ad.reshape(t, (5, 6)), lambda v: v.reshape(5, 6), x, (5, 6)),
        (ad.transpose, lambda v: v.T, x, (5, 6)),
        (lambda t: ad.concat([t, t], axis=0), lambda v: np.concatenate([v, v]),
         x, (12, 5)),
        (ad.upsample2x, REFERENCE_OPS["upsample2x"], xs, (8, 8, 3)),
        (ad.avgpool2x, REFERENCE_OPS["avgpool2x"], xs, (2, 2, 3)),
    ]
    for build, ref, x0, out_shape in cases:
        check(build, ref, x0, out_shape)
    for build, ref in [
        (ad.sum_, lambda v: v.sum()),
        (ad.mean_, lambda v: v.mean()),
        (ad.frobenius_sq, lambda v: (v ** 2).sum()),
        (lambda t: ad.l2_sq_distance(t, Tensor(b)), lambda v: ((v - b64) ** 2).sum()),
    ]:
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            y = build(xt)
        got = tape.backward(y)[xt]
        want = numeric_grad(lambda xv: float(ref(xv)), x)
        assert fd_agreement(got, want) >= 0.99

    # full attack objective on an 8x8x3 instance, randomly initialized model
    model = micro_model(seed=41)
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(gen)
    delta0 = gen.uniform(-0.02, 0.02, x0.shape).astype(np.float32)
    eps = gen.standard_normal(x0.shape).astype(np.float32)
    t = 9
    with Tape():
        d = Tensor(delta0, requires_grad=True)
        _, comps = total_loss(x0, d, model, prompt, t, eps)
    mask = comps["mask"]
    with Tape() as tape:
        d = Tensor(delta0, requires_grad=True)
        loss, _ = total_loss(x0, d, model, prompt, t, eps, mask_override=mask)
    got = tape.backward(loss)[d]
    want = numeric_grad(
        lambda dv: oracle_total_loss(model, x0, dv, eps, IDS,
                                     prompt.content_mask, t, mask.mask),
        delta0.astype(np.float64), h=1e-3)
    frac = fd_agreement(got, want)
    elapsed = time.perf_counter() - t0
    assert frac >= 0.99, f"total-loss gradient agreement {frac}"
    assert elapsed < 60.0
    passline(2, f"17 primitives + total objective vs finite differences "
                f"(agreement {frac:.4f}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Imperceptibility bound
# ---------------------------------------------------------------------------

def test_acceptance_3_imperceptibility_bound(defense_run, small_run, ref_test_items):
    checked = 0
    worst = np.inf
    for method in defense_run["methods"]:
        for idx, item in enumerate(ref_test_items):
            x_imu = read_ppm(defense_run["paths"].immunized_image(method, idx))
            p = psnr(item.image, x_imu)
            worst = min(worst, p)
            assert p >= 30.45, f"{method} image {idx}: psnr {p:.3f}"
            checked += 1
    spaths = run_paths(small_run)
    sitems = load_split(spaths, "test")
    for method in small_run.methods:
        if method == "none":
            continue
        for idx, item in enumerate(sitems):
            x_imu = read_ppm(spaths.immunized_image(method, idx))
            p = psnr(item.image, x_imu)
            worst = min(worst, p)
            assert p >= 30.45, f"{method} image {idx}: psnr {p:.3f}"
            checked += 1
    passline(3, f"psnr(x0, x_imu) >= 30.45 dB for all {checked} immunized "
                f"outputs (worst {worst:.2f} dB)")


# ---------------------------------------------------------------------------
# 4. Defense efficacy at toy scale
# ---------------------------------------------------------------------------

def test_acceptance_4_defense_efficacy(defense_run):
    rows = defense_run["rows"]
    danp = {int(r["image"]): r for r in rows if r["method"] == "danp"}
    rand = {int(r["image"]): r for r in rows if r["method"] == "random-noise"}
    assert len(danp) == 20 and len(rand) == 20
    d_psnr = np.array([float(danp[i]["defense_psnr"]) for i in sorted(danp)])
    r_psnr = np.array([float(rand[i]["defense_psnr"]) for i in sorted(rand)])
    d_perc = np.array([float(danp[i]["defense_percep_dist"]) for i in sorted(danp)])
    r_perc = np.array([float(rand[i]["defense_percep_dist"]) for i in sorted(rand)])

    med_gap = np.median(r_psnr) - np.median(d_psnr)
    psnr_wins = (d_psnr < r_psnr).mean()
    perc_wins = (d_perc > r_perc).mean()
    assert med_gap >= 1.0, f"median defense psnr gap {med_gap:.2f} dB < 1"
    assert psnr_wins >= 0.80, f"danp psnr wins on {psnr_wins:.0%} of images"
    assert perc_wins >= 0.70, f"danp percep_dist higher on {perc_wins:.0%}"
    assert defense_run["elapsed"] <= 900.0, f"took {defense_run['elapsed']:.0f}s"
    passline(4, f"median gap {med_gap:.2f} dB, psnr wins {psnr_wins:.0%}, "
                f"percep wins {perc_wins:.0%}, runtime {defense_run['elapsed']:.0f}s")


def test_trace_trend_pinned_floor(defense_run):
    """Per-image danp loss trace: final below initial on a pinned share of runs.

    The mask is recomputed every step, so the attention term is measured
    against a moving target and the per-iteration total is only a trend, not
    a monotone curve; the floor is pinned from the reference measurement.
    """
    paths = defense_run["paths"]
    down = []
    for idx in range(20):
        report = read_json(paths.attack_report("danp", idx))
        trace = report["trace"]
        down.append(trace[-1]["total"] < trace[0]["total"])
    frac = float(np.mean(down))
    print(f"\ntrace trend final<initial: {frac:.2f} of danp runs")
    assert frac >= 0.75  # measured 0.95 on the reference run


# ---------------------------------------------------------------------------
# 5. Ablation structure
# ---------------------------------------------------------------------------

def test_acceptance_5_ablation_structure(small_run):
    paths = run_paths(small_run)
    comp = read_json(paths.components_json)
    assert [r["method"] for r in comp["rows"]] == ["danp", "wo-daa", "wo-nba"]
    for row in comp["rows"]:
        for m in ("psnr", "ssim", "vifp", "percep_dist"):
            assert np.isfinite(row[f"defense_{m}"])
    assert comp["contracts"]["wo-daa_daa_identically_zero"] is True
    assert comp["contracts"]["wo-nba_nba_identically_zero"] is True

    items = load_split(paths, "test")
    for idx in range(len(items)):
        wo_daa = read_json(paths.attack_report("wo-daa", idx))
        assert all(e["daa"] == 0.0 for e in wo_daa["trace"])
        wo_nba = read_json(paths.attack_report("wo-nba", idx))
        assert all(e["nba"] == 0.0 for e in wo_nba["trace"])

    bins_csv = read_csv(paths.bins_csv)
    assert [r["bins"] for r in bins_csv] == [str(b) for b in small_run.ablate_bins]
    assert set(bins_csv[0]) == {"bins", "defense_psnr", "defense_ssim",
                                "defense_vifp", "defense_percep_dist",
                                "time_per_iter_s"}
    passline(5, "ablation rows for {danp, w/o DAA, w/o NBA} with identically "
                "zero disabled components; bin sweep carries time/iter")


# ---------------------------------------------------------------------------
# 6. NBA zero-point
# ---------------------------------------------------------------------------

def test_acceptance_6_nba_zero_point():
    gen = np.random.default_rng(6006)
    model = micro_model(seed=66)
    prompt = model.encode_prompt(IDS)
    x0 = grid_image(gen)
    for t in (1, 9, 18):
        eps = gen.standard_normal(x0.shape).astype(np.float32)
        with Tape():
            delta = Tensor(np.zeros_like(x0), requires_grad=True)
            _, comps = total_loss(x0, delta, model, prompt, t, eps)
        assert comps["nba_raw"] == 0.0
        assert comps["nba"] == 0.0
    passline(6, "with delta=0 and shared noise the noise term is exactly 0 "
                "(bit-level branch identity) at three timesteps")


# ---------------------------------------------------------------------------
# 7. Metric sanity
# ---------------------------------------------------------------------------

def test_acceptance_7_metric_sanity(ref_model, ref_test_items):
    gen = np.random.default_rng(7007)
    x = gen.random((32, 32, 3))
    assert ssim(x, x) == pytest.approx(1.0, abs=1e-6)
    assert vifp(x, x) == pytest.approx(1.0, abs=1e-3)
    for _ in range(20):
        a = gen.random((16, 16, 3))
        b = np.clip(a + gen.normal(0, gen.random() * 0.2, a.shape), 0, 1)
        assert psnr(a, b) == pytest.approx(psnr_direct(a, b), abs=1e-6)
        assert ssim(a, b) == pytest.approx(ssim_direct(a, b), abs=1e-6)
    # monotonicity properties
    vals = [ssim(x, x + gen.normal(0, s, x.shape)) for s in (0.01, 0.05, 0.1)]
    assert vals[0] > vals[1] > vals[2]
    from scipy.ndimage import gaussian_filter
    assert vifp(x, gaussian_filter(x, (2.5, 2.5, 0))) < \
        vifp(x, gaussian_filter(x, (0.6, 0.6, 0)))
    assert vifp(x, np.clip(x + gen.normal(0, 0.1, x.shape), 0, 1)) < 1.0
    a = ref_test_items[0].image
    b = ref_test_items[1].image
    pvals = [percep_dist(a, ((1 - f) * a + f * b).astype(np.float32), ref_model)
             for f in (0.25, 0.5, 1.0)]
    assert pvals[0] < pvals[1] < pvals[2]
    assert percep_dist(a, a, ref_model) == 0.0
    assert abs(percep_dist(a, b, ref_model) - percep_dist(b, a, ref_model)) <= 1e-6
    passline(7, "ssim/vifp fixed points, direct-formula oracle agreement on "
                "20 pairs, and all monotonicity properties hold")


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------

def test_acceptance_8_full_pipeline_determinism(tmp_path_factory):
    outs = []
    for name in ("det_a", "det_b"):
        cfg = tiny_experiment(tmp_path_factory.mktemp(name), seed=5,
                              methods=["none", "random-noise", "danp"])
        cmd_gen_data(cfg)
        cmd_train(cfg)
        cmd_immunize(cfg)
        cmd_evaluate(cfg)
        outs.append(run_paths(cfg))
    a, b = outs
    compared = 0
    for rel in sorted(p.relative_to(a.root) for p in a.root.rglob("*") if p.is_file()):
        fa, fb = a.root / rel, b.root / rel
        assert fb.exists(), f"missing {rel} in the second run"
        if rel.name == "config.json":
            continue  # embeds the differing out_dir by design
        if rel.suffix == ".json":
            da, db = read_json(fa), read_json(fb)
            for d in (da, db):
                d.pop("wall_time_s", None)
            assert da == db, f"{rel} differs between runs"
        else:
            assert fa.read_bytes() == fb.read_bytes(), f"{rel} differs between runs"
        compared += 1
    assert compared > 10
    passline(8, f"two pipeline runs byte-identical across {compared} artifacts "
                f"(deltas, images, tables)")


# ---------------------------------------------------------------------------
# 9. Mask invariance
# ---------------------------------------------------------------------------

def test_acceptance_9_mask_invariance(ref_model, ref_test_items, mask_calls):
    gen = np.random.default_rng(9009)
    # bit-identical under positive affine rescaling of the raw map
    from imukit.diffusion.model import PromptEmbedding
    raw = gen.random((16, 16, 1)).astype(np.float32)
    prompt = PromptEmbedding(matrix=Tensor(np.zeros((1, 4))),
                             content_mask=np.array([True]))
    base = None
    for a_s, b_s in [(1.0, 0.0), (2.0, 0.0), (0.5, 1.25), (3.7, -0.4), (977.0, 13.0)]:
        rec = AttentionRecord(per_block=[Tensor(a_s * raw + b_s)])
        agg = aggregate(rec, prompt)
        bm = make_mask(agg, 128)
        assert set(np.unique(bm.mask)).issubset({0, 1})
        if base is None:
            base = bm.mask
        else:
            assert np.array_equal(bm.mask, base), f"affine ({a_s}, {b_s}) changed mask"

    # masks strictly binary and recomputed per timestep over a 3-iteration run
    item = ref_test_items[0]
    p = ref_model.encode_prompt(item.tokens)
    cfg = AttackConfig(iterations=3, seed=99)
    immunize(item.image, p, ref_model, cfg)
    from imukit.attack import resolve_timesteps
    ts = resolve_timesteps(cfg, ref_model.schedule)
    assert [m.timestep for m in mask_calls] == list(ts) * 3
    distinct = set()
    for m in mask_calls:
        assert set(np.unique(m.mask)).issubset({0, 1})
        distinct.add(m.mask.tobytes())
    assert len(distinct) > 1  # the mask genuinely changes across (iter, t)
    passline(9, "mask bit-identical under affine rescaling; strictly binary "
                f"and recomputed at every (iteration, timestep) "
                f"({len(mask_calls)} masks)")
