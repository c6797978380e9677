import numpy as np
import pytest

from imukit import autodiff as ad
from imukit.autodiff import Tape, Tensor
from imukit.diffusion.io import load_model, save_model
from imukit.diffusion.model import (
    N_POS_CHANNELS, DenoiserModel, ModelConfig, positional_channels,
)
from imukit.diffusion.schedule import build_schedule
from imukit.diffusion.text import PAD_ID
from imukit.metrics import percep_features
from oracle_forward import oracle_forward
from oracles import row_slice, silu, softmax, transpose


PROMPT_IDS = (1, 17, 20, 4, 21, 0, 0, 0)


@pytest.fixture()
def prompt(tiny_model):
    return tiny_model.encode_prompt(PROMPT_IDS)


def forward_one(model, x, t, prompt, capture_attention=False):
    """forward_batch of one image and its prompt, as a batch of one."""
    return model.forward_batch(Tensor(x[None]), t, Tensor(prompt.matrix.data[None]),
                               capture_attention=capture_attention)


def test_output_shape_matches_input(tiny_model, prompt, rng):
    x = rng.random((16, 16, 3)).astype(np.float32)
    for t in (0, 7, 19):
        eps, rec = forward_one(tiny_model, x, t, prompt)
        assert eps.shape == (1, 16, 16, 3)
        assert rec is None


def test_captured_maps_rows_sum_to_one(tiny_model, prompt, rng):
    x = rng.random((16, 16, 3)).astype(np.float32)
    _, rec = forward_one(tiny_model, x, 3, prompt, capture_attention=True)
    assert len(rec.per_block) == 2
    assert [m.shape[1:3] for m in rec.per_block] == [(8, 8), (4, 4)]
    for maps in rec.per_block:
        sums = maps.data.sum(axis=-1)
        assert np.abs(sums - 1.0).max() <= 1e-6
        assert (maps.data >= 0).all()


def test_capture_does_not_change_prediction(tiny_model, prompt, rng):
    x = rng.random((16, 16, 3)).astype(np.float32)
    e1, _ = forward_one(tiny_model, x, 5, prompt, capture_attention=True)
    e2, _ = forward_one(tiny_model, x, 5, prompt)
    assert np.array_equal(e1.data, e2.data)


def test_prediction_deterministic(tiny_model, prompt, rng):
    x = rng.random((16, 16, 3)).astype(np.float32)
    e1, _ = forward_one(tiny_model, x, 5, prompt)
    e2, _ = forward_one(tiny_model, x, 5, prompt)
    assert np.array_equal(e1.data, e2.data)


def test_forward_matches_float64_reference(tiny_model, rng):
    ids = [2, 18, 20, 9, 21, 0, 0, 0]
    prompt = tiny_model.encode_prompt(ids)
    x = rng.random((16, 16, 3)).astype(np.float32)
    eps, rec = forward_one(tiny_model, x, 4, prompt, capture_attention=True)
    ref_eps, ref_maps = oracle_forward(tiny_model, x.astype(np.float64), 4, ids)
    assert np.allclose(eps.data[0], ref_eps, rtol=1e-4, atol=1e-5)
    for got, want in zip(rec.per_block, ref_maps):
        assert np.allclose(got.data[0], want, rtol=1e-4, atol=1e-6)


def test_encode_prompt_validation(tiny_model):
    with pytest.raises(ValueError):
        tiny_model.encode_prompt([1, 2, 3])  # wrong length
    with pytest.raises(ValueError):
        tiny_model.encode_prompt([999] * 8)  # out of vocabulary
    p = tiny_model.encode_prompt([5, 0, 0, 0, 0, 0, 0, 0])
    assert p.content_mask.tolist() == [True] + [False] * 7
    assert p.matrix.shape == (8, tiny_model.config.d_text)


def test_timestep_validation(tiny_model, prompt, rng):
    x = rng.random((16, 16, 3)).astype(np.float32)
    with pytest.raises(ValueError):
        forward_one(tiny_model, x, 20, prompt)


def test_input_shape_validation(tiny_model, prompt):
    with pytest.raises(ValueError):
        forward_one(tiny_model, np.zeros((8, 8, 3), dtype=np.float32), 1, prompt)


def test_serialization_round_trip_bit_exact(tmp_path, tiny_model, prompt, rng):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    loaded = load_model(path)
    assert loaded.config == tiny_model.config
    assert loaded.schedule.T == tiny_model.schedule.T
    for name in tiny_model.param_names():
        assert np.array_equal(loaded.params[name].data, tiny_model.params[name].data)
    x = rng.random((16, 16, 3)).astype(np.float32)
    p2 = loaded.encode_prompt(PROMPT_IDS)
    e1, _ = forward_one(tiny_model, x, 2, prompt)
    e2, _ = forward_one(loaded, x, 2, p2)
    assert np.array_equal(e1.data, e2.data)


def test_save_twice_byte_identical(tmp_path, tiny_model):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(tiny_model, p1)
    save_model(tiny_model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bottleneck_features_deterministic(tiny_model, rng):
    x = rng.random((16, 16, 3)).astype(np.float32)
    f1 = percep_features(x, tiny_model)
    f2 = percep_features(x, tiny_model)
    assert f1.shape == (4, 4, tiny_model.config.widths[2])
    assert np.array_equal(f1, f2)


def test_bottleneck_features_run_the_encoder_only(tiny_model, rng, monkeypatch):
    """A feature pass (percep_features) runs no decoder, and its features
    are the bottleneck activations of a full forward of the same input, bit
    for bit."""
    x = rng.random((16, 16, 3)).astype(np.float32)
    neutral = tiny_model.encode_prompt([PAD_ID] * 8)
    encoded = []
    original = DenoiserModel.encode

    def recording(self, *args, **kwargs):
        encoded.append(original(self, *args, **kwargs))
        return encoded[-1]

    monkeypatch.setattr(DenoiserModel, "encode", recording)
    forward_one(tiny_model, x, 1, neutral)
    full = encoded[-1][2].data[0]

    def no_decoder(self, *args, **kwargs):
        raise AssertionError("the feature pass called forward_batch")

    monkeypatch.setattr(DenoiserModel, "forward_batch", no_decoder)
    got = percep_features(x, tiny_model)
    assert np.array_equal(encoded[-1][2].data[0], full)
    f = full.astype(np.float64)
    want = f / (np.sqrt((f * f).sum(axis=-1, keepdims=True)) + 1e-12)
    assert np.array_equal(got, want)


def test_init_is_seeded():
    sched = build_schedule(20)
    cfg = ModelConfig(image_size=16, widths=(8, 12, 16), d_k=8, d_text=8, d_time=16)
    a = DenoiserModel.init(cfg, seed=3, schedule=sched)
    b = DenoiserModel.init(cfg, seed=3, schedule=sched)
    c = DenoiserModel.init(cfg, seed=4, schedule=sched)
    assert np.array_equal(a.params["enc0_w"].data, b.params["enc0_w"].data)
    assert not np.array_equal(a.params["enc0_w"].data, c.params["enc0_w"].data)


# ---------------------------------------------------------------------------
# fused forward against the unfused primitive chain
# ---------------------------------------------------------------------------

def _unfused_cross_attention(model, x4, pm, prefix, maps):
    bsz, h, w, c = x4.shape
    s = pm.shape[1]
    flat = ad.reshape(x4, (bsz, h * w, c))
    q = ad.matmul(flat, model.params[prefix + "_q"])
    k2 = ad.matmul(ad.reshape(pm, (bsz * s, pm.shape[2])), model.params[prefix + "_k"])
    v2 = ad.matmul(ad.reshape(pm, (bsz * s, pm.shape[2])), model.params[prefix + "_v"])
    k = ad.reshape(k2, (bsz, s, k2.shape[-1]))
    v = ad.reshape(v2, (bsz, s, v2.shape[-1]))
    scores = ad.scale(ad.matmul(q, transpose(k, (0, 2, 1))),
                      1.0 / np.sqrt(model.config.d_k))
    attn = softmax(scores, axis=-1)
    maps.append(ad.reshape(attn, (bsz, h, w, s)))
    out = ad.reshape(ad.matmul(attn, v), (bsz, h, w, c))
    return ad.add(x4, out)


def _unfused_dense(model, x4, w, b):
    bsz, h, wd, c = x4.shape
    flat = ad.reshape(x4, (bsz * h * wd, c))
    y = ad.add(ad.matmul(flat, model.params[w]), model.params[b])
    return ad.reshape(y, (bsz, h, wd, y.shape[-1]))


def _unfused_rows(model, x4, w):
    """x4's rows times w: with frozen weights one gemm per image, as the
    fused levels run them."""
    bsz, k = x4.shape[0], x4.shape[-1]
    lead = (bsz, -1) if not model.trainable and bsz > 1 else (-1,)
    y = ad.matmul(ad.reshape(x4, lead + (k,)), w)
    return ad.reshape(y, x4.shape[:-1] + (y.shape[-1],))


def _unfused_decoder_level(model, low, skip, t, prefix):
    """silu(upsample2x(low @ w[:cl] + b + temb) + skip @ w[cl:])."""
    w = model.params[prefix + "_w"]
    cl = low.shape[-1]
    yl = ad.add(ad.add(_unfused_rows(model, low, row_slice(w, 0, cl)),
                       model.params[prefix + "_b"]), model._temb(t, prefix))
    ys = _unfused_rows(model, skip, row_slice(w, cl, w.shape[0]))
    return silu(ad.add(ys, ad.upsample2x(yl)))


def _unfused_forward(model, xb, t, pm, maps):
    """DenoiserModel.forward_batch written with one primitive per step."""
    size = model.config.image_size
    pos = np.broadcast_to(positional_channels(size),
                          (xb.shape[0], size, size, N_POS_CHANNELS))
    x = ad.concat([xb, Tensor(pos)], axis=-1)
    h0 = model._level(x, t, "enc0")
    h0 = silu(_unfused_dense(model, h0, "enc0b_w", "enc0b_b"))
    h1 = model._level(ad.avgpool2x(h0), t, "enc1")
    h1 = _unfused_cross_attention(model, h1, pm, "attn1", maps)
    h2 = model._level(ad.avgpool2x(h1), t, "enc2")
    h2 = _unfused_cross_attention(model, h2, pm, "attn2", maps)
    d1 = _unfused_decoder_level(model, h2, h1, t, "dec1")
    d0 = _unfused_decoder_level(model, d1, h0, t, "dec0")
    return _unfused_dense(model, d0, "head_w", "head_b")


@pytest.mark.parametrize("bsz,trainable", [(1, False), (1, True), (64, False), (64, True)])
def test_forward_and_gradients_bitwise_match_unfused_chain(bsz, trainable):
    """The fused blocks reproduce the unfused chain's values and gradients.

    Frozen, only the input needs a gradient (the attack); trainable, every
    parameter does, and the prompt embedding collects gradients from four
    projections in the unfused chain's order (training). Both capture the
    (B, H, W, S) attention maps at every batch size.
    """
    gen = np.random.default_rng(90)
    model = DenoiserModel.init(ModelConfig(), seed=5, schedule=build_schedule(50))
    model.set_trainable(trainable)
    xs = gen.random((bsz, 32, 32, 3)).astype(np.float32)
    ids = gen.integers(1, 22, size=(bsz, 8))
    weights = [gen.normal(size=(bsz, 32, 32, 3)).astype(np.float32),
               gen.normal(size=(16, 16, 8)).astype(np.float32),
               gen.normal(size=(8, 8, 8)).astype(np.float32)]
    results = []
    for fused in (True, False):
        x = Tensor(xs, requires_grad=not trainable)
        with Tape() as tape:
            pm = model._embed_ids(ids)
            if fused:
                eps, rec = model.forward_batch(x, 17, pm, capture_attention=True)
                maps = rec.per_block
            else:
                maps = []
                eps = _unfused_forward(model, x, 17, pm, maps)
            terms = [ad.sum_(ad.mul(o, Tensor(w)))
                     for o, w in zip([eps] + maps, weights)]
            loss = terms[0]
            for term in terms[1:]:
                loss = ad.add(loss, term)
        grads = tape.backward(loss)
        leaves = [model.params[n] for n in model.param_names()] if trainable else [x]
        results.append(([eps.data] + [m.data for m in maps],
                        [grads[leaf] for leaf in leaves]))
    (fused_vals, fused_grads), (chain_vals, chain_grads) = results
    assert len(fused_vals) == 3
    for a, b in zip(fused_vals + fused_grads, chain_vals + chain_grads):
        assert a.dtype == b.dtype == np.float32
        assert np.array_equal(a, b)


def _unfused_temb(model, t, prefix):
    e = Tensor(model._time_vec(t)[None, :])
    proj = ad.add(ad.matmul(e, model.params[prefix + "_t"]),
                  ad.reshape(model.params[prefix + "_tb"], (1, -1)))
    return ad.reshape(proj, (proj.shape[1],))


def test_temb_is_one_dense_node_matching_the_unfused_chain():
    """On a trainable model each level's time projection is one dense node
    with the value and _t/_tb gradients of the matmul + add + reshape chain,
    so a forward records 18 nodes (23 with the chain)."""
    gen = np.random.default_rng(91)
    model = DenoiserModel.init(ModelConfig(), seed=5, schedule=build_schedule(50))
    prefixes = ("enc0", "enc1", "enc2", "dec1", "dec0")
    for prefix in prefixes:
        # nonzero biases, so the value check sees the add
        tb = model.params[prefix + "_tb"]
        model.params[prefix + "_tb"] = Tensor(gen.normal(size=tb.shape),
                                              requires_grad=True)
    for prefix in prefixes:
        w = Tensor(gen.normal(size=model.params[prefix + "_tb"].shape))
        results = []
        for temb in (model._temb, lambda t, p: _unfused_temb(model, t, p)):
            with Tape() as tape:
                out = temb(17, prefix)
                nodes = len(tape.nodes)
                loss = ad.sum_(ad.mul(out, w))
            grads = tape.backward(loss)
            results.append((nodes, out.data, grads[model.params[prefix + "_t"]],
                            grads[model.params[prefix + "_tb"]]))
        (fused_nodes, *fused), (chain_nodes, *chain) = results
        assert (fused_nodes, chain_nodes) == (1, 2)
        for a, b in zip(fused, chain):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)

    x = Tensor(gen.random((2, 32, 32, 3)).astype(np.float32))
    pm = Tensor(gen.normal(size=(2, 8, 16)))
    with Tape() as tape:
        model.forward_batch(x, 17, pm)
    assert len(tape.nodes) == 18


@pytest.fixture(scope="module")
def frozen_default_model():
    model = DenoiserModel.init(ModelConfig(), seed=8, schedule=build_schedule(50))
    model.set_trainable(False)
    return model


@pytest.mark.parametrize("bsz", [1, 2, 7, 18])
def test_frozen_forward_rows_are_batch_invariant(frozen_default_model, bsz):
    """Row i of a frozen-weight batch, each row under its own prompt, has the
    bits of that row's single-image forward, and so does its input gradient:
    the frozen gemms over rows flattened across images run per image."""
    model = frozen_default_model
    gen = np.random.default_rng(bsz)
    xs = gen.random((bsz, 32, 32, 3)).astype(np.float32)
    pms = np.stack([model.encode_prompt(ids).matrix.data
                    for ids in gen.integers(1, 22, size=(bsz, 8))])
    w = gen.normal(size=xs.shape).astype(np.float32)

    def run(rows):
        x = Tensor(xs[rows], requires_grad=True)
        with Tape() as tape:
            eps, _ = model.forward_batch(x, 23, Tensor(pms[rows]))
            loss = ad.sum_(ad.mul(eps, Tensor(w[rows])))
        return eps.data, tape.backward(loss)[x]

    eps, grad = run(slice(None))
    for i in range(bsz):
        eps1, grad1 = run(slice(i, i + 1))
        assert np.array_equal(eps[i], eps1[0])
        assert np.array_equal(grad[i], grad1[0])


def test_per_row_timesteps_match_the_shared_and_single_row_forwards(frozen_default_model):
    """A per-row timestep vector whose entries are all equal gives the bits
    of the shared-timestep forward, maps and input gradient included, and
    with distinct entries each row has the bits of its single-image forward
    at its own timestep."""
    model = frozen_default_model
    gen = np.random.default_rng(92)
    bsz = 3
    xs = gen.random((bsz, 32, 32, 3)).astype(np.float32)
    pms = np.stack([model.encode_prompt(ids).matrix.data
                    for ids in gen.integers(1, 22, size=(bsz, 8))])
    w = gen.normal(size=xs.shape).astype(np.float32)

    def run(rows, t):
        x = Tensor(xs[rows], requires_grad=True)
        with Tape() as tape:
            eps, rec = model.forward_batch(x, t, Tensor(pms[rows]), capture_attention=True)
            loss = ad.sum_(ad.mul(eps, Tensor(w[rows])))
        return [eps.data] + [m.data for m in rec.per_block] + [tape.backward(loss)[x]]

    for a, b in zip(run(slice(None), [17] * bsz), run(slice(None), 17)):
        assert np.array_equal(a, b)
    ts = [3, 17, 41]
    mixed = run(slice(None), ts)
    for i, t in enumerate(ts):
        for a, b in zip(mixed, run(slice(i, i + 1), t)):
            assert np.array_equal(a[i], b[0])


def test_per_row_timesteps_need_frozen_weights():
    model = DenoiserModel.init(ModelConfig(image_size=8, widths=(4, 4, 4)), seed=1,
                               schedule=build_schedule(20))
    x = Tensor(np.zeros((2, 8, 8, 3), dtype=np.float32))
    pm = Tensor(np.zeros((2, 8, 16), dtype=np.float32))
    with pytest.raises(ValueError, match="frozen"):
        model.forward_batch(x, [1, 2], pm)
