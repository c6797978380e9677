import weakref

import numpy as np
import pytest

from imukit import autodiff as ad
from imukit.autodiff import (
    GradientError, NonFiniteError, ShapeMismatchError, Tape, Tensor,
)
from oracles import REFERENCE_OPS, fd_agreement, numeric_grad

RNG = np.random.default_rng(1234)


def analytic_grad(build, x0):
    """Gradient of scalar build(Tensor) at x0 via the production tape."""
    x = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        y = build(x)
    return tape.backward(y)[x]


def check_fd(build, ref, x0, out_shape):
    """Production VJP vs central differences of the float64 reference."""
    w = RNG.normal(size=out_shape).astype(np.float32)
    wt = Tensor(w)
    got = analytic_grad(lambda t: ad.sum_(ad.mul(build(t), wt)), x0)
    w64 = w.astype(np.float64)
    want = numeric_grad(lambda xv: float((ref(xv) * w64).sum()), x0)
    frac = fd_agreement(got, want)
    assert frac >= 0.99, f"gradient agreement {frac:.3f} < 0.99"
    # and the forward values themselves agree
    prod = build(Tensor(x0)).data.astype(np.float64)
    assert np.allclose(prod, ref(x0.astype(np.float64)), rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("name,op", [
    ("silu", ad.silu), ("square", ad.square),
    ("softmax", lambda t: ad.softmax(t, axis=-1)),
])
def test_unary_fd(name, op):
    x = RNG.normal(size=(6, 5)).astype(np.float32)
    x = x + np.sign(x) * 0.1  # entries at least 0.1 away from zero
    check_fd(op, REFERENCE_OPS[name], x, (6, 5))


def test_scale_fd():
    x = RNG.normal(size=(3, 7)).astype(np.float32)
    check_fd(lambda t: ad.scale(t, -2.5), lambda xv: -2.5 * xv, x, (3, 7))


@pytest.mark.parametrize("op,ref", [
    (ad.add, lambda a, b: a + b),
    (ad.sub, lambda a, b: a - b),
    (ad.mul, lambda a, b: a * b),
])
def test_binary_fd(op, ref):
    a = RNG.normal(size=(4, 3)).astype(np.float32)
    b = (RNG.normal(size=(4, 3)) + 3.0).astype(np.float32)
    bt, at = Tensor(b), Tensor(a)
    b64, a64 = b.astype(np.float64), a.astype(np.float64)
    check_fd(lambda t: op(t, bt), lambda xv: ref(xv, b64), a, (4, 3))
    check_fd(lambda t: op(at, t), lambda xv: ref(a64, xv), b, (4, 3))


def test_broadcast_suffix_fd():
    a = RNG.normal(size=(4, 3)).astype(np.float32)
    b = RNG.normal(size=(3,)).astype(np.float32)
    at, bt = Tensor(a), Tensor(b)
    check_fd(lambda t: ad.add(at, t), lambda xv: a.astype(np.float64) + xv, b, (4, 3))
    check_fd(lambda t: ad.mul(t, bt), lambda xv: xv * b.astype(np.float64), a, (4, 3))
    s = np.asarray(1.7, dtype=np.float32)
    check_fd(lambda t: ad.mul(at, t), lambda xv: a.astype(np.float64) * xv, s, (4, 3))


def test_matmul_fd():
    a = RNG.normal(size=(4, 3)).astype(np.float32)
    b = RNG.normal(size=(3, 5)).astype(np.float32)
    at, bt = Tensor(a), Tensor(b)
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    check_fd(lambda t: ad.matmul(t, bt), lambda xv: xv @ b64, a, (4, 5))
    check_fd(lambda t: ad.matmul(at, t), lambda xv: a64 @ xv, b, (4, 5))
    a3 = RNG.normal(size=(2, 4, 3)).astype(np.float32)
    b3 = RNG.normal(size=(2, 3, 5)).astype(np.float32)
    check_fd(lambda t: ad.matmul(t, bt), lambda xv: xv @ b64, a3, (2, 4, 5))
    check_fd(lambda t: ad.matmul(Tensor(a3), t),
             lambda xv: a3.astype(np.float64) @ xv, b3, (2, 4, 5))


def test_softmax_rows_sum_to_one():
    x = RNG.normal(size=(20, 8)).astype(np.float32) * 4.0
    y = ad.softmax(Tensor(x), axis=-1).data
    assert np.abs(y.sum(axis=-1) - 1.0).max() <= 1e-6
    assert (y > 0).all() and (y < 1).all()
    assert np.allclose(ad.softmax(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])


def test_reduction_fd():
    x = RNG.normal(size=(4, 5)).astype(np.float32)
    x64 = x.astype(np.float64)
    for build, ref in [
        (ad.sum_, lambda xv: xv.sum()),
        (ad.mean_, lambda xv: xv.mean()),
        (ad.frobenius_sq, lambda xv: (xv ** 2).sum()),
    ]:
        got = analytic_grad(build, x)
        want = numeric_grad(lambda xv: float(ref(xv)), x)
        assert fd_agreement(got, want) >= 0.99
    check_fd(lambda t: ad.sum_(t, axis=1), lambda xv: xv.sum(axis=1), x, (4,))
    check_fd(lambda t: ad.mean_(t, axis=0), lambda xv: xv.mean(axis=0), x, (5,))
    assert float(ad.mean_(Tensor(x)).data) == pytest.approx(x64.mean(), rel=1e-6)


def test_l2_sq_distance_fd_and_example():
    a = RNG.normal(size=(7,)).astype(np.float32)
    b = RNG.normal(size=(7,)).astype(np.float32)
    bt = Tensor(b)
    b64 = b.astype(np.float64)
    got = analytic_grad(lambda t: ad.l2_sq_distance(t, bt), a)
    want = numeric_grad(lambda xv: float(((xv - b64) ** 2).sum()), a)
    assert fd_agreement(got, want) >= 0.99
    g = analytic_grad(lambda t: ad.l2_sq_distance(t, Tensor([0.0, 0.0])),
                      np.array([1.0, 2.0], dtype=np.float32))
    assert np.allclose(g, [2.0, 4.0])


def test_structural_fd():
    x = RNG.normal(size=(4, 6)).astype(np.float32)
    check_fd(lambda t: ad.reshape(t, (6, 4)), lambda xv: xv.reshape(6, 4), x, (6, 4))
    check_fd(ad.transpose, lambda xv: xv.T, x, (6, 4))
    other = RNG.normal(size=(2, 6)).astype(np.float32)
    check_fd(lambda t: ad.concat([t, Tensor(other)], axis=0),
             lambda xv: np.concatenate([xv, other.astype(np.float64)], axis=0),
             x, (6, 6))
    sp = RNG.normal(size=(4, 4, 3)).astype(np.float32)
    check_fd(ad.upsample2x, REFERENCE_OPS["upsample2x"], sp, (8, 8, 3))
    check_fd(ad.avgpool2x, REFERENCE_OPS["avgpool2x"], sp, (2, 2, 3))


def test_upsample_avgpool_values():
    x = np.arange(12, dtype=np.float32).reshape(2, 2, 3)
    up = ad.upsample2x(Tensor(x)).data
    assert up.shape == (4, 4, 3)
    assert np.array_equal(up[0, 0], x[0, 0]) and np.array_equal(up[1, 1], x[0, 0])
    down = ad.avgpool2x(Tensor(up)).data
    assert np.allclose(down, x)


def test_spec_scalar_examples():
    assert ad.frobenius_sq(Tensor(np.ones((2, 2)))).item() == 4.0
    g = analytic_grad(ad.frobenius_sq, np.array([2.0, -1.0], dtype=np.float32))
    assert np.allclose(g, [4.0, -2.0])
    g = analytic_grad(ad.sum_, np.zeros(3, dtype=np.float32))
    assert np.array_equal(g, np.ones(3, dtype=np.float32))


def test_backward_accumulates_fanout():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        y = ad.add(ad.sum_(x), ad.sum_(x))
    assert np.array_equal(tape.backward(y)[x], [2.0, 2.0, 2.0])


def test_backward_contracts():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.sum_(x)
        v = ad.scale(x, 2.0)
    with pytest.raises(GradientError):
        tape.backward(v)  # non-scalar root
    empty = Tape()
    with pytest.raises(GradientError):
        empty.backward(y)
    with Tape() as other:
        ad.scale(x, 1.0)
    with pytest.raises(GradientError):
        other.backward(y)  # root not computed on this tape


def test_backward_consumes_the_tape():
    x = Tensor(RNG.normal(size=(8, 16)).astype(np.float32), requires_grad=True)
    w = Tensor(RNG.normal(size=(16, 16)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        h = ad.dense_silu(x, w, Tensor(np.zeros(16, dtype=np.float32)))
        loss = ad.sum_(ad.square(h))
    activation = weakref.ref(h.data)
    del h
    grads = tape.backward(loss)
    assert set(grads) == {x, w}
    assert tape.nodes == []
    assert activation() is None  # freed with its node, though the tape lives
    with pytest.raises(GradientError):
        tape.backward(loss)


def test_gradient_map_contains_only_requires_grad_leaves():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])
    with Tape() as tape:
        y = ad.sum_(ad.mul(x, c))
    grads = tape.backward(y)
    assert x in grads and c not in grads
    assert grads[x].shape == x.shape


def test_stop_gradient():
    x = Tensor([3.0], requires_grad=True)
    assert np.array_equal(ad.stop_gradient(x).data, x.data)
    with Tape() as tape:
        y = ad.sum_(ad.mul(ad.stop_gradient(x), x))
    # product rule with one branch severed: d/dx = stop(x) = 3, not 6
    assert np.array_equal(tape.backward(y)[x], [3.0])


def test_shape_errors_are_structured():
    with pytest.raises(ShapeMismatchError) as err:
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))
    assert "add" in str(err.value)
    assert "(2, 3)" in str(err.value) and "(4,)" in str(err.value)
    with pytest.raises(ShapeMismatchError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeMismatchError):
        ad.add(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 2))))
    with pytest.raises(ShapeMismatchError):
        ad.l2_sq_distance(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeMismatchError):
        ad.avgpool2x(Tensor(np.zeros((3, 3, 1))))


def test_nonfinite_raises():
    with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
        ad.square(Tensor([1e30]))
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_primitives_do_not_mutate_inputs():
    a = RNG.normal(size=(4, 4, 3)).astype(np.float32)
    b = RNG.normal(size=(4, 4, 3)).astype(np.float32) + 2.0
    ta, tb = Tensor(a), Tensor(b)
    before_a, before_b = ta.data.copy(), tb.data.copy()
    ad.add(ta, tb)
    ad.mul(ta, tb)
    ad.silu(ta)
    ad.softmax(ta, axis=-1)
    ad.avgpool2x(ta)
    ad.upsample2x(ta)
    ad.frobenius_sq(ta)
    ad.l2_sq_distance(ta, tb)
    assert np.array_equal(ta.data, before_a)
    assert np.array_equal(tb.data, before_b)


def test_no_recording_without_tape():
    x = Tensor([1.0], requires_grad=True)
    y = ad.scale(x, 3.0)  # no active tape
    assert y.requires_grad
    tape = Tape()
    with tape:
        pass
    assert tape.nodes == []


def test_tensor_constructor_copies():
    src = np.zeros(3, dtype=np.float32)
    t = Tensor(src)
    src[0] = 99.0
    assert t.data[0] == 0.0


# ---------------------------------------------------------------------------
# dense_silu: fused reshape -> matmul -> +b -> +temb -> silu
# ---------------------------------------------------------------------------

def _dense_silu_operands(gen, lead, c_in, c_out):
    return (gen.normal(size=lead + (c_in,)).astype(np.float32),
            (gen.normal(size=(c_in, c_out)) / np.sqrt(c_in)).astype(np.float32),
            (gen.normal(size=(c_out,)) * 0.1).astype(np.float32),
            (gen.normal(size=(c_out,)) * 0.5).astype(np.float32))


def _unfused_dense(x, w, b):
    flat = ad.reshape(x, (-1, x.shape[-1]))
    y = ad.add(ad.matmul(flat, w), b)
    return ad.reshape(y, x.shape[:-1] + (y.shape[-1],))


def _unfused_dense_silu(x, w, b, temb):
    return ad.silu(ad.add(_unfused_dense(x, w, b), temb))


def _fd_each_parent(op, ref, arrays, out_shape, extra=()):
    """check_fd of op against its float64 ref, for one parent at a time."""
    f64 = [a.astype(np.float64) for a in arrays]
    for i in range(len(arrays)):
        def build(t, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = t
            return op(*args, *extra)

        def ref_i(v, i=i):
            vals = list(f64)
            vals[i] = v
            return ref(*vals, *extra)

        check_fd(build, ref_i, arrays[i], out_shape)


def test_dense_silu_fd_all_parents():
    x, w, b, temb = _dense_silu_operands(RNG, (2, 3, 3), 4, 5)

    def ref(xv, wv, bv, tv):
        return REFERENCE_OPS["silu"](xv @ wv + bv + tv)

    _fd_each_parent(ad.dense_silu, ref, [x, w, b, temb], (2, 3, 3, 5))


@pytest.mark.parametrize("lead,c_in,c_out", [
    ((1, 32, 32), 9, 16),       # enc0 at B=1, as in the attack
    ((64, 16, 16), 56, 24),     # dec1 at a training batch
])
def test_dense_silu_bitwise_matches_unfused_chain(lead, c_in, c_out):
    gen = np.random.default_rng(77)
    arrays = _dense_silu_operands(gen, lead, c_in, c_out)
    gout = gen.normal(size=lead + (c_out,)).astype(np.float32)
    results = []
    for fn in (ad.dense_silu, _unfused_dense_silu):
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = fn(*ts)
            loss = ad.sum_(ad.mul(out, Tensor(gout)))
        grads = tape.backward(loss)
        results.append((out.data, [grads[t] for t in ts]))
    (fused, fused_grads), (chain, chain_grads) = results
    assert fused.shape == lead + (c_out,)
    assert np.array_equal(fused, chain)
    for gf, gc in zip(fused_grads, chain_grads):
        assert gf.dtype == gc.dtype == np.float32
        assert np.array_equal(gf, gc)


def test_dense_silu_input_only_gradient_and_node_count():
    x, w, b, temb = _dense_silu_operands(RNG, (1, 4, 4), 3, 6)
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = ad.dense_silu(xt, Tensor(w), Tensor(b), Tensor(temb))
        loss = ad.sum_(out)
    assert len(tape.nodes) == 2
    grads = tape.backward(loss)
    assert set(grads) == {xt}
    with Tape() as tape:
        want = tape.backward(ad.sum_(_unfused_dense_silu(
            xt, Tensor(w), Tensor(b), Tensor(temb))))[xt]
    assert np.array_equal(grads[xt], want)


def test_dense_silu_nan_input_names_the_op():
    x, w, b, temb = _dense_silu_operands(RNG, (1, 2, 2), 3, 4)
    xt = Tensor(x)
    xt.data[0, 1, 0, 2] = np.nan
    with pytest.raises(NonFiniteError) as err:
        ad.dense_silu(xt, Tensor(w), Tensor(b), Tensor(temb))
    assert err.value.op == "dense_silu"


def test_dense_silu_shape_errors():
    x, w, b, temb = _dense_silu_operands(RNG, (1, 2, 2), 3, 4)
    with pytest.raises(ShapeMismatchError):
        ad.dense_silu(Tensor(x), Tensor(w.T), Tensor(b), Tensor(temb))
    with pytest.raises(ShapeMismatchError):
        ad.dense_silu(Tensor(x), Tensor(w), Tensor(b[:3]), Tensor(temb))
    with pytest.raises(ShapeMismatchError):
        ad.dense_silu(Tensor(x), Tensor(w), Tensor(b), Tensor(temb[None, :]))


def test_dense_silu_without_temb_matches_unfused_chain():
    gen = np.random.default_rng(78)
    x, w, b, _ = _dense_silu_operands(gen, (64, 32, 32), 16, 16)
    gout = gen.normal(size=(64, 32, 32, 16)).astype(np.float32)
    results = []
    for fn in (ad.dense_silu, lambda *a: ad.silu(_unfused_dense(*a))):
        ts = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        with Tape() as tape:
            out = fn(*ts)
            loss = ad.sum_(ad.mul(out, Tensor(gout)))
        grads = tape.backward(loss)
        results.append((out.data, [grads[t] for t in ts]))
    (fused, fused_grads), (chain, chain_grads) = results
    assert np.array_equal(fused, chain)
    for gf, gc in zip(fused_grads, chain_grads):
        assert np.array_equal(gf, gc)
    xt = Tensor(x[:1])
    xt.data[0, 0, 0, 0] = np.nan
    with pytest.raises(NonFiniteError) as err:
        ad.dense_silu(xt, Tensor(w), Tensor(b))
    assert err.value.op == "dense_silu"


# ---------------------------------------------------------------------------
# cross-attention (attention_probs + attend) and upsample_concat
# ---------------------------------------------------------------------------

def _attention_operands(gen, lead, c, s, d, dk):
    return (gen.normal(size=lead + (c,)).astype(np.float32),
            gen.normal(size=(lead[0], s, d)).astype(np.float32),
            (gen.normal(size=(c, dk)) / np.sqrt(c)).astype(np.float32),
            (gen.normal(size=(d, dk)) / np.sqrt(d)).astype(np.float32),
            (gen.normal(size=(d, c)) / np.sqrt(d)).astype(np.float32))


def _unfused_attention_probs(x, pm, wq, wk, scale):
    bsz, s = pm.shape[:2]
    q = ad.matmul(ad.reshape(x, (bsz, -1, x.shape[-1])), wq)
    k2 = ad.matmul(ad.reshape(pm, (bsz * s, pm.shape[2])), wk)
    k = ad.reshape(k2, (bsz, s, k2.shape[-1]))
    return ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), scale), axis=-1)


def _unfused_attend(x, attn, pm, wv):
    bsz, s = pm.shape[:2]
    v2 = ad.matmul(ad.reshape(pm, (bsz * s, pm.shape[2])), wv)
    v = ad.reshape(v2, (bsz, s, v2.shape[-1]))
    return ad.add(x, ad.reshape(ad.matmul(attn, v), x.shape))


def _unfused_upsample_concat(low, skip):
    return ad.concat([ad.upsample2x(low), skip], axis=-1)


def _ref_attention_probs(x, pm, wq, wk, scale):
    q = x.reshape(x.shape[0], -1, x.shape[-1]) @ wq
    return REFERENCE_OPS["softmax"](q @ (pm @ wk).transpose(0, 2, 1) * scale)


def _ref_attend(x, attn, pm, wv):
    return x + (attn @ (pm @ wv)).reshape(x.shape)


def test_attention_probs_fd_all_parents():
    x, pm, wq, wk, _ = _attention_operands(RNG, (2, 3, 2), 4, 5, 3, 3)
    _fd_each_parent(ad.attention_probs, _ref_attention_probs, [x, pm, wq, wk],
                    (2, 6, 5), extra=(0.6,))


def test_attend_fd_all_parents():
    x, pm, _, _, wv = _attention_operands(RNG, (2, 3, 2), 4, 5, 3, 3)
    attn = REFERENCE_OPS["softmax"](RNG.normal(size=(2, 6, 5))).astype(np.float32)
    _fd_each_parent(ad.attend, _ref_attend, [x, attn, pm, wv], (2, 3, 2, 4))


def test_upsample_concat_fd_all_parents():
    low = RNG.normal(size=(2, 2, 3, 4)).astype(np.float32)
    skip = RNG.normal(size=(2, 4, 6, 3)).astype(np.float32)

    def ref(lv, sv):
        return np.concatenate([REFERENCE_OPS["upsample2x"](lv), sv], axis=-1)

    _fd_each_parent(ad.upsample_concat, ref, [low, skip], (2, 4, 6, 7))


def _run_block(fused, arrays, gouts, scale, needs_grad):
    """One cross-attention block plus a loss on both outputs; (values, grads)."""
    ts = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs_grad)]
    x, pm, wq, wk, wv = ts
    probs, attend = ((ad.attention_probs, ad.attend) if fused
                     else (_unfused_attention_probs, _unfused_attend))
    with Tape() as tape:
        attn = probs(x, pm, wq, wk, scale)
        out = attend(x, attn, pm, wv)
        loss = ad.add(ad.sum_(ad.mul(attn, Tensor(gouts[0]))),
                      ad.sum_(ad.mul(out, Tensor(gouts[1]))))
    grads = tape.backward(loss)
    return [attn.data, out.data], [grads.get(t) for t in ts]


@pytest.mark.parametrize("lead,c,trainable", [
    ((1, 16, 16), 24, False),   # attn1 in the attack: only x needs a gradient
    ((1, 8, 8), 32, True),
    ((64, 16, 16), 24, True),   # attn1 at a training batch
    ((64, 8, 8), 32, False),
])
def test_cross_attention_bitwise_matches_unfused_chain(lead, c, trainable):
    gen = np.random.default_rng(79)
    arrays = _attention_operands(gen, lead, c, 8, 16, 16)
    n = int(np.prod(lead[1:]))
    gouts = (gen.normal(size=(lead[0], n, 8)).astype(np.float32),
             gen.normal(size=lead + (c,)).astype(np.float32))
    needs = (True,) + (trainable,) * 4
    scale = 1.0 / np.sqrt(16)
    (fv, fg), (cv, cg) = (_run_block(f, arrays, gouts, scale, needs)
                          for f in (True, False))
    for a, b in zip(fv, cv):
        assert np.array_equal(a, b)
    for need, a, b in zip(needs, fg, cg):
        assert (a is not None) == need
        if need:
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)


@pytest.mark.parametrize("low_shape,c_skip", [((1, 8, 8, 32), 24), ((64, 16, 16, 24), 16)])
def test_upsample_concat_bitwise_matches_unfused_chain(low_shape, c_skip):
    gen = np.random.default_rng(80)
    b, h, w, _ = low_shape
    arrays = (gen.normal(size=low_shape).astype(np.float32),
              gen.normal(size=(b, 2 * h, 2 * w, c_skip)).astype(np.float32))
    gout = gen.normal(size=(b, 2 * h, 2 * w, low_shape[-1] + c_skip)).astype(np.float32)
    results = []
    for fn in (ad.upsample_concat, _unfused_upsample_concat):
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = fn(*ts)
            loss = ad.sum_(ad.mul(out, Tensor(gout)))
        grads = tape.backward(loss)
        results.append((out.data, [grads[t] for t in ts]))
    (fused, fused_grads), (chain, chain_grads) = results
    assert np.array_equal(fused, chain)
    for gf, gc in zip(fused_grads, chain_grads):
        assert np.array_equal(gf, gc)


def test_fused_attention_ops_name_themselves_on_nan():
    x, pm, wq, wk, wv = _attention_operands(RNG, (1, 2, 2), 4, 3, 5, 2)
    bad = Tensor(x)
    bad.data[0, 1, 0, 2] = np.nan
    with pytest.raises(NonFiniteError) as err:
        ad.attention_probs(bad, Tensor(pm), Tensor(wq), Tensor(wk), 0.5)
    assert err.value.op == "attention_probs"
    attn = ad.attention_probs(Tensor(x), Tensor(pm), Tensor(wq), Tensor(wk), 0.5)
    with pytest.raises(NonFiniteError) as err:
        ad.attend(bad, attn, Tensor(pm), Tensor(wv))
    assert err.value.op == "attend"


def test_fused_attention_shape_errors():
    x, pm, wq, wk, wv = (Tensor(a) for a in _attention_operands(RNG, (1, 2, 2), 4, 3, 5, 2))
    with pytest.raises(ShapeMismatchError):
        ad.attention_probs(x, pm, Tensor(wq.data.T), wk, 0.5)
    with pytest.raises(ShapeMismatchError):
        ad.attention_probs(x, Tensor(pm.data[0]), wq, wk, 0.5)
    attn = ad.attention_probs(x, pm, wq, wk, 0.5)
    with pytest.raises(ShapeMismatchError):
        ad.attend(x, Tensor(attn.data[:, :3]), pm, wv)
    with pytest.raises(ShapeMismatchError):
        ad.attend(x, attn, pm, Tensor(wv.data[:, :3]))
    with pytest.raises(ShapeMismatchError):
        ad.upsample_concat(Tensor(np.zeros((1, 2, 2, 3))), Tensor(np.zeros((1, 4, 5, 3))))
