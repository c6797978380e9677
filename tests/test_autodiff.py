import ctypes
import weakref

import numpy as np
import pytest

from imukit import autodiff as ad
from imukit.autodiff import (
    GradientError, NonFiniteError, ShapeMismatchError, Tape, Tensor,
)
from oracles import (
    REFERENCE_OPS, fd_agreement, numeric_grad, row_slice, silu, softmax, transpose,
)

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
    ("silu", silu), ("square", ad.square),
    ("softmax", lambda t: softmax(t, axis=-1)),
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


def _wide_range(gen, shape):
    """float32 values over about 17 decades, of both signs, 5% of them +0 or -0."""
    x = (gen.standard_normal(shape) * np.exp(gen.uniform(-20, 20, shape))).astype(np.float32)
    flat = x.reshape(-1)
    zeros = gen.random(flat.size) < 0.05
    flat[zeros] = np.where(gen.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return x


def _same_bits(got, want):
    return got.dtype == want.dtype == np.float32 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 16, 24, 32, 40])
def test_unbroadcast_is_float32_sum_bit_for_bit(n):
    gen = np.random.default_rng(n)
    for rows in (1, 2, 7, 64, 1000, 65536):
        g = _wide_range(gen, (rows, n))
        layouts = (g, _wide_range(gen, (2 * rows, n))[::2],
                   _wide_range(gen, (rows, n + 5))[:, 2:2 + n], np.asfortranarray(g))
        for case in layouts:
            assert _same_bits(ad._unbroadcast(case, (n,)),
                              case.sum(axis=0, dtype=np.float32))
    g4 = _wide_range(gen, (4, 16, 16, n))
    assert _same_bits(ad._unbroadcast(g4, (n,)), g4.sum(axis=(0, 1, 2), dtype=np.float32))
    assert _same_bits(ad._unbroadcast(g4, (16, 16, n)), g4.sum(axis=0, dtype=np.float32))


def test_unbroadcast_keeps_sum_for_one_column_and_scalars():
    gen = np.random.default_rng(1)
    g = _wide_range(gen, (1000, 1))
    want = g.sum(axis=0, dtype=np.float32)
    # einsum's unrolled partial sums give other bits here
    assert np.einsum("ij->j", g).tobytes() != want.tobytes()
    assert _same_bits(ad._unbroadcast(g, (1,)), want)
    assert _same_bits(ad._unbroadcast(g[:, 0], ()), g[:, 0].sum(dtype=np.float32))
    assert _same_bits(ad._unbroadcast(g[:, None, :], (1, 1)), want[None, :])


@pytest.mark.parametrize("shape", [(64, 256, 8), (2, 64, 8), (5, 3), (3, 5, 1)])
def test_row_max_is_numpy_max(shape):
    gen = np.random.default_rng(shape[-1])
    y = _wide_range(gen, shape)
    y[::3, ..., -1] = y[::3, ..., 0]   # ties
    got = ad._row_max(y)
    assert got.dtype == np.float32
    assert np.array_equal(got, y.max(axis=-1))


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
    y = softmax(Tensor(x), axis=-1).data
    assert np.abs(y.sum(axis=-1) - 1.0).max() <= 1e-6
    assert (y > 0).all() and (y < 1).all()
    assert np.allclose(softmax(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])


def test_reduction_fd():
    x = RNG.normal(size=(4, 5)).astype(np.float32)
    x64 = x.astype(np.float64)
    for build, ref in [
        (ad.sum_, lambda xv: xv.sum()),
        (ad.mean_, lambda xv: xv.mean()),
        (lambda t: ad.sum_(ad.frobenius_sq(t)), lambda xv: (xv ** 2).sum()),
    ]:
        got = analytic_grad(build, x)
        want = numeric_grad(lambda xv: float(ref(xv)), x)
        assert fd_agreement(got, want) >= 0.99
    check_fd(lambda t: ad.sum_(t, axis=1), lambda xv: xv.sum(axis=1), x, (4,))
    check_fd(lambda t: ad.mean_(t, axis=0), lambda xv: xv.mean(axis=0), x, (5,))
    assert float(ad.mean_(Tensor(x)).data) == pytest.approx(x64.mean(), rel=1e-6)


def test_l2_sq_distance_fd_and_example():
    a = RNG.normal(size=(1, 7)).astype(np.float32)
    b = RNG.normal(size=(1, 7)).astype(np.float32)
    bt = Tensor(b)
    b64 = b.astype(np.float64)
    got = analytic_grad(lambda t: ad.sum_(ad.l2_sq_distance(t, bt)), a)
    want = numeric_grad(lambda xv: float(((xv - b64) ** 2).sum()), a)
    assert fd_agreement(got, want) >= 0.99
    g = analytic_grad(lambda t: ad.sum_(ad.l2_sq_distance(t, Tensor([[0.0, 0.0]]))),
                      np.array([[1.0, 2.0]], dtype=np.float32))
    assert np.allclose(g, [2.0, 4.0])


def test_structural_fd():
    x = RNG.normal(size=(4, 6)).astype(np.float32)
    check_fd(lambda t: ad.reshape(t, (6, 4)), lambda xv: xv.reshape(6, 4), x, (6, 4))
    check_fd(transpose, lambda xv: xv.T, x, (6, 4))
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
    assert ad.frobenius_sq(Tensor(np.ones((1, 2, 2)))).item() == 4.0
    g = analytic_grad(lambda t: ad.sum_(ad.frobenius_sq(t)),
                      np.array([[2.0, -1.0]], dtype=np.float32))
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
    silu(ta)
    softmax(ta, axis=-1)
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


def _rows_product(x, w):
    y = ad.matmul(ad.reshape(x, (-1, x.shape[-1])), w)
    return ad.reshape(y, x.shape[:-1] + (y.shape[-1],))


def _unfused_dense(x, w, b):
    return ad.add(_rows_product(x, w), b)


def _unfused_dense_silu(x, w, b, temb):
    return silu(ad.add(_unfused_dense(x, w, b), temb))


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


def _assert_fused_is_chain(fused_fn, chain_fn, arrays, gen, needs=None):
    """fused_fn and chain_fn give the same output and parent gradients, bit
    for bit, where a parent needs a gradient if needs marks it (by default
    every parent does)."""
    needs = needs or (True,) * len(arrays)
    results = []
    for fn in (fused_fn, chain_fn):
        ts = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs)]
        with Tape() as tape:
            out = fn(*ts)
            if not results:
                gout = Tensor(gen.normal(size=out.shape).astype(np.float32))
            loss = ad.sum_(ad.mul(out, gout))
        grads = tape.backward(loss)
        assert set(grads) == {t for t in ts if t.requires_grad}
        results.append((out.data, [grads[t] for t in ts if t.requires_grad]))
    (fused, fused_grads), (chain, chain_grads) = results
    assert fused.shape == chain.shape
    assert np.array_equal(fused, chain)
    for gf, gc in zip(fused_grads, chain_grads):
        assert gf.dtype == gc.dtype == np.float32
        assert np.array_equal(gf, gc)


@pytest.mark.parametrize("lead,c_in,c_out", [
    ((1, 32, 32), 9, 16),       # enc0 at B=1, as in the attack
    ((64, 16, 16), 56, 24),     # a K=56 contraction at a training batch
    ((64, 32, 32), 40, 16),     # 40 channels in at a training batch
])
def test_dense_silu_bitwise_matches_unfused_chain(lead, c_in, c_out):
    gen = np.random.default_rng(77)
    _assert_fused_is_chain(ad.dense_silu, _unfused_dense_silu,
                           _dense_silu_operands(gen, lead, c_in, c_out), gen)


def test_dense_bitwise_matches_unfused_chain():
    # the head at a training batch: three output channels
    gen = np.random.default_rng(80)
    x, w, b, _ = _dense_silu_operands(gen, (64, 32, 32), 16, 3)
    _assert_fused_is_chain(ad.dense, _unfused_dense, (x, w, b), gen)


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
    _assert_fused_is_chain(ad.dense_silu, lambda *a: silu(_unfused_dense(*a)),
                           (x, w, b), gen)
    xt = Tensor(x[:1])
    xt.data[0, 0, 0, 0] = np.nan
    with pytest.raises(NonFiniteError) as err:
        ad.dense_silu(xt, Tensor(w), Tensor(b))
    assert err.value.op == "dense_silu"


# ---------------------------------------------------------------------------
# cross-attention (attention_probs + attend)
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
    return softmax(ad.scale(ad.matmul(q, transpose(k, (0, 2, 1))), scale), axis=-1)


def _unfused_attend(x, attn, pm, wv):
    bsz, s = pm.shape[:2]
    v2 = ad.matmul(ad.reshape(pm, (bsz * s, pm.shape[2])), wv)
    v = ad.reshape(v2, (bsz, s, v2.shape[-1]))
    return ad.add(x, ad.reshape(ad.matmul(attn, v), x.shape))


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


# ---------------------------------------------------------------------------
# upsample_dense_silu: a decoder level without its skip concatenation
# ---------------------------------------------------------------------------

def _up_operands(gen, low_shape, c_skip, c_out):
    b, h, w, c_low = low_shape
    c_in = c_low + c_skip
    return (gen.normal(size=low_shape).astype(np.float32),
            gen.normal(size=(b, 2 * h, 2 * w, c_skip)).astype(np.float32),
            (gen.normal(size=(c_in, c_out)) / np.sqrt(c_in)).astype(np.float32),
            (gen.normal(size=(c_out,)) * 0.1).astype(np.float32),
            (gen.normal(size=(c_out,)) * 0.5).astype(np.float32))


def _unfused_upsample_dense_silu(low, skip, w, b, temb):
    """The fused op's chain: low's rows multiplied by w's first rows at
    their own resolution, biased, upsampled and added to skip's product."""
    cl = low.shape[-1]
    yl = ad.add(_unfused_dense(low, row_slice(w, 0, cl), b), temb)
    ys = _rows_product(skip, row_slice(w, cl, w.shape[0]))
    return silu(ad.add(ys, ad.upsample2x(yl)))


def _ref_upsample_dense_silu(lv, sv, wv, bv, tv):
    x = np.concatenate([REFERENCE_OPS["upsample2x"](lv), sv], axis=-1)
    return REFERENCE_OPS["silu"](x @ wv + bv + tv)


def test_upsample_dense_silu_fd_all_parents():
    """Each parent's gradient against float64 finite differences of the
    silu of the concatenated input's affine map, with a shared temb and
    with one temb row per image."""
    arrays = list(_up_operands(RNG, (2, 2, 3, 4), 3, 5))
    _fd_each_parent(ad.upsample_dense_silu, _ref_upsample_dense_silu, arrays,
                    (2, 4, 6, 5))
    arrays[4] = (RNG.normal(size=(2, 1, 1, 5)) * 0.5).astype(np.float32)
    _fd_each_parent(ad.upsample_dense_silu, _ref_upsample_dense_silu, arrays,
                    (2, 4, 6, 5))


@pytest.mark.parametrize("low_shape,c_skip,c_out,trainable", [
    ((1, 8, 8, 32), 24, 24, False),   # dec1 in the attack: inputs need gradients
    ((1, 8, 8, 32), 24, 24, True),
    ((64, 16, 16, 24), 16, 16, True),  # dec0 at a training batch
])
def test_upsample_dense_silu_bitwise_matches_unfused_chain(low_shape, c_skip, c_out,
                                                           trainable):
    gen = np.random.default_rng(80)
    _assert_fused_is_chain(ad.upsample_dense_silu, _unfused_upsample_dense_silu,
                           _up_operands(gen, low_shape, c_skip, c_out), gen,
                           needs=(True, True) + (trainable,) * 3)


def test_upsample_dense_silu_untaped_matches_recorded():
    gen = np.random.default_rng(81)
    arrays = _up_operands(gen, (3, 8, 8, 32), 24, 24)
    untaped = ad.upsample_dense_silu(*(Tensor(a) for a in arrays))
    with Tape() as tape:
        recorded = ad.upsample_dense_silu(*(Tensor(a, requires_grad=True) for a in arrays))
    assert len(tape.nodes) == 1
    assert untaped.data.tobytes() == recorded.data.tobytes()


def test_upsample_dense_silu_shape_errors():
    low, skip, w, b, temb = (Tensor(a) for a in _up_operands(RNG, (1, 2, 2, 3), 3, 4))
    with pytest.raises(ShapeMismatchError) as err:
        ad.upsample_dense_silu(low, Tensor(np.zeros((1, 4, 5, 3))), w, b, temb)
    assert err.value.op == "upsample_dense_silu"
    with pytest.raises(ShapeMismatchError):
        ad.upsample_dense_silu(low, Tensor(np.zeros((2, 4, 4, 3))), w, b, temb)
    with pytest.raises(ShapeMismatchError):
        ad.upsample_dense_silu(low, skip, Tensor(w.data[1:]), b, temb)
    with pytest.raises(ShapeMismatchError):
        ad.upsample_dense_silu(low, skip, w, b, Tensor(temb.data[None, :]))


# ---------------------------------------------------------------------------
# what the tape keeps
# ---------------------------------------------------------------------------

def _kept(vjp):
    """Every array a vjp closure keeps, through the closures it calls."""
    arrays = []
    for cell in vjp.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif callable(value) and getattr(value, "__closure__", None):
            arrays.extend(_kept(value))
    return arrays


def _kept_shapes(tape, weights):
    """Shapes of what the last node keeps, weights left out."""
    return sorted(a.shape for a in _kept(tape.nodes[-1].vjp)
                  if not any(a is w.data or a.base is w.data for w in weights))


def test_frozen_ops_keep_only_what_the_input_gradient_reads():
    gen = np.random.default_rng(93)
    x, w, b, temb = (Tensor(a) for a in _dense_silu_operands(gen, (2, 4, 4), 3, 5))
    x.requires_grad = True
    with Tape() as tape:
        ad.dense(x, w, b)
        assert _kept_shapes(tape, (w, b)) == []
        ad.dense_silu(x, w, b, temb)
        assert _kept_shapes(tape, (w, b, temb)) == [(2, 4, 4, 5)]
        xa, pm, wq, wk, _ = (Tensor(a) for a in _attention_operands(gen, (2, 4, 4), 3, 6, 5, 2))
        xa.requires_grad = True
        ad.attention_probs(xa, pm, wq, wk, 0.5)
        # the probabilities and k^T; not the flattened input, q or pm
        assert _kept_shapes(tape, (wq, wk)) == [(2, 2, 6), (2, 16, 6)]
        low, skip, wu, bu, tu = (Tensor(a) for a in _up_operands(gen, (2, 2, 2, 3), 4, 5))
        low.requires_grad = skip.requires_grad = True
        ad.upsample_dense_silu(low, skip, wu, bu, tu)
        # the derivative, besides w's row blocks
        assert _kept_shapes(tape, (wu,)) == [(2, 4, 4, 5)]
        low.requires_grad = skip.requires_grad = False
        for p in (wu, bu, tu):
            p.requires_grad = True
        ad.upsample_dense_silu(low, skip, wu, bu, tu)
        # w's gradient reads low and skip; nothing 7 channels wide is kept
        assert _kept_shapes(tape, ()) == [(2, 2, 2, 3), (2, 4, 4, 4), (2, 4, 4, 5)]


def test_tape_frees_an_output_once_the_forward_drops_it():
    """Frozen weights: the tape holds a level's output for no vjp, so it
    is freed as soon as the next level has consumed it."""
    gen = np.random.default_rng(94)
    x, w, b, _ = _dense_silu_operands(gen, (1, 4, 4), 6, 6)
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        h = ad.dense_silu(xt, Tensor(w), Tensor(b))
        out = ad.dense_silu(h, Tensor(w), Tensor(b))
        activation = weakref.ref(h.data)
        del h
        assert activation() is None
        loss = ad.sum_(out)
    assert tape.backward(loss)[xt].shape == x.shape


def test_dense_silu_per_image_temb():
    """A (B, 1, 1, N) temb adds one row per image: with equal rows it gives
    the bits of the shared (N,) row, values and input gradient; its own
    gradient is the per-image column sum."""
    gen = np.random.default_rng(95)
    x, w, b, temb = _dense_silu_operands(gen, (3, 4, 4), 5, 6)
    rows = np.broadcast_to(temb, (3, 1, 1, 6)).copy()
    gout = Tensor(gen.normal(size=(3, 4, 4, 6)))
    results = []
    for t in (temb, rows):
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = ad.dense_silu(xt, Tensor(w), Tensor(b), Tensor(t))
            loss = ad.sum_(ad.mul(out, gout))
        results.append((out.data, tape.backward(loss)[xt]))
    for a, c in zip(*results):
        assert np.array_equal(a, c)
    per_image = (gen.normal(size=(3, 1, 1, 6)) * 0.5).astype(np.float32)

    def ref(xv, wv, bv, tv):
        return REFERENCE_OPS["silu"](xv @ wv + bv + tv)

    _fd_each_parent(ad.dense_silu, ref, [x, w, b, per_image], (3, 4, 4, 6))
    with pytest.raises(ShapeMismatchError):
        ad.dense_silu(Tensor(x), Tensor(w), Tensor(b), Tensor(rows[:2]))


def test_scale_by_one_factor_per_row():
    gen = np.random.default_rng(96)
    x = gen.normal(size=(3, 2, 4)).astype(np.float32)
    factors = [0.3, 1.7, -2.5]
    got = ad.scale(Tensor(x), factors).data
    for i, s in enumerate(factors):
        assert np.array_equal(got[i], ad.scale(Tensor(x[i]), s).data)
    w = gen.normal(size=x.shape).astype(np.float32)
    grad = analytic_grad(lambda t: ad.sum_(ad.mul(ad.scale(t, factors), Tensor(w))), x)
    assert np.array_equal(grad, w * np.float32(factors)[:, None, None])
    with pytest.raises(ShapeMismatchError):
        ad.scale(Tensor(x), [1.0, 2.0])


def test_import_runs_openblas_on_one_thread():
    """The BLAS policy: after import, numpy's OpenBLAS reports one thread."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS in")
    getters = [getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
               for path in libs]
    getters = [fn for fn in getters if fn is not None]
    if not getters:
        pytest.skip("no OpenBLAS with scipy_openblas_get_num_threads64_ is loaded")
    for fn in getters:
        fn.restype = ctypes.c_int
        fn.argtypes = []
        assert fn() == 1
