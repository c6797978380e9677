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
    ("relu", ad.relu), ("silu", ad.silu), ("square", ad.square),
    ("softmax", lambda t: ad.softmax(t, axis=-1)),
])
def test_unary_fd(name, op):
    x = RNG.normal(size=(6, 5)).astype(np.float32)
    x = x + np.sign(x) * 0.1  # margin from the relu kink
    check_fd(op, REFERENCE_OPS[name], x, (6, 5))


def test_sqrt_fd():
    x = (np.abs(RNG.normal(size=(4, 4))) + 0.5).astype(np.float32)
    check_fd(ad.sqrt, REFERENCE_OPS["sqrt"], x, (4, 4))


def test_scale_fd():
    x = RNG.normal(size=(3, 7)).astype(np.float32)
    check_fd(lambda t: ad.scale(t, -2.5), lambda xv: -2.5 * xv, x, (3, 7))


@pytest.mark.parametrize("op,ref", [
    (ad.add, lambda a, b: a + b),
    (ad.sub, lambda a, b: a - b),
    (ad.mul, lambda a, b: a * b),
    (ad.div, lambda a, b: a / b),
])
def test_binary_fd(op, ref):
    a = RNG.normal(size=(4, 3)).astype(np.float32)
    b = (RNG.normal(size=(4, 3)) + 3.0).astype(np.float32)  # divisors away from 0
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
        (ad.reduce_max, lambda xv: xv.max()),
        (ad.reduce_min, lambda xv: xv.min()),
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
    check_fd(lambda t: ad.getitem(t, (slice(1, 3), slice(None))),
             lambda xv: xv[1:3, :], x, (2, 6))
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
    with pytest.raises(NonFiniteError):
        ad.div(Tensor([1.0]), Tensor([0.0]))
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_primitives_do_not_mutate_inputs():
    a = RNG.normal(size=(4, 4, 3)).astype(np.float32)
    b = RNG.normal(size=(4, 4, 3)).astype(np.float32) + 2.0
    ta, tb = Tensor(a), Tensor(b)
    before_a, before_b = ta.data.copy(), tb.data.copy()
    ad.add(ta, tb)
    ad.mul(ta, tb)
    ad.div(ta, tb)
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


def _unfused_dense_silu(x, w, b, temb):
    flat = ad.reshape(x, (-1, x.shape[-1]))
    y = ad.add(ad.matmul(flat, w), b)
    y = ad.reshape(y, x.shape[:-1] + (y.shape[-1],))
    return ad.silu(ad.add(y, temb))


def test_dense_silu_fd_all_parents():
    x, w, b, temb = _dense_silu_operands(RNG, (2, 3, 3), 4, 5)
    arrays = [x, w, b, temb]
    f64 = [a.astype(np.float64) for a in arrays]

    def ref(vals):
        return REFERENCE_OPS["silu"](vals[0] @ vals[1] + vals[2] + vals[3])

    for i in range(4):
        def build(t, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = t
            return ad.dense_silu(*args)

        def ref_i(v, i=i):
            vals = list(f64)
            vals[i] = v
            return ref(vals)

        check_fd(build, ref_i, arrays[i], (2, 3, 3, 5))


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
