"""Dense-tensor engine with tape-based reverse-mode automatic differentiation.

Storage is float32; the deep scalar reductions (sum, mean, squared norms,
distances) accumulate in float64 before casting back, which keeps
finite-difference checks tight. Matmul stays in float32 BLAS: contraction
depths in this package are tens, where the accumulation error sits orders of
magnitude below the gradient-check tolerances. Broadcasting is restricted to
suffix expansion (the smaller operand's shape must equal the trailing dims of
the larger one), so every gradient rule stays a plain sum over leading axes.
Primitives never mutate their inputs and raise on non-finite outputs.

A product of frozen weights (requires_grad False) with rows flattened across
the images of a batch runs one gemm per image, at the single-image shape.
OpenBLAS picks its gemm kernel by row count, so one gemm over all images'
rows can give a row other bits than the same image alone (dec1's K=56
contraction does from B=3 on); per image, a row's bits do not depend on the
rows that share its batch. Trainable weights keep one gemm over the batch.

Importing this module sets glibc's malloc policy for the whole process:
freed blocks up to 32 MiB (glibc's 64-bit cap on M_MMAP_THRESHOLD) come
from the heap instead of their own mappings, and the heap is trimmed only
once 1 GiB at its top is free. A training step frees multi-MB activations
and gradients that the next step allocates again; under glibc's defaults
those pages go back to the OS (unmapped or trimmed) and the next step
zero-fills them anew, about 14,000 page faults per B=64 step of the default
model. The policy changes no value. Where the C library has no mallopt
(anything but glibc) or rejects a setting, it does nothing.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

__all__ = [
    "Tensor", "Tape", "ShapeMismatchError", "NonFiniteError", "GradientError",
    "add", "sub", "mul", "matmul", "dense", "dense_silu", "attention_probs",
    "attend", "scale", "silu", "softmax", "sum_", "mean_", "square",
    "reshape", "transpose", "concat", "upsample2x", "upsample_concat",
    "avgpool2x", "frobenius_sq", "l2_sq_distance", "stop_gradient",
]

_F32 = np.float32
_F64 = np.float64

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages():
    """Keep freed heap pages mapped so later allocations reuse them."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_pages()


class ShapeMismatchError(ValueError):
    """Operand shapes incompatible for a primitive."""

    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        detail = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {detail}")


class NonFiniteError(ArithmeticError):
    """A primitive produced NaN or Inf."""

    def __init__(self, op):
        self.op = op
        super().__init__(f"{op}: produced non-finite values")


class GradientError(ValueError):
    """Backward called with an invalid root or tape."""


class Tensor:
    """Immutable-by-convention float32 array with a requires_grad flag.

    Construction copies the input so later mutation of the source buffer
    cannot corrupt saved activations. Ops allocate fresh outputs via the
    internal no-copy path.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad=False):
        arr = np.array(data, dtype=_F32, order="C", copy=True)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @classmethod
    def _wrap(cls, arr, requires_grad):
        t = object.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _View(Tensor):
    """base's data under another shape; made by reshape, not a tape node.

    Backward hands the gradient an op returns for a view to its base,
    reshaped to base's shape.
    """

    __slots__ = ("base",)


class _Node:
    __slots__ = ("out", "parents", "vjp")

    def __init__(self, out, parents, vjp):
        self.out = out
        self.parents = parents
        self.vjp = vjp


_tls = threading.local()


def _tape_stack():
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape(object):
    """Ordered record of executed primitives for one unit of work.

    Usage::

        with Tape() as tape:
            loss = ...                 # ops on requires_grad tensors record here
        grads = tape.backward(loss)    # {leaf Tensor: float32 ndarray}

    backward consumes the tape: it leaves tape.nodes empty, and the
    activations only the tape held are freed as it goes.

    A tape and its tensors belong to a single thread; independent tapes may
    run concurrently.
    """

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False

    def backward(self, root):
        """Reverse sweep from a scalar root, consuming the tape.

        Returns gradients for every requires_grad leaf reached from the root,
        keyed by the leaf Tensor itself. Contributions from multiple consumers
        accumulate. Each node is popped off the tape as its vjp runs and each
        intermediate gradient is dropped once its node has used it, so only
        the leaves stay referenced until the sweep returns; afterwards the
        tape is empty and a second backward raises GradientError.
        """
        if not isinstance(root, Tensor) or root.data.shape != ():
            raise GradientError("backward: root must be a scalar Tensor")
        if type(root) is _View:
            root = root.base
        nodes = self.nodes
        if not nodes:
            raise GradientError("backward: tape is empty")
        if not any(n.out is root for n in nodes):
            raise GradientError("backward: root was not computed on this tape")

        grads = {root: np.ones(root.data.shape, dtype=_F32)}
        while nodes:
            node = nodes.pop()
            g = grads.pop(node.out, None)
            if g is None:
                continue
            needs = tuple(p.requires_grad for p in node.parents)
            pgrads = node.vjp(g, needs)
            for p, pg in zip(node.parents, pgrads):
                if pg is None:
                    continue
                if type(p) is _View:
                    p = p.base
                    pg = pg.reshape(p.data.shape)
                if p in grads:
                    grads[p] = grads[p] + pg
                else:
                    grads[p] = pg
        # each produced tensor's gradient was popped at its node; leaves remain
        return {
            t: _c_contig(np.asarray(g, dtype=_F32))
            for t, g in grads.items()
            if t.requires_grad
        }


def _c_contig(arr):
    # ascontiguousarray would promote 0-d arrays to 1-d; keep scalars scalar
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        return np.ascontiguousarray(arr)
    return arr


def _finish(op, out_arr, parents, vjp, check=True):
    """Validate an op output, wrap it, and record it if a tape is active.

    Pure data-movement ops pass check=False: they cannot create non-finite
    values from finite inputs, so the invariant holds transitively.
    """
    if type(out_arr) is not np.ndarray or out_arr.dtype != _F32:
        out_arr = np.asarray(out_arr, dtype=_F32)
    out_arr = _c_contig(out_arr)
    if check and not np.isfinite(out_arr).all():
        raise NonFiniteError(op)
    rg = any(p.requires_grad for p in parents)
    out = Tensor._wrap(out_arr, rg)
    if rg:
        tape = _active_tape()
        if tape is not None:
            tape.nodes.append(_Node(out, tuple(parents), vjp))
    return out


# ---------------------------------------------------------------------------
# broadcasting helpers (suffix expansion only)
# ---------------------------------------------------------------------------

def _suffix_shapes(op, a, b):
    sa, sb = a.shape, b.shape
    if len(sa) >= len(sb):
        if sb != sa[len(sa) - len(sb):]:
            raise ShapeMismatchError(op, sa, sb)
        return sa
    if sa != sb[len(sb) - len(sa):]:
        raise ShapeMismatchError(op, sa, sb)
    return sb


def _unbroadcast(g, shape):
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)), dtype=_F32)
    return g


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b):
    _suffix_shapes("add", a, b)

    def vjp(g, needs):
        return (_unbroadcast(g, a.shape) if needs[0] else None,
                _unbroadcast(g, b.shape) if needs[1] else None)

    return _finish("add", a.data + b.data, (a, b), vjp)


def sub(a, b):
    _suffix_shapes("sub", a, b)

    def vjp(g, needs):
        return (_unbroadcast(g, a.shape) if needs[0] else None,
                _unbroadcast(-g, b.shape) if needs[1] else None)

    return _finish("sub", a.data - b.data, (a, b), vjp)


def mul(a, b):
    _suffix_shapes("mul", a, b)
    ad, bd = a.data, b.data

    def vjp(g, needs):
        return (_unbroadcast(g * bd, a.shape) if needs[0] else None,
                _unbroadcast(g * ad, b.shape) if needs[1] else None)

    return _finish("mul", ad * bd, (a, b), vjp)


def scale(x, s):
    s32 = _F32(s)

    def vjp(g, needs):
        return (g * s32 if needs[0] else None,)

    return _finish("scale", x.data * s32, (x,), vjp)


def silu(x):
    xd = x.data
    sig = _F32(1.0) / (_F32(1.0) + np.exp(-xd))
    out = xd * sig

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
        return (g * (sig + out * (_F32(1.0) - sig)),)

    return _finish("silu", out, (x,), vjp)


def square(x):
    xd = x.data

    def vjp(g, needs):
        return (g * (_F32(2.0) * xd) if needs[0] else None,)

    return _finish("square", xd * xd, (x,), vjp)


def softmax(x, axis=-1):
    """Numerically stable softmax along one axis; rows sum to 1."""
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True, dtype=_F64).astype(_F32)

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
        dot = (g * y).sum(axis=axis, keepdims=True, dtype=_F64).astype(_F32)
        return ((g - dot) * y,)

    return _finish("softmax", y, (x,), vjp)


# ---------------------------------------------------------------------------
# matmul (2-D, stacked-left, or stacked-both with equal leading dims)
# ---------------------------------------------------------------------------

def matmul(a, b):
    # contraction depths here stay tiny (tens), so float32 BLAS accumulation
    # is orders of magnitude below the finite-difference tolerances
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]:
        raise ShapeMismatchError("matmul", ad.shape, bd.shape)
    if ad.ndim > 2 and bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeMismatchError("matmul", ad.shape, bd.shape)
    if bd.ndim > 2 and ad.ndim == 2:
        raise ShapeMismatchError("matmul", ad.shape, bd.shape)
    out = np.matmul(ad, bd)

    def vjp(g, needs):
        ga = gb = None
        if needs[0]:
            ga = np.matmul(g, bd.swapaxes(-1, -2))
        if needs[1]:
            if bd.ndim == 2 and ad.ndim > 2:
                k = ad.shape[-1]
                m = g.shape[-1]
                gb = np.matmul(ad.reshape(-1, k).T, g.reshape(-1, m))
            else:
                gb = np.matmul(ad.swapaxes(-1, -2), g)
        return ga, gb

    return _finish("matmul", out, (a, b), vjp)


def _rows_matmul(a, w, trainable):
    """(rows, N) product of a's rows, flattened over its leading axes, with w.

    a's first axis counts images; with frozen weights (not trainable) each
    image gets its own gemm at the single-image shape (see the module note).
    """
    k = a.shape[-1]
    if not trainable and a.ndim > 2 and a.shape[0] > 1:
        return np.matmul(a.reshape(a.shape[0], -1, k), w).reshape(-1, w.shape[1])
    return np.matmul(a.reshape(-1, k), w)


def _affine(op, x, w, b, temb):
    """x @ w + b (+ temb) over the last axis of x, as a (rows, N) array."""
    xd, wd, bd = x.data, w.data, b.data
    td = None if temb is None else temb.data
    if (xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]
            or bd.shape != wd.shape[1:]
            or (td is not None and td.shape != wd.shape[1:])):
        raise ShapeMismatchError(op, xd.shape, wd.shape, bd.shape,
                                 () if td is None else td.shape)
    y = _rows_matmul(xd, wd, w.requires_grad)
    y += bd
    if td is not None:
        y += td
    return y


def _affine_vjp(x, w, b, gy, needs):
    """Parent gradients of _affine from gy, the gradient of its result
    shaped like x with the last axis mapped through w."""
    xd, wd = x.data, w.data
    gx = (_rows_matmul(gy, wd.T, w.requires_grad).reshape(xd.shape)
          if needs[0] else None)
    gy = gy.reshape(-1, wd.shape[1])
    gw = np.matmul(xd.reshape(-1, wd.shape[0]).T, gy) if needs[1] else None
    # b and temb are both added to every row, so they share one column sum
    col = _unbroadcast(gy, b.shape) if any(needs[2:]) else None
    return (gx, gw) + tuple(col if n else None for n in needs[2:])


def dense(x, w, b):
    """x @ w + b over the last axis of x, as one tape node.

    Same float32 operations in the same order as the unfused
    reshape/matmul/add/reshape chain, so values and gradients match it bit
    for bit.
    """
    out = _affine("dense", x, w, b, None)
    out = out.reshape(x.data.shape[:-1] + w.data.shape[1:])

    def vjp(g, needs):
        return _affine_vjp(x, w, b, g, needs)

    return _finish("dense", out, (x, w, b), vjp)


def dense_silu(x, w, b, temb=None):
    """silu(x @ w + b + temb) over the last axis of x, as one tape node.

    Without temb it is silu(x @ w + b). Same float32 operations in the same
    order as the unfused reshape/matmul/add/add/silu chain, so values and
    gradients match it bit for bit; of the intermediates only the output and
    the sigmoid are kept for backward. One finite check covers every step,
    because a NaN or Inf in any of them reaches the output.
    """
    y = _affine("dense_silu", x, w, b, temb)
    sig = np.negative(y)
    np.exp(sig, out=sig)
    sig += _F32(1.0)
    np.divide(_F32(1.0), sig, out=sig)
    y *= sig
    out_shape = x.data.shape[:-1] + w.data.shape[1:]
    out = y.reshape(out_shape)
    sig = sig.reshape(out_shape)

    def vjp(g, needs):
        return _affine_vjp(x, w, b, g * (sig + out * (_F32(1.0) - sig)), needs)

    parents = (x, w, b) if temb is None else (x, w, b, temb)
    return _finish("dense_silu", out, parents, vjp)


def attention_probs(x, pm, wq, wk, scale):
    """softmax((x @ wq) (pm @ wk)^T * scale) over the last axis, as one tape node.

    x is (B, ..., C) with the query positions between the batch and channel
    axes, pm is (B, S, D); the result is (B, N, S) for N query positions.
    Same float32 operations in the same order as the
    reshape/matmul/transpose/matmul/scale/softmax chain, including the
    contiguous copy of k^T, so values and gradients match it bit for bit.
    The finite check runs on the scaled scores: a NaN or Inf in q or k
    reaches them, and the softmax of finite scores is finite.
    """
    xd, pd, qd, kd = x.data, pm.data, wq.data, wk.data
    if (xd.ndim < 3 or pd.ndim != 3 or qd.ndim != 2 or kd.ndim != 2
            or xd.shape[0] != pd.shape[0] or xd.shape[-1] != qd.shape[0]
            or pd.shape[-1] != kd.shape[0] or qd.shape[1] != kd.shape[1]):
        raise ShapeMismatchError("attention_probs", xd.shape, pd.shape,
                                 qd.shape, kd.shape)
    bsz, s, d = pd.shape
    flat = xd.reshape(bsz, -1, xd.shape[-1])
    q = np.matmul(flat, qd)
    k2 = _rows_matmul(pd, kd, wk.requires_grad)
    kt = np.ascontiguousarray(np.transpose(k2.reshape(bsz, s, -1), (0, 2, 1)))
    s32 = _F32(scale)
    y = np.matmul(q, kt)
    y *= s32
    if not np.isfinite(y).all():
        raise NonFiniteError("attention_probs")
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True, dtype=_F64).astype(_F32)

    def vjp(g, needs):
        gs = g - (g * y).sum(axis=-1, keepdims=True, dtype=_F64).astype(_F32)
        gs *= y
        gs *= s32
        gx = gp = gq = gk = None
        if needs[0] or needs[2]:
            gqv = np.matmul(gs, kt.swapaxes(-1, -2))
            if needs[0]:
                gx = np.matmul(gqv, qd.swapaxes(-1, -2)).reshape(xd.shape)
            if needs[2]:
                gq = np.matmul(flat.reshape(-1, qd.shape[0]).T,
                               gqv.reshape(-1, qd.shape[1]))
        if needs[1] or needs[3]:
            # transposed back from (q^T @ gs), as the transpose node did
            gk2 = np.transpose(np.matmul(q.swapaxes(-1, -2), gs),
                               (0, 2, 1)).reshape(k2.shape)
            if needs[1]:
                gp = _rows_matmul(gk2.reshape(bsz, s, -1), kd.T,
                                  wk.requires_grad).reshape(pd.shape)
            if needs[3]:
                gk = np.matmul(pd.reshape(bsz * s, d).T, gk2)
        return gx, gp, gq, gk

    return _finish("attention_probs", y, (x, pm, wq, wk), vjp, check=False)


def attend(x, attn, pm, wv):
    """x + attn @ (pm @ wv), reshaped to x's shape, as one tape node.

    The residual half of a cross-attention block: attn is the (B, N, S)
    output of attention_probs for x, pm is (B, S, D) and wv maps D to x's
    channel count. Same float32 operations in the same order as the
    reshape/matmul/matmul/reshape/add chain, so values and gradients match
    it bit for bit.
    """
    xd, atd, pd, vd = x.data, attn.data, pm.data, wv.data
    shapes = (xd.shape, atd.shape, pd.shape, vd.shape)
    if xd.ndim < 3 or pd.ndim != 3 or vd.ndim != 2:
        raise ShapeMismatchError("attend", *shapes)
    bsz, s, d = pd.shape
    n = int(np.prod(xd.shape[1:-1]))
    if (xd.shape[0] != bsz or atd.shape != (bsz, n, s)
            or vd.shape != (d, xd.shape[-1])):
        raise ShapeMismatchError("attend", *shapes)
    v2 = _rows_matmul(pd, vd, wv.requires_grad)
    v = v2.reshape(bsz, s, -1)
    av = np.matmul(atd, v)
    out = xd + av.reshape(xd.shape)

    def vjp(g, needs):
        gav = g.reshape(bsz, n, -1)
        ga = np.matmul(gav, v.swapaxes(-1, -2)) if needs[1] else None
        gp = gw = None
        if needs[2] or needs[3]:
            gv2 = np.matmul(atd.swapaxes(-1, -2), gav).reshape(v2.shape)
            if needs[2]:
                gp = _rows_matmul(gv2.reshape(bsz, s, -1), vd.T,
                                  wv.requires_grad).reshape(pd.shape)
            if needs[3]:
                gw = np.matmul(pd.reshape(bsz * s, d).T, gv2)
        return (g if needs[0] else None), ga, gp, gw

    return _finish("attend", out, (x, attn, pm, wv), vjp)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_(x, axis=None):
    xd = x.data
    shape = xd.shape
    out = xd.sum(axis=axis, dtype=_F64).astype(_F32)

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
        if axis is None:
            return (np.broadcast_to(g, shape).astype(_F32),)
        ge = np.expand_dims(g, axis)
        return (np.broadcast_to(ge, shape).astype(_F32),)

    return _finish("sum", out, (x,), vjp)


def mean_(x, axis=None):
    xd = x.data
    shape = xd.shape
    count = xd.size if axis is None else shape[axis]
    out = (xd.sum(axis=axis, dtype=_F64) / count).astype(_F32)

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
        gs = g / _F32(count)
        if axis is None:
            return (np.broadcast_to(gs, shape).astype(_F32),)
        ge = np.expand_dims(gs, axis)
        return (np.broadcast_to(ge, shape).astype(_F32),)

    return _finish("mean", out, (x,), vjp)


def frobenius_sq(x):
    """Sum of squared entries, as a scalar."""
    xd = x.data
    out = np.asarray((xd.astype(_F64) ** 2).sum(), dtype=_F32)

    def vjp(g, needs):
        return (g * (_F32(2.0) * xd) if needs[0] else None,)

    return _finish("frobenius_sq", out, (x,), vjp)


def l2_sq_distance(a, b):
    """Squared L2 distance between two same-shape tensors, as a scalar."""
    if a.shape != b.shape:
        raise ShapeMismatchError("l2_sq_distance", a.shape, b.shape)
    d64 = a.data.astype(_F64) - b.data.astype(_F64)
    out = np.asarray((d64 * d64).sum(), dtype=_F32)

    def vjp(g, needs):
        gd = (_F64(2.0) * d64 * _F64(g)).astype(_F32)
        return (gd if needs[0] else None, -gd if needs[1] else None)

    return _finish("l2_sq_distance", out, (a, b), vjp)


# ---------------------------------------------------------------------------
# structural primitives
# ---------------------------------------------------------------------------

def reshape(x, shape):
    """x's data under a new shape, as a view that records no tape node.

    Backward passes the gradients of the view's consumers on to x (or to
    the tensor x itself views), as a reshape node would.
    """
    xd = x.data
    shape = tuple(shape)
    try:
        out = xd.reshape(shape)
    except ValueError:
        raise ShapeMismatchError("reshape", xd.shape, shape)
    view = object.__new__(_View)
    view.data = out
    view.requires_grad = x.requires_grad
    view.base = x.base if type(x) is _View else x
    return view


def transpose(x, axes=None):
    xd = x.data
    perm = tuple(axes) if axes is not None else tuple(range(xd.ndim))[::-1]
    inv = np.argsort(perm)

    def vjp(g, needs):
        return (np.transpose(g, inv) if needs[0] else None,)

    return _finish("transpose", np.transpose(xd, perm), (x,), vjp, check=False)


def concat(tensors, axis=0):
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeMismatchError("concat", ())
    axis = axis % tensors[0].data.ndim
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        s = list(t.shape)
        if len(s) != len(base) or s[:axis] + s[axis + 1:] != base[:axis] + base[axis + 1:]:
            raise ShapeMismatchError("concat", tensors[0].shape, t.shape)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g, needs):
        outs = []
        for i, t in enumerate(tensors):
            if not needs[i]:
                outs.append(None)
                continue
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            outs.append(g[tuple(sl)])  # strided view; accumulation copies anyway
        return tuple(outs)

    out = np.concatenate([t.data for t in tensors], axis=axis)
    return _finish("concat", out, tensors, vjp, check=False)


def _repeat2x(a):
    """Each (H, W) cell of an (..., H, W, C) array copied into a 2x2 block."""
    lead = a.shape[:-3]
    h, w, c = a.shape[-3:]
    b = np.broadcast_to(a[..., :, None, :, None, :], lead + (h, 2, w, 2, c))
    return b.reshape(lead + (2 * h, 2 * w, c))


def _sum2x2(a):
    """float64 sums of the 2x2 (H, W) blocks of an (..., 2H, 2W, C) array.

    Four strided adds into one buffer; the same sums as a float64 .sum over
    the two block axes, without its reduction loop.
    """
    acc = a[..., 0::2, 0::2, :].astype(_F64)
    acc += a[..., 0::2, 1::2, :]
    acc += a[..., 1::2, 0::2, :]
    acc += a[..., 1::2, 1::2, :]
    return acc


def upsample2x(x):
    """Nearest-neighbor 2x upsample of the (H, W) axes in an (..., H, W, C) tensor."""
    xd = x.data
    if xd.ndim < 3:
        raise ShapeMismatchError("upsample2x", xd.shape)
    out = _repeat2x(xd)

    def vjp(g, needs):
        return (_sum2x2(g).astype(_F32) if needs[0] else None,)

    return _finish("upsample2x", out, (x,), vjp, check=False)


def upsample_concat(low, skip):
    """concat([upsample2x(low), skip], axis=-1) as one tape node.

    Both parts are written straight into one output buffer; low is
    (..., H, W, C1) and skip (..., 2H, 2W, C2).
    """
    ld, sd = low.data, skip.data
    if (ld.ndim < 3 or sd.ndim != ld.ndim or sd.shape[:-3] != ld.shape[:-3]
            or sd.shape[-3:-1] != (2 * ld.shape[-3], 2 * ld.shape[-2])):
        raise ShapeMismatchError("upsample_concat", ld.shape, sd.shape)
    h, w, cl = ld.shape[-3:]
    out = np.empty(sd.shape[:-1] + (cl + sd.shape[-1],), dtype=_F32)
    blocks = out.reshape(ld.shape[:-3] + (h, 2, w, 2, out.shape[-1]))
    blocks[..., :cl] = ld[..., :, None, :, None, :]
    out[..., cl:] = sd

    def vjp(g, needs):
        return (_sum2x2(g[..., :cl]).astype(_F32) if needs[0] else None,
                g[..., cl:] if needs[1] else None)

    return _finish("upsample_concat", out, (low, skip), vjp, check=False)


def avgpool2x(x):
    """2x2 average pooling of the (H, W) axes in an (..., H, W, C) tensor."""
    xd = x.data
    if xd.ndim < 3 or xd.shape[-3] % 2 or xd.shape[-2] % 2:
        raise ShapeMismatchError("avgpool2x", xd.shape)
    acc = _sum2x2(xd)
    acc /= 4
    out = acc.astype(_F32)

    def vjp(g, needs):
        if not needs[0]:
            return (None,)
        return (_repeat2x(g * _F32(0.25)),)

    return _finish("avgpool2x", out, (x,), vjp, check=False)


def stop_gradient(x):
    """Identical value, but backward contributes zero through this node."""
    return Tensor._wrap(x.data.copy(), False)
