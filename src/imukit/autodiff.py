"""Dense-tensor engine with tape-based reverse-mode automatic differentiation.

Storage is float32; the deep scalar reductions (sum, mean, squared norms,
distances) accumulate in float64 before casting back, which keeps
finite-difference checks tight. Matmul stays in float32 BLAS: contraction
depths in this package are tens, where the accumulation error sits orders of
magnitude below the gradient-check tolerances. Broadcasting is restricted to
suffix expansion (the smaller operand's shape must equal the trailing dims of
the larger one), so every gradient rule stays a plain sum over leading axes.
Primitives never mutate their inputs and raise on non-finite outputs. The
squared norms and distances are batch-only, one value per index of the
first axis, and one image is a batch of one.

A product of frozen weights (requires_grad False) with rows flattened across
the images of a batch runs one gemm per image, at the single-image shape.
OpenBLAS picks its gemm kernel by row count, so one gemm over all images'
rows can give a row other bits than the same image alone (dec1's K=32
product does from B=21 on); per image, a row's bits do not depend on the
rows that share its batch. Trainable weights keep one gemm over the batch.

The tape holds gradient keys, not tensors. A recorded op's output gets a
key; its node holds that key, its parents' keys (a reshape view maps to its
base's key and shape) and the vjp closure. Each closure captures only the
arrays its parents' gradients read, for the parents that need gradients when
the op runs, so an output nothing reads for backward is freed as soon as the
forward code drops it. With frozen weights, dense, dense_silu and
upsample_dense_silu keep no input, attention_probs only the probabilities
and k^T; a recorded silu op keeps one array, its derivative.

Backward consumes its tape, so each vjp runs once and may drop what it
keeps at its last read. Each trainable affine vjp (in dense, dense_silu
and upsample_dense_silu) takes its weight gradient (with the bias and
time-embedding column sums) first, drops the kept input, and only then
allocates the input gradient, so the input and its gradient are never alive
together (tools/step_memory.py shows the held memory and peak per node).

Importing this module sets glibc's malloc policy for the whole process:
freed blocks up to 32 MiB (glibc's 64-bit cap on M_MMAP_THRESHOLD) come
from the heap instead of their own mappings, and the heap is trimmed only
once 1 GiB at its top is free. A training step frees multi-MB activations
and gradients that the next step allocates again; under glibc's defaults
those pages go back to the OS (unmapped or trimmed) and the next step
zero-fills them anew, about 5,000 page faults per B=64 step of the default
model in 16-row parts (9,700 with one 64-row tape). The policy changes no
value. Where the C library has no mallopt
(anything but glibc) or rejects a setting, it does nothing.

Importing it also sets the process's BLAS policy: every OpenBLAS mapped
into the process runs on one thread, so --jobs N workers run N BLAS threads.
A second thread buys this package's gemms little speed (B=64 training on a
2-vCPU Xeon, measured when a step taped all 64 rows at once: a median 1212
samples/s at two threads and 1121 at one, inside the run-to-run spread)
while its buffers added about 12 MiB to training's peak RSS. The thread
count changes no value. Where no OpenBLAS is mapped or none of its
set-threads symbols is found, it does nothing.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import threading

import numpy as np

__all__ = [
    "Tensor", "Tape", "ShapeMismatchError", "NonFiniteError", "GradientError",
    "add", "sub", "mul", "matmul", "dense", "dense_silu", "attention_probs",
    "attend", "scale", "sum_", "mean_", "square", "reshape", "concat",
    "upsample2x", "upsample_dense_silu", "avgpool2x", "frobenius_sq",
    "l2_sq_distance",
]

_F32 = np.float32
_F64 = np.float64

# rows per block of a recorded silu's activation and derivative (_silu_node)
_BLOCK_ROWS = 2048

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


def _one_blas_thread():
    """Run every OpenBLAS mapped into this process on one thread."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # the set-threads symbols of numpy's bundled build, then of others
        for symbol in ("scipy_openblas_set_num_threads64_",
                       "openblas_set_num_threads64_", "openblas_set_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = (ctypes.c_int,)
                fn.restype = None
                fn(1)
                break


_keep_freed_pages()
_one_blas_thread()


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

    __slots__ = ("data", "requires_grad", "key")

    def __init__(self, data, requires_grad=False):
        arr = np.array(data, dtype=_F32, order="C", copy=True)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.key = None

    @classmethod
    def _wrap(cls, arr, requires_grad):
        t = object.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        t.key = None
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
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _View(Tensor):
    """base's data under another shape; made by reshape, not a tape node.

    Backward hands the gradient an op returns for a view to its base,
    reshaped to base's shape.
    """

    __slots__ = ("base",)


class _Node:
    """One recorded op: its output's key, and per parent a gradient key (None
    when the parent needs no gradient) and the shape to reshape the parent's
    gradient to (None unless the parent is a view)."""

    __slots__ = ("out", "keys", "shapes", "vjp")

    def __init__(self, out, keys, shapes, vjp):
        self.out = out
        self.keys = keys
        self.shapes = shapes
        self.vjp = vjp


# output keys, unique across tapes and threads
_KEYS = itertools.count()


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

    The tape keeps no output tensor, only keys and the arrays each vjp
    reads. backward consumes the tape: it leaves tape.nodes empty, and the
    arrays only the tape held are freed as it goes. So each vjp runs once,
    and may drop a kept array at its last read: a weight gradient is taken
    before the input gradient, so the input it reads is gone before the
    input gradient is allocated.

    A tape and its tensors belong to a single thread; independent tapes may
    run concurrently.
    """

    def __init__(self):
        self.nodes = []
        self.outs = set()

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
        if root.key not in self.outs:
            raise GradientError("backward: root was not computed on this tape")

        grads = {root.key: np.ones(root.data.shape, dtype=_F32)}
        while nodes:
            node = nodes.pop()
            g = grads.pop(node.out, None)
            if g is None:
                continue
            needs = tuple(k is not None for k in node.keys)
            pgrads = node.vjp(g, needs)
            for k, shape, pg in zip(node.keys, node.shapes, pgrads):
                if pg is None:
                    continue
                if shape is not None:
                    pg = pg.reshape(shape)
                if k in grads:
                    grads[k] = grads[k] + pg
                else:
                    grads[k] = pg
        # each produced tensor's gradient was popped at its node; what remains
        # is keyed by the leaf tensors themselves
        return {t: _c_contig(np.asarray(g, dtype=_F32)) for t, g in grads.items()}

    def _record(self, out, parents, vjp):
        """Append out's node. A parent that needs a gradient is keyed by its
        key if this tape made it, or else, as a leaf, by the tensor itself."""
        keys, shapes = [], []
        for p in parents:
            shape = None
            if type(p) is _View:
                p = p.base
                shape = p.data.shape
            if not p.requires_grad:
                keys.append(None)
            else:
                keys.append(p.key if p.key in self.outs else p)
            shapes.append(shape)
        out.key = next(_KEYS)
        self.outs.add(out.key)
        self.nodes.append(_Node(out.key, tuple(keys), tuple(shapes), vjp))


def _c_contig(arr):
    # ascontiguousarray would promote 0-d arrays to 1-d; keep scalars scalar
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        return np.ascontiguousarray(arr)
    return arr


def _needs(*parents):
    """Which parents need a gradient: the vjp arrays an op must keep."""
    return tuple(p.requires_grad for p in parents)


def _recording(parents):
    """Whether _finish will record an op with these parents on a tape."""
    return any(p.requires_grad for p in parents) and _active_tape() is not None


def _finish(op, out_arr, parents, vjp, check=True):
    """Validate an op output, wrap it, and record it if a tape is active.

    vjp(g, needs) returns one gradient per parent, None where needs is
    False; it should close over the arrays those gradients read and not
    over the parent tensors, whose data the tape would otherwise keep.
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
            tape._record(out, parents, vjp)
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
    """g summed over its leading axes down to shape, in float32.

    Always the bits of g.sum over those axes with dtype float32. On a
    C-contiguous g whose trailing shape holds n >= 2 entries, einsum over
    the (rows, n) view adds the rows in the same sequential order, without
    the per-row inner loop numpy's sum runs over a short trailing axis
    (about 5x faster at 65536 x 16). At n = 1 einsum keeps unrolled partial
    sums, and on other layouts sum visits the rows in memory order, so those
    keep sum.
    """
    extra = g.ndim - len(shape)
    if not extra:
        return g
    n = math.prod(shape)
    if n > 1 and g.flags.c_contiguous:
        return np.einsum("ij->j", g.reshape(-1, n)).reshape(shape)
    return g.sum(axis=tuple(range(extra)), dtype=_F32)


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b):
    _suffix_shapes("add", a, b)
    sa, sb = a.shape, b.shape

    def vjp(g, needs):
        return (_unbroadcast(g, sa) if needs[0] else None,
                _unbroadcast(g, sb) if needs[1] else None)

    return _finish("add", a.data + b.data, (a, b), vjp)


def sub(a, b):
    _suffix_shapes("sub", a, b)
    sa, sb = a.shape, b.shape

    def vjp(g, needs):
        return (_unbroadcast(g, sa) if needs[0] else None,
                _unbroadcast(-g, sb) if needs[1] else None)

    return _finish("sub", a.data - b.data, (a, b), vjp)


def mul(a, b):
    _suffix_shapes("mul", a, b)
    sa, sb = a.shape, b.shape
    need_a, need_b = _needs(a, b)
    # each parent's gradient reads the other parent's data
    bd = b.data if need_a else None
    ad = a.data if need_b else None

    def vjp(g, needs):
        return (_unbroadcast(g * bd, sa) if needs[0] else None,
                _unbroadcast(g * ad, sb) if needs[1] else None)

    return _finish("mul", a.data * b.data, (a, b), vjp)


def scale(x, s):
    """x * s, for a number s or one factor per index of x's first axis."""
    if np.ndim(s):
        s32 = np.asarray(s, dtype=_F32)
        if s32.shape != x.shape[:1]:
            raise ShapeMismatchError("scale", x.shape, s32.shape)
        s32 = _per_image(s32, x.data.ndim)
    else:
        s32 = _F32(s)

    def vjp(g, needs):
        return (g * s32 if needs[0] else None,)

    return _finish("scale", x.data * s32, (x,), vjp)


def square(x):
    xd = x.data
    kept = xd if x.requires_grad else None

    def vjp(g, needs):
        return (g * (_F32(2.0) * kept) if needs[0] else None,)

    return _finish("square", xd * xd, (x,), vjp)


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
    need_a, need_b = _needs(a, b)
    # a's gradient reads b, and b's reads a
    kept_b = bd if need_a else None
    kept_a = ad if need_b else None
    stacked_left = bd.ndim == 2 and ad.ndim > 2

    def vjp(g, needs):
        ga = gb = None
        if needs[0]:
            ga = np.matmul(g, kept_b.swapaxes(-1, -2))
        if needs[1]:
            if stacked_left:
                k = kept_a.shape[-1]
                m = g.shape[-1]
                gb = np.matmul(kept_a.reshape(-1, k).T, g.reshape(-1, m))
            else:
                gb = np.matmul(kept_a.swapaxes(-1, -2), g)
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
    """x @ w + b (+ temb) over the last axis of x, as a (rows, N) array.

    temb is one (N,) row for every image, or a (B, 1, ..., 1, N) array with
    one row per index of x's first axis, broadcast over the axes between.
    """
    xd, wd, bd = x.data, w.data, b.data
    td = None if temb is None else temb.data
    per_image = xd.shape[:1] + (1,) * (xd.ndim - 2) + wd.shape[1:]
    if (xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]
            or bd.shape != wd.shape[1:]
            or (td is not None and td.shape not in (wd.shape[1:], per_image))):
        raise ShapeMismatchError(op, xd.shape, wd.shape, bd.shape,
                                 () if td is None else td.shape)
    y = _rows_matmul(xd, wd, w.requires_grad)
    # the same elementwise adds on a view m rows wide, so numpy's inner loop
    # runs over m * N entries instead of once per N-entry row
    m = math.gcd(y.shape[0], 64)
    wide = y.reshape(-1, m * y.shape[1])
    wide += np.tile(bd, m)
    if td is not None and td.ndim == 1:
        wide += np.tile(td, m)
    elif td is not None:
        # per image: m divides each image's row count, so a wide row never
        # straddles two images
        rows = td.reshape(td.shape[0], -1)
        m = math.gcd(y.shape[0] // len(rows), 64)
        wide = y.reshape(len(rows), -1, m * y.shape[1])
        wide += np.tile(rows, m)[:, None, :]
    return y


def _affine_vjp(x, w, b, temb):
    """The vjp(gy, needs) of _affine, where gy is the gradient of its result
    shaped like x with the last axis mapped through w. It keeps w's data
    for x's gradient and x's data for w's, and nothing else; it drops x's
    data once w's gradient is taken, before x's gradient is allocated."""
    need_x, need_w = _needs(x, w)
    xshape, wshape, bshape = x.data.shape, w.data.shape, b.data.shape
    trainable = w.requires_grad
    wd = w.data if need_x else None
    xd = x.data if need_w else None
    tshape = None if temb is None else temb.data.shape

    def vjp(gy, needs):
        nonlocal xd
        rows = gy.reshape(-1, wshape[1])
        gw = np.matmul(xd.reshape(-1, wshape[0]).T, rows) if needs[1] else None
        xd = None   # backward runs a vjp once
        # b and a shared temb are both added to every row, so they share one
        # column sum; a per-image temb takes one column sum per image
        col = gt = _unbroadcast(rows, bshape) if any(needs[2:]) else None
        if tshape not in (None, bshape) and needs[3]:
            gt = rows.reshape(tshape[0], -1, wshape[1]).sum(axis=1, dtype=_F32)
            gt = gt.reshape(tshape)
        gx = (_rows_matmul(gy, wd.T, trainable).reshape(xshape)
              if needs[0] else None)
        return (gx, gw) + tuple(c if n else None for n, c in zip(needs[2:], (col, gt)))

    return vjp


def _silu_node(op, y, d, shape, parents, pre_vjp):
    """op's node: silu of the (rows, N) pre-activation y, in place, shaped
    to shape. d is None unless op is recorded; then the unfused chain's silu
    derivative, sig + out * (1 - sig), goes into d a block of rows at a time
    (products and sums commute exactly in IEEE arithmetic), and the vjp
    hands g * d to pre_vjp, the pre-activation's vjp. One finite check
    covers every step: a NaN or Inf in any of them reaches the output."""
    vjp = None
    if d is None:
        sig = np.negative(y)
        np.exp(sig, out=sig)
        sig += _F32(1.0)
        np.divide(_F32(1.0), sig, out=sig)
        y *= sig
    else:
        n = min(_BLOCK_ROWS, len(y))
        sig = np.empty((n, y.shape[1]), dtype=_F32)
        tmp = np.empty_like(sig)
        for i in range(0, len(y), n):
            yb = y[i:i + n]
            s, t = sig[:len(yb)], tmp[:len(yb)]
            np.negative(yb, out=s)
            np.exp(s, out=s)
            s += _F32(1.0)
            np.divide(_F32(1.0), s, out=s)
            yb *= s
            np.subtract(_F32(1.0), s, out=t)
            t *= yb
            np.add(s, t, out=d[i:i + n])
        d = d.reshape(shape)

        def vjp(g, needs):
            # d is read once, by this call, so it takes the product in place
            return pre_vjp(np.multiply(g, d, out=d), needs)

    return _finish(op, y.reshape(shape), parents, vjp)


def dense(x, w, b):
    """x @ w + b over the last axis of x, as one tape node.

    Same float32 operations in the same order as the unfused
    reshape/matmul/add/reshape chain, so values and gradients match it bit
    for bit.
    """
    out = _affine("dense", x, w, b, None)
    out = out.reshape(x.data.shape[:-1] + w.data.shape[1:])
    return _finish("dense", out, (x, w, b), _affine_vjp(x, w, b, None))


def _derivative_buffer(parents, rows, n):
    """A recorded silu node's (rows, n) derivative, else None; taken ahead of
    the product, so the kept array does not land above the transients."""
    return np.empty((rows, n), dtype=_F32) if _recording(parents) else None


def dense_silu(x, w, b, temb=None):
    """silu(x @ w + b + temb) over the last axis of x, as one tape node.

    Without temb it is silu(x @ w + b); temb is one row for every image or
    one row per image, as in _affine. Same float32 operations in the
    same order as the unfused reshape/matmul/add/add/silu chain, so values
    and gradients match it bit for bit. When the node is recorded, the
    forward also computes the chain's silu derivative and keeps only that
    array for backward.
    """
    parents = (x, w, b) if temb is None else (x, w, b, temb)
    d = _derivative_buffer(parents, math.prod(x.data.shape[:-1]), w.data.shape[1])
    y = _affine("dense_silu", x, w, b, temb)
    return _silu_node("dense_silu", y, d, x.data.shape[:-1] + w.data.shape[1:],
                      parents, _affine_vjp(x, w, b, temb))


def upsample_dense_silu(low, skip, w, b, temb=None):
    """dense_silu(concat([upsample2x(low), skip], axis=-1), w, b, temb) as one
    tape node that never builds the concatenation.

    low is (..., H, W, Cl), skip (..., 2H, 2W, Cs) and w (Cl + Cs, N). As
    nearest upsampling commutes with a per-pixel affine map, it is
    silu(upsample2x(low @ w[:Cl] + b + temb) + skip @ w[Cl:]), with that
    chain's float32 ops in its order, so values and gradients match it bit
    for bit. A recorded node keeps the silu derivative and, as dense does,
    what the two products' gradients read.
    """
    ld, sd, wd = low.data, skip.data, w.data
    cl = ld.shape[-1]
    if (ld.ndim < 3 or sd.ndim != ld.ndim or sd.shape[:-3] != ld.shape[:-3]
            or sd.shape[-3:-1] != (2 * ld.shape[-3], 2 * ld.shape[-2])
            or wd.ndim != 2 or wd.shape[0] != cl + sd.shape[-1]):
        raise ShapeMismatchError("upsample_dense_silu", ld.shape, sd.shape, wd.shape)
    parents = (low, skip, w, b) if temb is None else (low, skip, w, b, temb)
    wl, ws = (Tensor._wrap(rows, w.requires_grad) for rows in (wd[:cl], wd[cl:]))
    d = _derivative_buffer(parents, math.prod(sd.shape[:-1]), wd.shape[1])
    yl = _affine("upsample_dense_silu", low, wl, b, temb)
    # upsample2x(yl) joins skip's product as yl's rows repeated along W and
    # added to both output rows of each pair, so no full-resolution
    # temporary is built; yl is freed before the product is allocated
    rows2 = np.repeat(yl.reshape(ld.shape[:-1] + wd.shape[1:]), 2, axis=-2)
    del yl
    y = _rows_matmul(sd, ws.data, w.requires_grad)
    pairs = y.reshape(rows2.shape[:-2] + (2,) + rows2.shape[-2:])
    pairs += rows2[..., None, :, :]
    del rows2, pairs
    low_vjp = _affine_vjp(low, wl, b, temb)
    skip_vjp = _affine_vjp(skip, ws, b, None)

    def pre_vjp(gy, needs):
        gl, gwl, *gbt = low_vjp(_sum2x2(gy).astype(_F32), needs[:1] + needs[2:])
        gs, gws, _ = skip_vjp(gy, needs[1:3] + (False,))
        return (gl, gs, None if gws is None else np.concatenate([gwl, gws]), *gbt)

    return _silu_node("upsample_dense_silu", y, d, sd.shape[:-1] + wd.shape[1:],
                      parents, pre_vjp)


def _row_max(y):
    """y.max(axis=-1) of a finite y, as np.maximum over the last axis' slices.

    One pass per slice instead of the per-row loop .max runs over a short
    last axis (about 15x faster at (64, 256, 8)). Max is exact, so the
    values are .max's; where the row's largest entries are a +0 and a -0,
    the sign of the zero returned may differ.
    """
    out = y[..., 0].copy()
    for j in range(1, y.shape[-1]):
        np.maximum(out, y[..., j], out=out)
    return out


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
    # a +0 or -0 row max changes only the sign of a zero, and exp maps both to 1
    y -= _row_max(y)[..., None]
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True, dtype=_F64).astype(_F32)

    # keep what the needed gradients read: the probabilities always, k^T for
    # x and wq, q's weights for x, the flattened x for wq, q for pm and wk
    need_x, need_p, need_q, need_k = _needs(x, pm, wq, wk)
    xshape, pshape, qshape, k2shape = xd.shape, pd.shape, qd.shape, k2.shape
    k_trainable = wk.requires_grad
    kt = kt if need_x or need_q else None
    qd = qd if need_x else None
    flat = flat if need_q else None
    q = q if need_p or need_k else None
    kd = kd if need_p else None
    pd = pd if need_k else None

    def vjp(g, needs):
        gs = g - (g * y).sum(axis=-1, keepdims=True, dtype=_F64).astype(_F32)
        gs *= y
        gs *= s32
        gx = gp = gq = gk = None
        if needs[0] or needs[2]:
            gqv = np.matmul(gs, kt.swapaxes(-1, -2))
            if needs[0]:
                gx = np.matmul(gqv, qd.swapaxes(-1, -2)).reshape(xshape)
            if needs[2]:
                gq = np.matmul(flat.reshape(-1, qshape[0]).T,
                               gqv.reshape(-1, qshape[1]))
        if needs[1] or needs[3]:
            # transposed back from (q^T @ gs), as the transpose node did
            gk2 = np.transpose(np.matmul(q.swapaxes(-1, -2), gs),
                               (0, 2, 1)).reshape(k2shape)
            if needs[1]:
                gp = _rows_matmul(gk2.reshape(bsz, s, -1), kd.T,
                                  k_trainable).reshape(pshape)
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

    # attn's gradient reads v; pm's and wv's read attn, and pm's wv, wv's pm
    _, need_a, need_p, need_v = _needs(x, attn, pm, wv)
    v2shape, pshape = v2.shape, pd.shape
    v_trainable = wv.requires_grad
    v = v if need_a else None
    atd = atd if need_p or need_v else None
    vd = vd if need_p else None
    pd = pd if need_v else None

    def vjp(g, needs):
        gav = g.reshape(bsz, n, -1)
        ga = np.matmul(gav, v.swapaxes(-1, -2)) if needs[1] else None
        gp = gw = None
        if needs[2] or needs[3]:
            gv2 = np.matmul(atd.swapaxes(-1, -2), gav).reshape(v2shape)
            if needs[2]:
                gp = _rows_matmul(gv2.reshape(bsz, s, -1), vd.T,
                                  v_trainable).reshape(pshape)
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
        # a read-only broadcast view: no vjp writes into its incoming g
        gs = (g / _F32(count)).astype(_F32)
        if axis is not None:
            gs = np.expand_dims(gs, axis)
        return (np.broadcast_to(gs, shape),)

    return _finish("mean", out, (x,), vjp)


def _sum64(sq):
    """float64 sums of sq, one per index of its first axis, cast to float32.

    Each image's sum runs over its own contiguous entries, so it has the
    bits of the whole-array sum of that image alone.
    """
    return sq.reshape(sq.shape[0], -1).sum(axis=1).astype(_F32)


def _per_image(g, ndim):
    """g, one value per image, shaped to broadcast over ndim-dim images."""
    return g.reshape(g.shape + (1,) * (ndim - g.ndim))


def frobenius_sq(x):
    """Sums of squared entries: a (B,) vector, one sum per index of x's
    first axis."""
    xd = x.data
    out = _sum64(xd.astype(_F64) ** 2)
    kept = xd if x.requires_grad else None

    def vjp(g, needs):
        return (_per_image(g, kept.ndim) * (_F32(2.0) * kept) if needs[0] else None,)

    return _finish("frobenius_sq", out, (x,), vjp)


def l2_sq_distance(a, b):
    """Squared L2 distances between two same-shape tensors: a (B,) vector,
    one distance per index of the first axis."""
    if a.shape != b.shape:
        raise ShapeMismatchError("l2_sq_distance", a.shape, b.shape)
    d64 = a.data.astype(_F64) - b.data.astype(_F64)
    out = _sum64(d64 * d64)

    def vjp(g, needs):
        gd = (_F64(2.0) * d64 * _per_image(g.astype(_F64), d64.ndim)).astype(_F32)
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
    view.key = None
    view.base = x.base if type(x) is _View else x
    return view


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
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def vjp(g, needs):
        outs = []
        for i, need in enumerate(needs):
            if not need:
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
