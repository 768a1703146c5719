"""Differentiable primitives.

Exactly the operations the tracking pipeline needs: elementwise
arithmetic, sums, matmul/linear, conv2d, pooling/upsampling, bilinear
sampling of vectors and of scalar patches, activations, multi-head
attention along a token axis, layer normalization and basic indexing.
Every public function here has a case in the finite-difference gradient
suite and is called by one tracker forward and backward pass; a test
checks each. `_run_shares` runs the independent shares of one
inference step on `_WORKERS` threads, for conv2d and the refiner.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import ConfigError, UsageError
from .tensor import Tensor, make_node


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _tracked(t: Tensor) -> bool:
    """Whether a backward pass wants a gradient for input `t`."""
    return t.requires_grad or t._vjp is not None


# ---------------------------------------------------------------------------
# worker threads


# Threads that run the independent shares of one piece of work: the CPUs
# this process may use. conv2d's multi-band forward and the refiner's
# attention blocks (see `refiner._AttnBlock`) split their work this many
# ways at most; every backward runs on the calling thread alone.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _run_shares(n: int, share) -> None:
    """Run `share(i)` for i in range(n): share 0 on the calling thread and
    the others on n - 1 worker threads, then re-raise a failed worker's
    error, the same exception object.

    One share runs inline, with no executor. The executor is made per
    call and joined before this returns, so no thread outlives the call
    and none starts at import. Each worker runs in a copy of the caller's
    context, so a caller's `np.errstate` holds in the workers too. The
    shares must write disjoint outputs: nothing here orders them. A
    share may serve many pieces of work in turn (conv2d's bands, the
    refiner's row tiles), dealt to it round-robin by the caller.
    """
    if n == 1:
        share(0)
        return
    with ThreadPoolExecutor(n - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, share, i) for i in range(1, n)]
        share(0)
        for future in futures:
            future.result()


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return make_node(a.data + b.data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return make_node(a.data - b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return make_node(a.data * b.data, (a, b), vjp)


def abs_(a) -> Tensor:
    a = as_tensor(a)
    sign = np.sign(a.data)
    return make_node(np.abs(a.data), (a,), lambda g: (g * sign,))


def sin(a) -> Tensor:
    a = as_tensor(a)
    return make_node(np.sin(a.data), (a,), lambda g: (g * np.cos(a.data),))


def cos(a) -> Tensor:
    a = as_tensor(a)
    return make_node(np.cos(a.data), (a,), lambda g: (-g * np.sin(a.data),))


# ---------------------------------------------------------------------------
# reductions


def sum_(a) -> Tensor:
    """Sum of every element, as a 0-d tensor."""
    a = as_tensor(a)
    return make_node(np.asarray(a.data.sum(), dtype=a.dtype), (a,),
                     lambda g: (np.broadcast_to(g, a.shape).astype(a.dtype, copy=True),))


# ---------------------------------------------------------------------------
# activations


def relu(a) -> Tensor:
    """max(a, 0) elementwise. NaN stays NaN, so a non-finite value is passed
    on to the caller's finiteness checks instead of being zeroed. The vjp
    reads `out > 0`, which is `a > 0` for every input, NaN included."""
    a = as_tensor(a)
    out = np.maximum(a.data, 0)
    return make_node(out, (a,), lambda g: (g * (out > 0),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    y = y.astype(a.dtype)
    return make_node(y, (a,), lambda g: (g * y * (1.0 - y),))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, maps) -> Tensor:
    """Per-slice products `a[i] @ maps[i].reshape(C, L)` in one (W, N, L) volume.

    `a` is (W, N, C) and `maps` holds W tensors of one shape (C, ...) with
    L cells after the first axis, so the maps of a window stay where they
    are instead of being stacked. Each slice is one GEMM of the shape that
    `np.matmul`'s batch loop would run over the stacked maps, so the
    volume and its gradients are that loop's bits. The vjp hands each map
    its own gradient, shaped like the map.
    """
    a, maps = as_tensor(a), [as_tensor(m) for m in maps]
    if a.ndim != 3 or len(maps) != a.shape[0]:
        raise ConfigError(f"matmul needs (W, N, C) and W maps, got {a.shape} and {len(maps)} maps")
    w_len, n, c = a.shape
    shape = maps[0].shape
    if shape[:1] != (c,) or any(m.shape != shape for m in maps):
        raise ConfigError(f"matmul maps must all be ({c}, ...), got {[m.shape for m in maps]}")
    flat = [m.data.reshape(c, -1) for m in maps]
    out = np.empty((w_len, n, flat[0].shape[1]), dtype=np.result_type(a.dtype, maps[0].dtype))
    for i, b in enumerate(flat):
        np.matmul(a.data[i], b, out=out[i])

    def vjp(g):
        ga = np.empty(a.shape, dtype=g.dtype)
        for i, b in enumerate(flat):
            np.matmul(g[i], b.T, out=ga[i])
        return (ga, *(np.matmul(a.data[i].T, g[i]).reshape(shape) for i in range(w_len)))

    return make_node(out, (a, *maps), vjp)


def linear(x, weight, bias) -> Tensor:
    """Affine map over the trailing dimension: y = x @ weight.T + bias.

    The leading axes are flattened first, so forward and both weight and
    input gradients are one 2-D GEMM each; `np.matmul` on an (N, W, D)
    input would call BLAS once per leading index.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if weight.ndim != 2 or x.shape[-1] != weight.shape[1]:
        raise ConfigError(
            f"linear dimension mismatch: input trailing dim {x.shape[-1]}, weight {weight.shape}"
        )
    d_out = weight.shape[0]
    if bias.shape != (d_out,):
        raise ConfigError(f"linear bias shape {bias.shape} != ({d_out},)")
    x_flat = x.data.reshape(-1, x.shape[-1])
    out = x_flat @ weight.data.T
    out += bias.data

    def vjp(g):
        g_flat = g.reshape(-1, d_out)
        return (g_flat @ weight.data).reshape(x.shape), g_flat.T @ x_flat, g_flat.sum(axis=0)

    return make_node(out.reshape(x.shape[:-1] + (d_out,)), (x, weight, bias), vjp)


def attention(qkv, heads: int, axis: int) -> Tensor:
    """Multi-head self-attention along one token axis of packed q, k and v.

    `qkv` is (A0, A1, 3D): the trailing axis holds q, k and v, each split
    into `heads` heads of width dh = D / heads. Tokens attend along `axis`
    (0 or 1); the other axis indexes independent sequences. The result is
    (A0, A1, D), each head's softmax(q kᵀ / √dh) v in its dh columns.

    q, k and v are (B, H, T, dh) views of the input, T the attended axis;
    only q is copied, scaled by 1/√dh, and `q @ kᵀ` reads k through a
    transposed view. Softmax runs in place on the (B, H, T, T) scores,
    and the last product writes the result through a strided view.
    Backward keeps the probabilities and the scaled q, and writes dq, dk
    and dv into one buffer shaped like the input.
    """
    qkv = as_tensor(qkv)
    if qkv.ndim != 3 or axis not in (0, 1) or heads < 1 or qkv.shape[2] % (3 * heads):
        raise ConfigError(f"attention needs (A0, A1, 3*heads*dh) and axis 0 or 1, "
                          f"got {qkv.shape}, heads={heads}, axis={axis}")
    a0, a1, d3 = qkv.shape
    dh = d3 // (3 * heads)
    # (A0, A1, 3, H, dh) -> (3, B, H, T, dh) and (A0, A1, H, dh) -> (B, H, T, dh)
    to_heads = (2, 1, 3, 0, 4) if axis == 0 else (2, 0, 3, 1, 4)
    to_out = (1, 2, 0, 3) if axis == 0 else (0, 2, 1, 3)
    split = (a0, a1, 3, heads, dh)
    per_head = qkv.data.reshape(split).transpose(to_heads)
    scale = qkv.dtype.type(1.0 / np.sqrt(dh))
    q, k, v = per_head[0] * scale, per_head[1], per_head[2]
    p = np.matmul(q, np.swapaxes(k, -1, -2))
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.einsum("...i->...", p)[..., None]
    out = np.empty((a0, a1, heads, dh), dtype=qkv.dtype)
    np.matmul(p, v, out=out.transpose(to_out))

    def vjp(g):
        go = g.reshape(a0, a1, heads, dh).transpose(to_out)
        dqkv = np.empty(split, dtype=g.dtype)
        dq, dk, dv = dqkv.transpose(to_heads)
        np.matmul(np.swapaxes(p, -1, -2), go, out=dv)
        ds = np.matmul(go, np.swapaxes(v, -1, -2))  # d p, then d scores in place
        ds -= np.einsum("...i,...i->...", ds, p)[..., None]
        ds *= p
        np.matmul(ds, k, out=dq)
        dq *= scale
        np.matmul(np.swapaxes(ds, -1, -2), q, out=dk)
        return (dqkv.reshape(qkv.shape),)

    return make_node(out.reshape(a0, a1, heads * dh), (qkv,), vjp)


# ---------------------------------------------------------------------------
# convolution and spatial ops


# Bytes that one band of conv2d columns may take. Of 2, 4 and 8 MB, 4 MB
# ran a 346x260 offline run fastest; every conv of a 64x64 tracker fits in
# one band. Each forward worker holds one band of columns.
_BAND_BYTES = 4 << 20

# conv2d's scratch, one set per calling thread: a column buffer per worker
# (keys 0, 1, ...) and the padded input (key "padded"), as flat bytes.
_scratch = threading.local()


def _scratch_array(key, shape, dtype) -> np.ndarray:
    """A `shape` array of `dtype` over the calling thread's `key` buffer.

    The buffer grows to fit and never shrinks, and it holds whatever its
    last use left in it.
    """
    held = _scratch.__dict__.setdefault("buffers", {})
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    if key not in held or held[key].nbytes < nbytes:
        held.pop(key, None)
        held[key] = np.empty(nbytes, dtype=np.uint8)
    return held[key][:nbytes].view(dtype).reshape(shape)


def conv2d(x, weight, bias, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding, lowered and multiplied one
    band of output rows at a time.

    Input is (Cin,H,W) and weight (Cout,Cin,k,k) with odd k; the result is
    (Cout,Ho,Wo). A band holds as many output rows as fit `_BAND_BYTES`
    of columns, at least one, and the bands split Ho evenly. A band's
    padded input is lowered to channels-first columns (Cin*k*k, rows*Wo),
    rows in (c, u, v) order, one strided slice copy per tap, into a
    column buffer. One GEMM `w.reshape(Cout, -1) @ cols` then writes that
    band's rows of the CHW output, so the reduction over Cin*k*k is that
    GEMM's. A map whose columns fit is one band. A large map holds one
    band of columns per worker, not the whole matrix: a 346x260 event
    stem's would be 44 MB.

    Scratch: the column buffers and the padded input (the input itself
    when pad is 0) belong to the calling thread, kept between calls in
    `_scratch` and grown to the largest conv it has run. They hold at
    most `_WORKERS` x max(`_BAND_BYTES`, one output row of columns) plus
    the largest padded input: about 12 MB for a 346x260 tracker and 2 MB
    at 64x64. Buffers of these sizes made afresh are mapped and faulted
    in on every call once glibc's mmap threshold is below them: a warm
    346x260 offline run of 8 slices (2 CPUs) took 96k minor faults and
    117-161 ms of system time with fresh buffers, 18-33k faults and
    55-138 ms with the scratch. The padded buffer's border is zeroed on
    every call, since an earlier conv of another shape wrote there.

    A forward of more than one band runs on `_WORKERS` threads through
    `_run_shares`: worker i lowers and multiplies bands i, i + W, ...
    through its own buffer, and the calling thread serves share 0. The
    calling thread hands out every buffer before the workers start.
    Bands read the padded input and write disjoint output rows, so they
    need no lock, and numpy releases the interpreter lock inside the
    GEMMs, which do most of the work. The band split does not depend
    on the worker count, because a GEMM's bits depend on its shape: with
    OpenBLAS 0.3.31, `w @ c[:, :n]` and the first n columns of `w @ c`
    differ in the last bit for many n. The workers run exactly the GEMMs
    one worker would, so the output is bit-identical at any worker
    count. A one-band map runs on the calling thread with no pool.

    The backward pass keeps no columns either. Band by band, in order on
    the calling thread, it rebuilds them from the input, padded in the
    same scratch, into one column buffer of its own, and adds the band's
    `g @ colsᵀ` to the weight gradient. Only when the input needs a
    gradient (an encoder stem's input does not), it writes the band's
    column gradient into that buffer and scatters it into the padded
    input gradient through the k*k slices. It stays sequential: adjacent
    bands scatter into overlapping halo rows, and every band adds into
    one weight gradient, whose sum order fixes its bits. Its column
    buffer is made per call, not taken from the scratch: there it would
    drop the event stem's columns from a one-window training step's
    traced peak, and `TestWindowedBackward`'s seven-window peak, which
    did not grow, would read 1.56x that peak against a bound of 1.5x.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    xd = x.data
    if xd.ndim != 3 or weight.ndim != 4:
        raise ConfigError(f"conv2d expects 3-D input and 4-D weight, got {x.shape}, {weight.shape}")
    cin, h, w = xd.shape
    cout, cin_w, k, k2 = weight.shape
    if k != k2 or k % 2 == 0:
        raise ConfigError(f"conv2d kernel must be square with odd size, got {k}x{k2}")
    if cin != cin_w:
        raise ConfigError(f"conv2d channel mismatch: input has {cin}, weight expects {cin_w}")
    if bias.shape != (cout,):
        raise ConfigError(f"conv2d bias shape {bias.shape} != ({cout},)")
    if pad < 0 or stride < 1:
        raise ConfigError(f"conv2d invalid stride={stride} pad={pad}")
    if (h + 2 * pad - k) < 0 or (w + 2 * pad - k) < 0:
        raise ConfigError(f"conv2d output would be empty for input {h}x{w}, k={k}, pad={pad}")
    ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    kk = cin * k * k
    rows = max(1, min(ho, _BAND_BYTES // (kk * wo * xd.itemsize)))
    n_bands = -(-ho // rows)
    rows = -(-ho // n_bands)  # the same band count, with rows spread evenly
    bands = [(r0, min(ho, r0 + rows)) for r0 in range(0, ho, rows)]

    def padded():
        """The input zero-padded in the calling thread's scratch; the input
        itself when there is no padding."""
        if pad == 0:
            return xd
        xp = _scratch_array("padded", (cin, h + 2 * pad, w + 2 * pad), xd.dtype)
        xp[:, :pad] = 0
        xp[:, pad + h :] = 0
        xp[:, pad : pad + h, :pad] = 0
        xp[:, pad : pad + h, pad + w :] = 0
        xp[:, pad : pad + h, pad : pad + w] = xd
        return xp

    # Tap (u, v) of output rows r0:r1 reads the (Cin, r1-r0, Wo) strided view
    # a[:, u + stride*r0 : u + stride*r1 : stride, v : v + stride*wo : stride]
    # of padded `a`. The loops below write that slice out rather than call a
    # helper per tap: a 7x7 stem has 49 taps, and small maps feel the calls.
    def columns(xp, buf, r0, r1):
        """Band r0:r1's (Cin*k*k, (r1-r0)*Wo) columns, built in `buf`."""
        cols = buf[: kk * (r1 - r0) * wo].reshape(cin, k, k, r1 - r0, wo)
        for u in range(k):
            for v in range(k):
                cols[:, u, v] = xp[:, u + stride * r0 : u + stride * r1 : stride,
                                   v : v + stride * wo : stride]
        return cols.reshape(kk, (r1 - r0) * wo)

    w_flat = weight.data.reshape(cout, kk)
    out = np.empty((cout, ho * wo), dtype=xd.dtype)
    xp = padded()
    workers = min(_WORKERS, len(bands))
    bufs = [_scratch_array(i, kk * rows * wo, xd.dtype) for i in range(workers)]

    def share(i):
        """Bands i, i + workers, ... into their rows of `out`, through bufs[i]."""
        for r0, r1 in bands[i::workers]:
            np.matmul(w_flat, columns(xp, bufs[i], r0, r1), out=out[:, r0 * wo : r1 * wo])

    _run_shares(workers, share)
    out = out.reshape(cout, ho, wo)
    out += bias.data[:, None, None]

    def vjp(g):
        g = g.reshape(cout, ho * wo)
        gb = g.sum(axis=1)
        want_dx = _tracked(x)
        gw = np.empty((cout, kk), dtype=g.dtype)
        dxp = np.zeros((cin, h + 2 * pad, w + 2 * pad), dtype=g.dtype) if want_dx else None
        xp, buf = padded(), np.empty(kk * rows * wo, dtype=g.dtype)
        for r0, r1 in bands:
            g_band = g[:, r0 * wo : r1 * wo]
            cols = columns(xp, buf, r0, r1)
            if r0 == 0:
                np.matmul(g_band, cols.T, out=gw)
            else:
                gw += np.matmul(g_band, cols.T)
            if not want_dx:
                continue
            dcols = np.matmul(w_flat.T, g_band, out=cols).reshape(cin, k, k, r1 - r0, wo)
            for u in range(k):
                for v in range(k):
                    dxp[:, u + stride * r0 : u + stride * r1 : stride,
                        v : v + stride * wo : stride] += dcols[:, u, v]
        gw = gw.reshape(weight.shape)
        if not want_dx:
            return None, gw, gb
        return dxp[:, pad : pad + h, pad : pad + w], gw, gb

    return make_node(out, (x, weight, bias), vjp)


def avg_pool2(x) -> Tensor:
    """2x2 mean pooling with stride 2 over the trailing two axes.

    Ragged right/bottom edges average over the cells that exist, so the
    output extents are ceil(H/2) x ceil(W/2).
    """
    x = as_tensor(x)
    if x.ndim < 2 or x.shape[-1] < 1 or x.shape[-2] < 1:
        raise ConfigError(f"avg_pool2 needs trailing spatial dims, got {x.shape}")
    h, w = x.shape[-2], x.shape[-1]
    ho, wo = (h + 1) // 2, (w + 1) // 2
    total = np.zeros(x.shape[:-2] + (ho, wo), dtype=x.dtype)
    count = np.zeros((ho, wo), dtype=x.dtype)
    for du in (0, 1):
        for dv in (0, 1):
            sub = x.data[..., du::2, dv::2]
            total[..., : sub.shape[-2], : sub.shape[-1]] += sub
            count[: sub.shape[-2], : sub.shape[-1]] += 1
    out = total / count

    def vjp(g):
        gc = g / count
        dx = np.zeros_like(x.data)
        for du in (0, 1):
            for dv in (0, 1):
                sub = dx[..., du::2, dv::2]
                sub += gc[..., : sub.shape[-2], : sub.shape[-1]]
        return (dx,)

    return make_node(out, (x,), vjp)


def upsample2_nearest(x, out_hw) -> Tensor:
    """Nearest-neighbor 2x upsampling of the trailing two axes, cropped to out_hw."""
    x = as_tensor(x)
    h, w = x.shape[-2], x.shape[-1]
    ho, wo = out_hw
    if ho > 2 * h or wo > 2 * w or ho < 1 or wo < 1:
        raise ConfigError(f"upsample2_nearest cannot map {h}x{w} onto {ho}x{wo}")
    out = np.repeat(np.repeat(x.data, 2, axis=-2), 2, axis=-1)[..., :ho, :wo]
    out = np.ascontiguousarray(out)

    def vjp(g):
        gp = np.zeros(x.shape[:-2] + (2 * h, 2 * w), dtype=g.dtype)
        gp[..., :ho, :wo] = g
        dx = gp.reshape(x.shape[:-2] + (h, 2, w, 2)).sum(axis=(-3, -1))
        return (dx,)

    return make_node(out, (x,), vjp)


def bilinear_sample(fmap, points) -> Tensor:
    """Bilinearly sample feature vectors at continuous (x, y) positions.

    `fmap` is (C,H,W) and `points` a (P,2) array of (x, y) positions, x
    rightward, y downward, pixel centers at integer coordinates; the
    result is (P,C). Neighbors outside the grid contribute zero, so a
    position fully outside reads the zero vector. The points are data,
    so only the map gets a gradient; every point reads the one map, so
    that gradient sums their scatters with `np.add.at`.
    """
    fmap = as_tensor(fmap)
    pts = np.asarray(points, dtype=fmap.dtype)
    if fmap.ndim != 3 or pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigError(f"bilinear_sample shapes: map {fmap.shape}, points {pts.shape}")
    c, h, w = fmap.shape

    fmc = np.ascontiguousarray(fmap.data.transpose(1, 2, 0))  # (H,W,C)
    x, y = pts[:, 0], pts[:, 1]
    x0 = np.floor(x)
    y0 = np.floor(y)
    fx = x - x0
    fy = y - y0
    x0i = x0.astype(np.int64)
    y0i = y0.astype(np.int64)

    corners = []
    out = np.zeros((len(pts), c), dtype=fmap.dtype)
    for dy, dx, wgt in ((0, 0, (1 - fx) * (1 - fy)), (0, 1, fx * (1 - fy)),
                        (1, 0, (1 - fx) * fy), (1, 1, fx * fy)):
        xi = x0i + dx
        yi = y0i + dy
        valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        xc = np.clip(xi, 0, w - 1)
        yc = np.clip(yi, 0, h - 1)
        out += fmc[yc, xc] * valid[:, None] * wgt[:, None]
        corners.append((yc, xc, wgt * valid))

    def vjp(g):
        gmap = np.zeros_like(fmc)
        for yc, xc, wgt in corners:
            np.add.at(gmap, (yc, xc), g * wgt[:, None])
        return (gmap.transpose(2, 0, 1),)

    return make_node(out, (fmap,), vjp)


def bilinear_patch(vol, points, radius: int) -> Tensor:
    """Bilinear reads of one scalar map per row on a grid of integer offsets.

    `vol` is (B,h,w), one map per row; `points` is (B,2) in that map's
    cells, (x, y) as in `bilinear_sample`. Row b of the (B, (2r+1)^2)
    result holds vol[b] at points[b] + (dx, dy) for dx, dy in [-r, r],
    dy-major then dx, with cells past the border reading zero.

    Every tap shares the fractional part of its point, so a row gathers
    one (2r+2)^2 patch of cells and applies one 2x2 stencil to it, along
    x and then along y. A row's patch cells that lie on the map are
    distinct and rows own their maps, so the map gradient is a single
    scatter by assignment; the point gradient is the stencil's
    derivative summed over the taps.
    """
    vol, points = as_tensor(vol), as_tensor(points)
    if vol.ndim != 3 or points.shape != (vol.shape[0], 2):
        raise ConfigError(f"bilinear_patch shapes: maps {vol.shape}, points {points.shape}")
    if radius < 0:
        raise ConfigError(f"bilinear_patch radius must be >= 0, got {radius}")
    b, h, w = vol.shape
    x0 = np.floor(points.data[:, 0])
    y0 = np.floor(points.data[:, 1])
    fx = (points.data[:, 0] - x0).astype(vol.dtype)[:, None, None]
    fy = (points.data[:, 1] - y0).astype(vol.dtype)[:, None, None]
    cells = np.arange(-radius, radius + 2)
    xs = x0.astype(np.int64)[:, None] + cells  # (B, 2r+2)
    ys = y0.astype(np.int64)[:, None] + cells
    on_map = ((ys >= 0) & (ys < h))[:, :, None] & ((xs >= 0) & (xs < w))[:, None, :]
    flat = ((np.arange(b)[:, None, None] * h + np.clip(ys, 0, h - 1)[:, :, None]) * w
            + np.clip(xs, 0, w - 1)[:, None, :])  # (B, 2r+2, 2r+2) indices into vol
    patch = np.take(vol.data, flat) * on_map
    rows = patch[:, :, :-1] * (1 - fx) + patch[:, :, 1:] * fx  # (B, 2r+2, 2r+1)
    out = rows[:, :-1] * (1 - fy) + rows[:, 1:] * fy

    def vjp(g):
        g = g.reshape(out.shape)
        dvol = dpts = None
        if _tracked(vol):
            grows = np.zeros(rows.shape, dtype=g.dtype)
            grows[:, :-1] = g * (1 - fy)
            grows[:, 1:] += g * fy
            gpatch = np.zeros(patch.shape, dtype=g.dtype)
            gpatch[:, :, :-1] = grows * (1 - fx)
            gpatch[:, :, 1:] += grows * fx
            # off-map cells all land on one extra cell past the end, then dropped
            dflat = np.zeros(vol.size + 1, dtype=g.dtype)
            dflat[np.where(on_map, flat, vol.size)] = gpatch
            dvol = dflat[:-1].reshape(vol.shape)
        if _tracked(points):
            dcols = patch[:, :, 1:] - patch[:, :, :-1]
            d_fx = dcols[:, :-1] * (1 - fy) + dcols[:, 1:] * fy
            d_fy = rows[:, 1:] - rows[:, :-1]
            dpts = np.stack([(g * d_fx).sum(axis=(1, 2)), (g * d_fy).sum(axis=(1, 2))], axis=-1)
        return dvol, dpts

    return make_node(out.reshape(b, -1), (vol, points), vjp)


def layernorm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then affine.

    The input is centred once; the row sums are `einsum`s, the variance
    a row dot of the centred rows, and x̂ is scaled in place in that
    buffer.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ConfigError(f"layernorm affine shapes {gamma.shape}/{beta.shape} != ({d},)")
    xhat = x.data - np.einsum("...i->...", x.data)[..., None] / d
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data

    def vjp(g):
        rows, xrows = g.reshape(-1, d), xhat.reshape(-1, d)
        dgamma = np.einsum("ni,ni->i", rows, xrows)
        dbeta = rows.sum(axis=0)
        dx = g * gamma.data
        mean = np.einsum("...i->...", dx)[..., None] / d
        proj = np.einsum("...i,...i->...", dx, xhat)[..., None] / d
        dx -= mean
        dx -= xhat * proj
        dx *= inv
        return dx, dgamma, dbeta

    return make_node(out, (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape) -> Tensor:
    """numpy's reshape: a view of `a` unless its strides rule one out."""
    a = as_tensor(a)
    return make_node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return make_node(out, tuple(tensors), vjp)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.moveaxis(g, axis, 0))

    return make_node(out, tuple(tensors), vjp)


def getitem(a, index) -> Tensor:
    """numpy basic indexing: ints, slices, None and Ellipsis.

    A basic index never reads a cell twice, so the gradient is one
    assignment into zeros. Array, list and boolean indexes are rejected.
    """
    a = as_tensor(a)
    for part in index if isinstance(index, tuple) else (index,):
        basic = part is None or part is Ellipsis or isinstance(part, slice) or (
            isinstance(part, (int, np.integer)) and not isinstance(part, (bool, np.bool_)))
        if not basic:
            raise ConfigError(f"getitem takes basic indexes only, got {type(part).__name__}")
    out = a.data[index]

    def vjp(g):
        dx = np.zeros_like(a.data)
        dx[index] = g
        return (dx,)

    return make_node(np.ascontiguousarray(out), (a,), vjp)
