"""Differentiable primitives.

Exactly the operations the tracking pipeline needs: elementwise
arithmetic, reductions, matmul/linear, conv2d, pooling/upsampling,
bilinear sampling, activations, softmax, and layer normalization.
Every primitive here is covered by the finite-difference gradient suite.
"""

from __future__ import annotations

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


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return make_node(a.data / b.data, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return make_node(-a.data, (a,), lambda g: (-g,))


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


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=True),)
        gx = g
        if not keepdims:
            gx = np.expand_dims(gx, axis)
        return (np.broadcast_to(gx, a.shape).astype(a.dtype, copy=True),)

    return make_node(np.asarray(out, dtype=a.dtype), (a,), vjp)


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.shape[ax] for ax in axes]))

    def vjp(g):
        if axis is None:
            gx = np.broadcast_to(g / count, a.shape)
        else:
            gs = g if keepdims else np.expand_dims(g, axis)
            gx = np.broadcast_to(gs / count, a.shape)
        return (gx.astype(a.dtype, copy=True),)

    return make_node(np.asarray(out, dtype=a.dtype), (a,), vjp)


# ---------------------------------------------------------------------------
# activations


def relu(a) -> Tensor:
    """max(a, 0) elementwise. NaN stays NaN, so a non-finite value is passed
    on to the caller's finiteness checks instead of being zeroed."""
    a = as_tensor(a)
    mask = a.data > 0
    return make_node(np.maximum(a.data, 0), (a,), lambda g: (g * mask,))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    y = y.astype(a.dtype)
    return make_node(y, (a,), lambda g: (g * y * (1.0 - y),))


def softmax_lastdim(a) -> Tensor:
    """Softmax over the trailing axis, stabilized by max subtraction."""
    a = as_tensor(a)
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return make_node(y, (a,), vjp)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ConfigError(f"matmul requires ndim >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ConfigError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return make_node(out, (a, b), vjp)


def linear(x, weight, bias=None) -> Tensor:
    """Affine map over the trailing dimension: y = x @ weight.T + bias.

    The leading axes are flattened first, so forward and both weight and
    input gradients are one 2-D GEMM each; `np.matmul` on an (N, W, D)
    input would call BLAS once per leading index.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if weight.ndim != 2 or x.shape[-1] != weight.shape[1]:
        raise ConfigError(
            f"linear dimension mismatch: input trailing dim {x.shape[-1]}, weight {weight.shape}"
        )
    d_out = weight.shape[0]
    x_flat = x.data.reshape(-1, x.shape[-1])
    out = x_flat @ weight.data.T
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (d_out,):
            raise ConfigError(f"linear bias shape {bias.shape} != ({d_out},)")
        out += bias.data

    def vjp(g):
        g_flat = g.reshape(-1, d_out)
        gx = (g_flat @ weight.data).reshape(x.shape)
        gw = g_flat.T @ x_flat
        if bias is None:
            return gx, gw
        return gx, gw, g_flat.sum(axis=0)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return make_node(out.reshape(x.shape[:-1] + (d_out,)), parents, vjp)


# ---------------------------------------------------------------------------
# convolution and spatial ops


def conv2d(x, weight, bias, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding.

    Accepts (Cin,H,W) or (N,Cin,H,W) input; weight is (Cout,Cin,k,k) with
    odd k. The padded input is lowered to channels-first columns
    (N, Cin*k*k, Ho*Wo), rows in (c, u, v) order, one strided slice copy
    per tap; one GEMM `w.reshape(Cout, -1) @ cols` then lands in NCHW, and
    the reduction order over Cin*k*k is fixed by that GEMM. The backward
    pass keeps no columns: it rebuilds them from the input it holds and
    scatters the column gradient back through the same k*k slices.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4 or weight.ndim != 4:
        raise ConfigError(f"conv2d expects 3/4-D input and 4-D weight, got {x.shape}, {weight.shape}")
    n, cin, h, w = xd.shape
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

    def tap(a, u, v):
        """The (N, Cin, Ho, Wo) strided view of padded `a` that tap (u, v) reads."""
        return a[:, :, u : u + stride * ho : stride, v : v + stride * wo : stride]

    def columns():
        xp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad), dtype=xd.dtype)
        xp[:, :, pad : pad + h, pad : pad + w] = xd
        cols = np.empty((n, cin, k, k, ho, wo), dtype=xd.dtype)
        for u, v in np.ndindex(k, k):
            cols[:, :, u, v] = tap(xp, u, v)
        return cols.reshape(n, cin * k * k, ho * wo)

    w_flat = weight.data.reshape(cout, -1)
    out = np.matmul(w_flat, columns()).reshape(n, cout, ho, wo)
    out += bias.data[:, None, None]

    def vjp(g):
        g = g.reshape(n, cout, ho * wo)
        gw = np.matmul(g, columns().transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
        dcols = np.matmul(w_flat.T, g).reshape(n, cin, k, k, ho, wo)
        dxp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad), dtype=g.dtype)
        for u, v in np.ndindex(k, k):
            tap(dxp, u, v)[...] += dcols[:, :, u, v]
        dx = dxp[:, :, pad : pad + h, pad : pad + w]
        return (dx[0] if squeeze else dx), gw, g.sum(axis=(0, 2))

    return make_node(out[0] if squeeze else out, (x, weight, bias), vjp)


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

    `fmap` is (C,H,W) or (B,C,H,W); `points` is (P,2) or (B,P,2) with x
    rightward, y downward, and pixel centers at integer coordinates.
    Neighbors outside the grid contribute zero, so positions fully outside
    return the zero vector. Differentiable in both the map and the points.
    """
    fmap, points = as_tensor(fmap), as_tensor(points)
    squeeze = fmap.ndim == 3
    fm = fmap.data[None] if squeeze else fmap.data
    pts = points.data[None] if points.ndim == 2 else points.data
    if fm.ndim != 4 or pts.ndim != 3 or pts.shape[-1] != 2:
        raise ConfigError(f"bilinear_sample shapes: map {fmap.shape}, points {points.shape}")
    if not squeeze and fm.shape[0] != pts.shape[0]:
        raise ConfigError(f"bilinear_sample batch mismatch: {fm.shape[0]} maps, {pts.shape[0]} point sets")
    b, c, h, w = fm.shape
    p = pts.shape[1]

    fmc = np.ascontiguousarray(fm.transpose(0, 2, 3, 1))  # (B,H,W,C)
    x, y = pts[..., 0], pts[..., 1]
    x0 = np.floor(x)
    y0 = np.floor(y)
    fx = (x - x0).astype(fm.dtype)
    fy = (y - y0).astype(fm.dtype)
    x0i = x0.astype(np.int64)
    y0i = y0.astype(np.int64)
    bidx = np.arange(b)[:, None]

    corners = []
    out = np.zeros((b, p, c), dtype=fm.dtype)
    for dy, dx, wgt, dwx, dwy in (
        (0, 0, (1 - fx) * (1 - fy), -(1 - fy), -(1 - fx)),
        (0, 1, fx * (1 - fy), (1 - fy), -fx),
        (1, 0, (1 - fx) * fy, -fy, (1 - fx)),
        (1, 1, fx * fy, fy, fx),
    ):
        xi = x0i + dx
        yi = y0i + dy
        valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        xc = np.clip(xi, 0, w - 1)
        yc = np.clip(yi, 0, h - 1)
        vals = fmc[bidx, yc, xc] * valid[..., None]
        out += vals * wgt[..., None]
        corners.append((yc, xc, valid, wgt, dwx, dwy, vals))

    def vjp(g):
        if g.ndim == 2:
            g = g[None]
        need_map = fmap.requires_grad or fmap._vjp is not None
        need_pts = points.requires_grad or points._vjp is not None
        gmap = np.zeros_like(fmc) if need_map else None
        gx = np.zeros((b, p), dtype=fm.dtype) if need_pts else None
        gy = np.zeros((b, p), dtype=fm.dtype) if need_pts else None
        for yc, xc, valid, wgt, dwx, dwy, vals in corners:
            if need_map:
                np.add.at(gmap, (bidx, yc, xc), g * (wgt * valid)[..., None])
            if need_pts:
                gdotv = (g * vals).sum(axis=-1)
                gx += gdotv * dwx
                gy += gdotv * dwy
        dmap = None
        if need_map:
            dmap = gmap.transpose(0, 3, 1, 2)
            if squeeze:
                dmap = dmap[0]
        dpts = None
        if need_pts:
            dpts = np.stack([gx, gy], axis=-1)
            if points.ndim == 2:
                dpts = dpts[0]
        return dmap, dpts

    return make_node(out[0] if squeeze and points.ndim == 2 else out, (fmap, points), vjp)


def layernorm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ConfigError(f"layernorm affine shapes {gamma.shape}/{beta.shape} != ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma.data + beta.data

    def vjp(g):
        reduce_axes = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=reduce_axes)
        dbeta = g.sum(axis=reduce_axes)
        dxhat = g * gamma.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgamma, dbeta

    return make_node(out, (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape) -> Tensor:
    """numpy's reshape: a view of `a` unless its strides rule one out."""
    a = as_tensor(a)
    return make_node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    inv = tuple(np.argsort(axes))
    out = np.ascontiguousarray(a.data.transpose(axes))
    return make_node(out, (a,), lambda g: (g.transpose(inv),))


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
    a = as_tensor(a)
    out = a.data[index]

    def vjp(g):
        dx = np.zeros_like(a.data)
        np.add.at(dx, index, g)
        return (dx,)

    return make_node(np.ascontiguousarray(out), (a,), vjp)
