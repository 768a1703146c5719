import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from evtrack.autodiff import (
    ParamStore,
    Tensor,
    adamw_step,
    backward,
    load_weights,
    no_grad,
    ops,
    precision,
    save_weights,
)
from evtrack.errors import ConfigError, TrainingError, UsageError
from fd_oracle import assert_grads_close, numerical_grad
from oracles import conv2d_oracle


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((3, 6, 7)).astype(np.float32))
    w = np.zeros((3, 3, 1, 1), dtype=np.float32)
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = ops.conv2d(x, Tensor(w), Tensor(np.zeros(3, dtype=np.float32)))
    assert np.array_equal(out.data, x.data)


def test_conv2d_all_ones_center():
    x = Tensor(np.ones((1, 5, 5), dtype=np.float32))
    w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    out = ops.conv2d(x, w, Tensor(np.zeros(1, dtype=np.float32)), stride=1, pad=1)
    assert out.shape == (1, 5, 5)
    assert out.data[0, 2, 2] == 9.0
    assert out.data[0, 0, 0] == 4.0  # corner sees a 2x2 valid patch


def test_conv2d_zero_input_gives_bias():
    x = Tensor(np.zeros((2, 4, 4), dtype=np.float32))
    w = Tensor(np.random.default_rng(0).standard_normal((3, 2, 3, 3)).astype(np.float32))
    b = Tensor(np.array([1.0, -2.0, 0.5], dtype=np.float32))
    out = ops.conv2d(x, w, b, pad=1)
    for c, v in enumerate([1.0, -2.0, 0.5]):
        assert np.all(out.data[c] == np.float32(v))


def test_conv2d_shape_errors():
    x = Tensor(np.zeros((2, 4, 4), dtype=np.float32))
    w = Tensor(np.zeros((3, 5, 3, 3), dtype=np.float32))
    with pytest.raises(ConfigError):
        ops.conv2d(x, w, Tensor(np.zeros(3)))
    w_even = Tensor(np.zeros((3, 2, 2, 2), dtype=np.float32))
    with pytest.raises(ConfigError):
        ops.conv2d(x, w_even, Tensor(np.zeros(3)))


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_matches_oracle(k, stride):
    rng = np.random.default_rng(10 * k + stride)
    for pad in range(k // 2 + 1):
        for batched in (False, True):
            cin, cout = rng.integers(1, 6, size=2)
            # padded extent minus k is odd on one axis, so a stride-2 output
            # drops that axis's last row or column, and even on the other
            span = k - 2 * pad
            odd, even = span + 2 * rng.integers(0, 4) + 1, span + 2 * rng.integers(0, 4)
            h, w = (odd, even) if batched else (even, odd)
            shape = (int(rng.integers(1, 4)), cin, h, w) if batched else (cin, h, w)
            x = rng.standard_normal(shape).astype(np.float32)
            wt = rng.standard_normal((cout, cin, k, k)).astype(np.float32)
            b = rng.standard_normal(cout).astype(np.float32)
            out = ops.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, pad=pad)
            ref = conv2d_oracle(x, wt, b, stride, pad)
            assert out.shape == ref.shape
            np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max(),
                                       err_msg=f"pad={pad} shape={shape}")


def test_conv2d_node_holds_no_columns():
    """A grad-enabled conv node holds its output, not the Cin*k*k-row columns:
    the backward pass rebuilds those from the input."""
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((64, 32, 32)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((64, 64, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(64, dtype=np.float32), requires_grad=True)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ops.conv2d(x, w, b, pad=1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out._vjp is not None
    assert held < 4 * x.data.nbytes


def test_linear_examples():
    ident = ops.linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
    assert np.allclose(ident.data, [[1.0, 2.0]])
    y = ops.linear(Tensor([1.0, 2.0]), Tensor([[1.0, 1.0], [0.0, 1.0]]), Tensor([0.0, 0.0]))
    assert np.allclose(y.data, [3.0, 2.0])
    bias_only = ops.linear(Tensor([[0.0, 0.0]]), Tensor(np.eye(2)), Tensor([4.0, 5.0]))
    assert np.allclose(bias_only.data, [[4.0, 5.0]])
    with pytest.raises(ConfigError):
        ops.linear(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))


@pytest.mark.parametrize("d_out", [2, 256])  # the head_pos and proj widths
def test_linear_flattened_matches_per_slice(d_out):
    rng = np.random.default_rng(d_out)
    x = rng.standard_normal((16, 8, 256)).astype(np.float32)  # (W, N, D)
    w = (rng.standard_normal((d_out, 256)) / 16).astype(np.float32)
    b = rng.standard_normal(d_out).astype(np.float32)
    y = ops.linear(Tensor(x), Tensor(w), Tensor(b)).data
    assert y.shape == (16, 8, d_out) and y.dtype == np.float32
    for i in range(len(x)):
        np.testing.assert_allclose(y[i], x[i] @ w.T + b, rtol=1e-5, atol=1e-6)


def test_reshape_of_contiguous_input_is_a_view():
    a = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    out = ops.reshape(a, (6, 4))
    assert np.shares_memory(out.data, a.data)
    assert np.array_equal(out.data, a.data.reshape(6, 4))


def test_relu_passes_nan_on():
    """NaN stays NaN, so the refiner's finiteness check still sees it."""
    y = ops.relu(Tensor([np.nan, -1.0, 2.0])).data
    assert np.isnan(y[0]) and y[1] == 0.0 and y[2] == 2.0


def test_softmax_rows():
    y = ops.softmax_lastdim(Tensor([[0.0, math.log(3.0)]], dtype=np.float64))
    assert np.allclose(y.data, [[0.25, 0.75]])
    u = ops.softmax_lastdim(Tensor(np.full((4, 7), 3.25)))
    assert np.allclose(u.data, 1.0 / 7)
    rng = np.random.default_rng(3)
    z = ops.softmax_lastdim(Tensor(rng.standard_normal((5, 9)) * 20))
    assert np.all(z.data >= 0)
    assert np.allclose(z.data.sum(axis=-1), 1.0, atol=1e-6)


def test_bilinear_sample_values():
    # map laid out [y][x]: (0,0)=1 (1,0)=3 (0,1)=5 (1,1)=7
    fmap = Tensor(np.array([[[1.0, 3.0], [5.0, 7.0]]]))
    mid = ops.bilinear_sample(fmap, np.array([[0.5, 0.5]]))
    assert np.allclose(mid.data, [[4.0]])
    grid = ops.bilinear_sample(fmap, np.array([[1.0, 0.0]]))
    assert np.allclose(grid.data, [[3.0]])
    outside = ops.bilinear_sample(fmap, np.array([[-1.0, -1.0], [10.0, 10.0]]))
    assert np.allclose(outside.data, 0.0)


def test_bilinear_sample_is_continuous():
    rng = np.random.default_rng(5)
    fmap = Tensor(rng.standard_normal((4, 8, 8)))
    span = float(fmap.data.max() - fmap.data.min())
    pts = rng.uniform(-1.0, 8.0, size=(50, 2))
    eps = 1e-4
    a = ops.bilinear_sample(fmap, pts).data
    b = ops.bilinear_sample(fmap, pts + eps).data
    assert np.max(np.abs(a - b)) <= 4 * eps * span


def test_avg_pool2_values():
    block = ops.avg_pool2(Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]])))
    assert np.allclose(block.data, [[[2.5]]])
    const = ops.avg_pool2(Tensor(np.full((2, 5, 7), 1.25)))
    assert const.shape == (2, 3, 4)
    assert np.all(const.data == np.float32(1.25))
    single = ops.avg_pool2(Tensor(np.array([[[9.0]]])))
    assert np.allclose(single.data, [[[9.0]]])


def test_backward_basics():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    loss = x.sum()
    backward(loss)
    assert np.array_equal(x.grad, np.ones((2, 3), dtype=np.float32))

    x2 = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    loss2 = (x2 * x2).sum() * 0.5
    backward(loss2)
    assert np.allclose(x2.grad, x2.data)


def test_backward_non_scalar_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(UsageError):
        backward(x * 2.0)


def test_backward_unreachable_param_gets_zero():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    loss = (a * 3.0).sum()
    backward(loss, params=[a, b])
    assert np.allclose(a.grad, 3.0)
    assert np.array_equal(b.grad, np.zeros(2, dtype=np.float32))


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert y._vjp is None and y._parents == ()


def test_forward_determinism():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 8, 16, 16)).astype(np.float32)
    w = rng.standard_normal((4, 8, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    r1 = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, pad=1).data
    r2 = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, pad=1).data
    assert np.array_equal(r1, r2)


def test_adamw_examples():
    store = ParamStore()
    p = store.create("w", np.array([1.0, 2.0], dtype=np.float32))

    # zero grad, zero decay: value unchanged, step count advanced
    p.grad = np.zeros(2, dtype=np.float32)
    adamw_step(store, lr=0.1)
    assert np.allclose(p.data, [1.0, 2.0])
    assert store.step_count("w") == 1

    # first step with unit gradient moves by ~lr (bias corrections cancel)
    store2 = ParamStore()
    q = store2.create("w", np.array([1.0], dtype=np.float32))
    q.grad = np.array([1.0], dtype=np.float32)
    adamw_step(store2, lr=0.001)
    assert abs(q.data[0] - (1.0 - 0.001)) < 1e-6

    # pure weight decay: multiplicative shrink by (1 - lr*wd)
    store3 = ParamStore()
    r = store3.create("w", np.array([2.0], dtype=np.float32))
    r.grad = np.zeros(1, dtype=np.float32)
    adamw_step(store3, lr=0.01, weight_decay=0.5)
    assert abs(r.data[0] - 2.0 * (1.0 - 0.01 * 0.5)) < 1e-7


def test_adamw_rejects_non_finite():
    store = ParamStore()
    p = store.create("layer.w", np.ones(2, dtype=np.float32))
    p.grad = np.array([np.nan, 0.0], dtype=np.float32)
    with pytest.raises(TrainingError, match="layer.w"):
        adamw_step(store, lr=0.1)


def test_weight_serialization_roundtrip(tmp_path):
    store = ParamStore()
    rng = np.random.default_rng(7)
    store.create("enc.w", rng.standard_normal((3, 4)).astype(np.float32))
    store.create("enc.b", rng.standard_normal(3).astype(np.float32))
    path = str(tmp_path / "weights.bin")
    save_weights(store, path, extra={"step": 5})

    with open(path + ".json") as f:
        manifest = json.load(f)
    assert [e["name"] for e in manifest["entries"]] == ["enc.w", "enc.b"]
    assert manifest["entries"][1]["byte_offset"] == 3 * 4 * 4

    fresh = ParamStore()
    fresh.create("enc.w", np.zeros((3, 4), dtype=np.float32))
    fresh.create("enc.b", np.zeros(3, dtype=np.float32))
    meta = load_weights(fresh, path)
    assert meta["step"] == 5
    assert np.array_equal(fresh["enc.w"].data, store["enc.w"].data)

    bad = ParamStore()
    bad.create("enc.w", np.zeros((4, 4), dtype=np.float32))
    bad.create("enc.b", np.zeros(3, dtype=np.float32))
    with pytest.raises(ConfigError):
        load_weights(bad, path)


# ---------------------------------------------------------------------------
# finite-difference gradient checks for every primitive


def _check_op(build, n_args, seed, rel_tol=1e-4):
    """Compare reverse-mode grads of scalar sum(build(*args)) against the oracle."""
    rng = np.random.default_rng(seed)
    with precision("f64"):
        arrays = build(rng, make_arrays=True)

        def scalar_fn(*arrs):
            with precision("f64"):
                ts = [Tensor(a) for a in arrs]
                return float(build(rng, tensors=ts).data.sum())

        ts = [Tensor(a, requires_grad=True) for a in arrays]
        out = build(rng, tensors=ts)
        backward(out.sum())
        for i in range(n_args):
            num = numerical_grad(scalar_fn, arrays, i)
            assert_grads_close(ts[i].grad, num, rel_tol, label=f"arg{i}")


def _away_from_kinks(rng, shape, margin=0.15):
    x = rng.standard_normal(shape)
    return np.where(np.abs(x) < margin, x + np.sign(x + 0.5) * margin, x)


CASES = {}


def case(name, n_args):
    def reg(fn):
        CASES[name] = (fn, n_args)
        return fn

    return reg


@case("add", 2)
def _build_add(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]
    return ops.add(*tensors)


@case("add_broadcast", 2)
def _build_add_b(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 4)), rng.standard_normal((1, 4))]
    return ops.add(*tensors)


@case("sub", 2)
def _build_sub(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((2, 5)), rng.standard_normal((2, 5))]
    return ops.sub(*tensors)


@case("mul", 2)
def _build_mul(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((4, 3)), rng.standard_normal((4, 1))]
    return ops.mul(*tensors)


@case("div", 2)
def _build_div(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 3)), rng.uniform(0.5, 2.0, (3, 3))]
    return ops.div(*tensors)


@case("neg", 1)
def _build_neg(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((2, 6))]
    return ops.neg(tensors[0])


@case("abs", 1)
def _build_abs(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [_away_from_kinks(rng, (4, 4))]
    return ops.abs_(tensors[0])


@case("sin", 1)
def _build_sin(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 5)) * 2]
    return ops.sin(tensors[0])


@case("cos", 1)
def _build_cos(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 5)) * 2]
    return ops.cos(tensors[0])


@case("sum_axis", 1)
def _build_sum(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 4, 2))]
    w = np.arange(6, dtype=np.float64).reshape(3, 2)
    return ops.mul(ops.sum_(tensors[0], axis=1), w)


@case("sum_axes_keepdims", 1)
def _build_sum_keep(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 4, 2))]
    w = np.arange(4, dtype=np.float64).reshape(1, 4, 1)
    return ops.mul(ops.sum_(tensors[0], axis=(0, 2), keepdims=True), w)


@case("mean", 1)
def _build_mean(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((4, 6))]
    return ops.mul(ops.mean_(tensors[0], axis=-1), 3.0)


@case("relu", 1)
def _build_relu(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [_away_from_kinks(rng, (5, 5))]
    return ops.relu(tensors[0])


@case("sigmoid", 1)
def _build_sigmoid(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((4, 4)) * 3]
    return ops.sigmoid(tensors[0])


@case("softmax", 1)
def _build_softmax(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 6))]
    w = np.arange(18, dtype=np.float64).reshape(3, 6)
    return ops.mul(ops.softmax_lastdim(tensors[0]), w)


@case("matmul", 2)
def _build_matmul(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 5))]
    return ops.matmul(*tensors)


@case("matmul_broadcast", 2)
def _build_matmul_b(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((2, 2, 3, 4)), rng.standard_normal((4, 5))]
    return ops.matmul(*tensors)


@case("linear", 3)
def _build_linear(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((2, 3, 4)), rng.standard_normal((5, 4)), rng.standard_normal(5)]
    return ops.linear(*tensors)


@case("linear_1d", 3)
def _build_linear_1d(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal(4), rng.standard_normal((3, 4)), rng.standard_normal(3)]
    return ops.mul(ops.linear(*tensors), np.arange(1.0, 4.0))


@case("linear_4d_no_bias", 2)
def _build_linear_4d(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((2, 3, 2, 4)), rng.standard_normal((5, 4))]
    w = np.arange(60, dtype=np.float64).reshape(2, 3, 2, 5)
    return ops.mul(ops.linear(*tensors), w)


@case("conv2d", 3)
def _build_conv(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [
            rng.standard_normal((2, 3, 6, 5)),
            rng.standard_normal((4, 3, 3, 3)),
            rng.standard_normal(4),
        ]
    return ops.conv2d(tensors[0], tensors[1], tensors[2], stride=2, pad=1)


@case("conv2d_unbatched", 3)
def _build_conv3(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [
            rng.standard_normal((2, 5, 5)),
            rng.standard_normal((3, 2, 1, 1)),
            rng.standard_normal(3),
        ]
    return ops.conv2d(tensors[0], tensors[1], tensors[2])


@case("conv2d_stem", 3)
def _build_conv_stem(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [
            rng.standard_normal((2, 9, 8)),
            rng.standard_normal((3, 2, 7, 7)),
            rng.standard_normal(3),
        ]
    return ops.conv2d(tensors[0], tensors[1], tensors[2], stride=2, pad=3)


@case("conv2d_3x3_same", 3)
def _build_conv_same(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [
            rng.standard_normal((2, 2, 5, 4)),
            rng.standard_normal((3, 2, 3, 3)),
            rng.standard_normal(3),
        ]
    return ops.conv2d(tensors[0], tensors[1], tensors[2], stride=1, pad=1)


@case("conv2d_1x1_stride2", 3)
def _build_conv_1x1_s2(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [
            rng.standard_normal((2, 3, 7, 6)),
            rng.standard_normal((4, 3, 1, 1)),
            rng.standard_normal(4),
        ]
    return ops.conv2d(tensors[0], tensors[1], tensors[2], stride=2, pad=0)


@case("avg_pool2", 1)
def _build_pool(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((2, 5, 7))]
    return ops.avg_pool2(tensors[0])


@case("upsample2", 1)
def _build_upsample(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((2, 3, 4))]
    return ops.upsample2_nearest(tensors[0], (5, 8))


@case("bilinear_map", 1)
def _build_bilin_map(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 6, 6))]
    pts = np.array([[1.3, 2.6], [0.4, 0.7], [4.2, 4.8], [-3.0, 2.0], [2.5, 7.5]])
    return ops.bilinear_sample(tensors[0], pts)


@case("bilinear_points", 2)
def _build_bilin_pts(rng, tensors=None, make_arrays=False):
    if make_arrays:
        base = rng.integers(0, 5, size=(6, 2)).astype(np.float64)
        frac = rng.uniform(0.25, 0.75, size=(6, 2))
        return [rng.standard_normal((2, 6, 6)), base + frac]
    return ops.bilinear_sample(tensors[0], tensors[1])


@case("layernorm", 3)
def _build_ln(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 4, 8)), rng.uniform(0.5, 1.5, 8), rng.standard_normal(8)]
    return ops.layernorm(*tensors)


@case("reshape_transpose", 1)
def _build_shape(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 4, 2))]
    w = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    return ops.mul(ops.transpose(ops.reshape(tensors[0], (3, 4, 2)), (2, 0, 1)), w)


@case("concat", 2)
def _build_concat(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 2)), rng.standard_normal((3, 5))]
    w = np.arange(21, dtype=np.float64).reshape(3, 7)
    return ops.mul(ops.concat(tensors, axis=1), w)


@case("stack", 2)
def _build_stack(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 2)), rng.standard_normal((3, 2))]
    w = np.arange(12, dtype=np.float64).reshape(2, 3, 2)
    return ops.mul(ops.stack(tensors, axis=0), w)


@case("getitem", 1)
def _build_getitem(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((4, 6))]
    w = np.arange(6, dtype=np.float64).reshape(2, 3)
    return ops.mul(ops.getitem(tensors[0], (slice(1, 3), slice(0, 3))), w)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradients_match_finite_differences(name, seed):
    build, n_args = CASES[name]
    _check_op(build, n_args, seed)
