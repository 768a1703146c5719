import json
import sys
import threading
import types
import warnings
import weakref

import numpy as np
import pytest

from evtrack.autodiff import (
    ParamStore,
    Tensor,
    adamw_step,
    backward,
    cut,
    load_weights,
    no_grad,
    ops,
    precision,
    save_weights,
)
from evtrack.autodiff.tensor import default_dtype, grad_enabled
from evtrack.correlation import correlate_batch
from evtrack.encoders import MotionGatedFusion
from evtrack.errors import ConfigError, TrainingError, UsageError
from evtrack.pipeline import TrackerConfig, TrackerModel
from evtrack.training import sequence_loss
from fd_oracle import assert_grads_close, numerical_grad
from oracles import attention_oracle, conv2d_oracle, offsets_grid
from util_fixtures import tiny_model, tiny_sequence, traced_peak


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
    w = Tensor(np.zeros((3, 2, 3, 3), dtype=np.float32))
    with pytest.raises(ConfigError, match="3-D input"):
        ops.conv2d(Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)), w, Tensor(np.zeros(3)))


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_matches_oracle(k, stride):
    rng = np.random.default_rng(10 * k + stride)
    for pad in range(k // 2 + 1):
        for odd_rows in (False, True):
            cin, cout = rng.integers(1, 6, size=2)
            # padded extent minus k is odd on one axis, so a stride-2 output
            # drops that axis's last row or column, and even on the other
            span = k - 2 * pad
            odd, even = span + 2 * rng.integers(0, 4) + 1, span + 2 * rng.integers(0, 4)
            h, w = (odd, even) if odd_rows else (even, odd)
            shape = (cin, h, w)
            x = rng.standard_normal(shape).astype(np.float32)
            wt = rng.standard_normal((cout, cin, k, k)).astype(np.float32)
            b = rng.standard_normal(cout).astype(np.float32)
            out = ops.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, pad=pad)
            ref = conv2d_oracle(x, wt, b, stride, pad)
            assert out.shape == ref.shape
            np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max(),
                                       err_msg=f"pad={pad} shape={shape}")


def test_conv2d_node_holds_no_columns():
    """A grad-enabled conv keeps its output and what its vjp reads, not the
    Cin*k*k-row columns: the backward pass rebuilds those from the input.
    The columns live in the calling thread's scratch, which a first call
    grows to this shape."""
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((64, 32, 32)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((64, 64, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(64, dtype=np.float32), requires_grad=True)
    with no_grad():
        ops.conv2d(x, w, b, pad=1)
    out, _, held = traced_peak(lambda: ops.conv2d(x, w, b, pad=1))
    assert out.node.vjp is not None
    assert held < 4 * x.data.nbytes


def _conv_case(rng, cin, cout, h, w, k, stride, dtype=np.float32):
    """Random input, weight, bias and output extents for a `k // 2`-padded conv."""
    pad = k // 2
    ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    x = rng.standard_normal((cin, h, w)).astype(dtype)
    wt = (rng.standard_normal((cout, cin, k, k)) / k).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    return x, wt, b, pad, ho, wo


def _band_rows(monkeypatch, rows, cin, k, wo, itemsize):
    """Bound the columns of one conv2d band to `rows` output rows."""
    monkeypatch.setattr(ops, "_BAND_BYTES", rows * cin * k * k * wo * itemsize)


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("rows", [1, 3])
def test_conv2d_bands_match_oracle(monkeypatch, k, stride, rows):
    """Split into bands of `rows` output rows, one GEMM each (13 or 7
    output rows, so 3-row bands leave a ragged 1-row band last), the
    forward still matches the oracle. One worker keeps the band split to
    the bytes alone, so the GEMM shapes below hold on any host."""
    rng = np.random.default_rng(100 * k + 10 * stride + rows)
    x, wt, b, pad, ho, wo = _conv_case(rng, 3, 4, 13, 9, k, stride)
    _band_rows(monkeypatch, rows, 3, k, wo, 4)
    monkeypatch.setattr(ops, "_WORKERS", 1)
    gemms = []
    matmul = np.matmul

    def counting_matmul(*args, **kwargs):
        gemms.append(args[1].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    out = ops.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, pad=pad).data
    monkeypatch.undo()
    assert [n // wo for _, n in gemms] == [rows] * (ho // rows) + [ho % rows] * (ho % rows > 0)
    ref = conv2d_oracle(x, wt, b, stride, pad)
    np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("rows", [1, 2])
def test_conv2d_band_gradients_match_finite_differences(monkeypatch, k, stride, rows):
    """In float64, with one-row bands and with 2-row bands that end on a
    ragged one (9 or 5 output rows), dx and dw match central differences
    of a loss that weighs every output differently."""
    rng = np.random.default_rng(200 + 100 * k + 10 * stride + rows)
    with precision("f64"):
        x, wt, b, pad, ho, wo = _conv_case(rng, 2, 3, 9, 6, k, stride, np.float64)
        _band_rows(monkeypatch, rows, 2, k, wo, 8)
        r = rng.standard_normal((3, ho, wo))

        def loss(*arrays):
            with precision("f64"):
                return float((ops.conv2d(*map(Tensor, arrays), stride=stride, pad=pad).data * r).sum())

        ts = [Tensor(a, requires_grad=True) for a in (x, wt, b)]
        backward(ops.sum_(ops.mul(ops.conv2d(*ts, stride=stride, pad=pad), r)))
        for i, name in ((0, "dx"), (1, "dw")):
            assert_grads_close(ts[i].grad, numerical_grad(loss, [x, wt, b], i), 1e-6, label=name)


def test_conv2d_banded_gradients_within_1e6_of_one_band(monkeypatch):
    """In float32, 24 bands change only the order in which the weight and
    input gradients are summed: they agree with the one-band GEMM within
    1e-6 relative L2, the forward and the bias gradient exactly."""
    rng = np.random.default_rng(21)
    x, wt, b, pad, ho, wo = _conv_case(rng, 16, 32, 96, 80, 3, 1)
    g = rng.standard_normal((32, ho, wo)).astype(np.float32)
    results = []
    for rows in (ho, 4):
        _band_rows(monkeypatch, rows, 16, 3, wo, 4)
        out = ops.conv2d(Tensor(x, requires_grad=True), Tensor(wt), Tensor(b), pad=pad)
        results.append((out.data, *out.node.vjp(g)))
    (out1, dx1, gw1, gb1), (outb, dxb, gwb, gbb) = results
    assert np.array_equal(out1, outb) and np.array_equal(gb1, gbb)
    for one, banded in ((dx1, dxb), (gw1, gwb)):
        assert np.linalg.norm(banded - one) <= 1e-6 * np.linalg.norm(one)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_worker_bands_are_bit_identical(monkeypatch, workers, k, stride):
    """On 2 or 3 workers, 3-row bands of 13 or 7 output rows (a ragged one
    last) run the GEMMs of one worker, shape for shape, on more than one
    thread, and give its output and gradients bit for bit."""
    rng = np.random.default_rng(300 + 10 * k + stride)
    x, wt, b, pad, ho, wo = _conv_case(rng, 3, 4, 13, 9, k, stride)
    g = rng.standard_normal((4, ho, wo)).astype(np.float32)
    _band_rows(monkeypatch, 3, 3, k, wo, 4)
    matmul = np.matmul
    results, gemms = [], []
    for n in (1, workers):
        monkeypatch.setattr(ops, "_WORKERS", n)
        calls = []

        def recording_matmul(*args, **kwargs):
            calls.append((threading.get_ident(), args[1].shape))
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", recording_matmul)
        out = ops.conv2d(Tensor(x, requires_grad=True), Tensor(wt), Tensor(b), stride=stride, pad=pad)
        monkeypatch.setattr(np, "matmul", matmul)
        assert (len({thread for thread, _ in calls}) > 1) == (n > 1)
        gemms.append(sorted(shape for _, shape in calls))
        results.append((out.data, *out.node.vjp(g)))
    assert gemms[0] == gemms[1] and len(gemms[0]) == -(-ho // 3)
    for one, many in zip(*results):
        assert np.array_equal(one, many)


def test_conv2d_worker_error_is_raised_from_conv2d(monkeypatch):
    """An error in a band that a worker thread serves comes out of conv2d
    as the same exception object."""
    rng = np.random.default_rng(31)
    x, wt, b, pad, ho, wo = _conv_case(rng, 3, 4, 13, 9, 3, 1)
    _band_rows(monkeypatch, 3, 3, 3, wo, 4)
    monkeypatch.setattr(ops, "_WORKERS", 2)
    error = MemoryError("band 1")
    matmul = np.matmul

    def failing_matmul(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", failing_matmul)
    with pytest.raises(MemoryError) as raised:
        ops.conv2d(Tensor(x), Tensor(wt), Tensor(b), pad=pad)
    assert raised.value is error


def test_conv2d_one_band_starts_no_pool(monkeypatch, no_pool):
    """A map whose columns fit one band, or any map with one worker, runs
    on the calling thread without an executor."""
    rng = np.random.default_rng(32)
    x, wt, b, pad, ho, wo = _conv_case(rng, 3, 4, 13, 9, 3, 1)
    monkeypatch.setattr(ops, "_WORKERS", 2)
    one_band = ops.conv2d(Tensor(x), Tensor(wt), Tensor(b), pad=pad).data
    _band_rows(monkeypatch, 1, 3, 3, wo, 4)
    monkeypatch.setattr(ops, "_WORKERS", 1)
    assert np.array_equal(ops.conv2d(Tensor(x), Tensor(wt), Tensor(b), pad=pad).data, one_band)


def test_conv2d_many_workers_under_fast_switching(monkeypatch):
    """Stress: 8 workers on one-row bands, with the interpreter switching
    threads every microsecond, still write every output row exactly as
    one worker does. The run is bounded by a join timeout."""
    rng = np.random.default_rng(33)
    x, wt, b, pad, ho, wo = _conv_case(rng, 8, 8, 40, 24, 3, 1)
    _band_rows(monkeypatch, 1, 8, 3, wo, 4)
    monkeypatch.setattr(ops, "_WORKERS", 1)
    sequential = ops.conv2d(Tensor(x), Tensor(wt), Tensor(b), pad=pad).data
    monkeypatch.setattr(ops, "_WORKERS", 8)
    outs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def run():
            for _ in range(10):
                outs.append(ops.conv2d(Tensor(x), Tensor(wt), Tensor(b), pad=pad).data)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(outs) == 10 and all(np.array_equal(out, sequential) for out in outs)


def _conv_run(case, stride, g):
    """Output, input and weight gradients of one conv2d of `case` whose
    output gets the gradient `g`."""
    x, wt, b, pad, _, _ = case
    out = ops.conv2d(Tensor(x, requires_grad=True), Tensor(wt, requires_grad=True), Tensor(b),
                     stride=stride, pad=pad)
    return (out.data, *out.node.vjp(g)[:2])


def _scratch_buffers() -> dict:
    """The calling thread's conv2d scratch buffers, by key."""
    return dict(vars(ops._scratch).get("buffers", {}))


def test_conv2d_scratch_is_the_calling_threads_own(monkeypatch):
    """Two threads run convs of different shapes, forward and backward, on
    two workers each, while the interpreter switches threads every
    microsecond; each gets the bits of a sequential run."""
    monkeypatch.setattr(ops, "_WORKERS", 2)
    monkeypatch.setattr(ops, "_BAND_BYTES", 4096)  # several bands each
    rng = np.random.default_rng(34)
    strides = (1, 2)
    cases = [_conv_case(rng, 3, 4, 21, 13, 3, 1), _conv_case(rng, 5, 6, 27, 19, 7, 2)]
    grads = [rng.standard_normal((c[1].shape[0], c[4], c[5])).astype(np.float32) for c in cases]
    sequential = [_conv_run(c, s, g) for c, s, g in zip(cases, strides, grads)]
    results = [[], []]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def run(i):
            for _ in range(5):
                results[i].append(_conv_run(cases[i], strides[i], grads[i]))

        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(sequential, results):
        assert len(got) == 5
        assert all(np.array_equal(a, b) for run in got for a, b in zip(want, run))


def test_conv2d_scratch_is_bounded_and_reused(monkeypatch):
    """After a sweep of shapes, a thread's scratch holds at most one column
    buffer per worker, each max(_BAND_BYTES, one output row of columns),
    plus the largest padded input; a second sweep allocates none."""
    monkeypatch.setattr(ops, "_WORKERS", 2)
    monkeypatch.setattr(ops, "_BAND_BYTES", 64 << 10)
    rng = np.random.default_rng(35)
    # (cin, cout, h, w, k, stride): a stem, 3x3 and 1x1 maps, and a 3x3 whose
    # one row of columns (32*9 x 64 floats) exceeds the band
    shapes = [(4, 8, 40, 56, 7, 2), (8, 8, 30, 20, 3, 1), (16, 8, 12, 12, 1, 1),
              (32, 4, 10, 64, 3, 1), (2, 4, 9, 7, 3, 1)]
    cases = [_conv_case(rng, *shape) for shape in shapes]
    row = max(c[1][0].size * c[5] * 4 for c in cases)
    padded = max(c[0].shape[0] * (c[0].shape[1] + 2 * c[3]) * (c[0].shape[2] + 2 * c[3]) * 4
                 for c in cases)
    assert row > ops._BAND_BYTES

    def sweep():
        for c, shape in zip(cases, shapes):
            _conv_run(c, shape[-1], np.ones((c[1].shape[0], c[4], c[5]), dtype=np.float32))
        return _scratch_buffers()

    held = []
    worker = threading.Thread(target=lambda: held.extend([sweep(), sweep()]))
    worker.start()
    worker.join(timeout=60)
    first, second = held
    assert set(first) == {0, 1, "padded"}
    assert all(first[key] is second[key] for key in first)
    assert sum(b.nbytes for b in first.values()) <= 2 * max(ops._BAND_BYTES, row) + padded


def test_conv2d_stem_peak_is_bounded_by_the_band(monkeypatch):
    """A 346x260 event stem (10 channels, 7x7, stride 2) lowers one band at
    a time on each of two workers. Its forward peaks below output + padded
    input + one band per worker, where whole columns alone would be 490 x
    22490 float32 (44 MB); its backward below the padded input and its
    gradient + two bands."""
    monkeypatch.setattr(ops, "_WORKERS", 2)
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((10, 260, 346)).astype(np.float32), requires_grad=True)
    w = Tensor((rng.standard_normal((32, 10, 7, 7)) / 7).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(32, dtype=np.float32), requires_grad=True)
    padded = 10 * 266 * 352 * 4
    out, forward_peak, _ = traced_peak(lambda: ops.conv2d(x, w, b, stride=2, pad=3))
    g = np.ones_like(out.data)
    grads, backward_peak, _ = traced_peak(lambda: out.node.vjp(g))
    assert out.shape == (32, 130, 173) and grads[0].shape == x.shape
    assert forward_peak < out.data.nbytes + padded + ops._WORKERS * ops._BAND_BYTES
    assert backward_peak < 2 * padded + 2 * ops._BAND_BYTES


def test_gemm_columns_keep_their_bits_above_the_small_matrix_bound():
    """The rule conv2d's sparse forward rests on: for every (M, K) =
    (Cout, Cin*k*k) of the default tracker's convs, once M*n*K exceeds
    `_SMALL_GEMM` (OpenBLAS 0.3.31's small-matrix kernel), the float32
    GEMM of any n columns of c gives those columns of the GEMM of all of
    c, bit for bit."""
    rng = np.random.default_rng(40)
    store = TrackerModel(TrackerConfig(), seed=0).store
    pairs = sorted({(t.shape[0], t.data[0].size) for _, t in store.items() if t.ndim == 4})
    assert (32, 490) in pairs and (128, 1152) in pairs  # the event stem, a 3x3 at 128
    for m, k in pairs:
        n_min = ops._SMALL_GEMM // (m * k) + 1
        w = rng.standard_normal((m, k)).astype(np.float32)
        c = rng.standard_normal((k, max(3 * n_min, 1200))).astype(np.float32)
        full = w @ c
        for n in (n_min, n_min + 1, n_min + 7, *rng.integers(n_min, c.shape[1], 3)):
            idx = np.sort(rng.choice(c.shape[1], n, replace=False))
            assert np.array_equal(w @ np.ascontiguousarray(c[:, idx]), full[:, idx]), (m, k, n)


def _same_bits(a, b) -> bool:
    """Equal bit patterns: tells -0.0 from 0.0 and compares NaNs."""
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def _sparse_case(rng, k, stride, fill):
    """A k//2-padded conv of 32 to 32 channels on an input that is zero but
    for `fill`: 64x64 in bands of 8 output rows, or 128x128 in bands of 32
    for k = 1, whose columns are shorter. Every GEMM, dense or sparse,
    exceeds the small-matrix bound. Bias 1 is -0.0."""
    size, rows = (128, 32) if k == 1 else (64, 8)
    x, wt, b, pad, ho, wo = _conv_case(rng, 32, 32, size, size, k, stride)
    b[1] = -0.0
    x[...] = 0
    if fill == "negative_zero":
        x[rng.random(x.shape) < 0.3] = -0.0
    if fill in ("events", "negative_zero", "nonfinite"):
        n = 12  # about 14% of the columns of a 7x7 stride-1 conv
        at = rng.integers(0, 32, n), rng.integers(0, size, n), rng.integers(0, size, n)
        x[at] = rng.standard_normal(n)
    if fill == "corners":
        x[[0, 5, 17, 31], [0, 0, -1, -1], [0, -1, 0, -1]] = [1.5, -2.0, 0.25, 3.0]
    if fill == "nonfinite":
        x[3, 10, 20], x[7, 40, 50] = np.nan, np.inf
    return x, wt, b, pad, ho, wo, rows


def _gate_spy(monkeypatch) -> list:
    """Record what each call of conv2d's sparsity gate returns."""
    seen, gate = [], ops._active_columns

    def spy(*args):
        seen.append(gate(*args))
        return seen[-1]

    monkeypatch.setattr(ops, "_active_columns", spy)
    return seen


def _dense_conv(monkeypatch, *args, **kwargs):
    """conv2d with its gate refusing the sparse forward."""
    with monkeypatch.context() as m:
        m.setattr(ops, "_active_columns", lambda *gate_args: None)
        return ops.conv2d(*args, **kwargs)


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("fill", ["events", "corners", "zero", "negative_zero", "nonfinite"])
def test_conv2d_sparse_forward_is_bit_identical(monkeypatch, no_pool, k, stride, fill):
    """Multiplying only the active columns gives the dense forward's bits
    at 1, 2 and 3 workers, on the calling thread: for events, for single
    events at the corners (whose columns read the zero halo), for an
    all-zero input (only the bias), for -0.0 inputs (inactive) and for
    NaN and inf (active). A 1x1 conv of stride 2 reads a quarter of its
    input, so it never asks the gate (and runs its bands on the workers)."""
    rng = np.random.default_rng(500 + 10 * k + stride)
    x, wt, b, pad, ho, wo, rows = _sparse_case(rng, k, stride, fill)
    _band_rows(monkeypatch, rows, 32, k, wo, 4)
    monkeypatch.setattr(ops, "_WORKERS", 1)
    dense = _dense_conv(monkeypatch, Tensor(x), Tensor(wt), Tensor(b), stride=stride, pad=pad).data
    seen = _gate_spy(monkeypatch)
    for workers in (1, 2, 3) if k >= stride else (1,):
        monkeypatch.setattr(ops, "_WORKERS", workers)
        sparse = ops.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, pad=pad).data
        assert _same_bits(sparse, dense)
    if k < stride:
        assert seen == []
    else:
        assert len(seen) == 3 and all(s is not None and 0 < s.size < ho * wo or fill == "zero"
                                      and s.size == 0 for s in seen)


def test_conv2d_short_active_set_is_topped_up_to_the_bound(monkeypatch):
    """A 4x4 patch of events reaches 5x5 columns of a 10-channel 7x7
    stride-2 stem, and a 32-row sgemm of 25 such columns runs in the
    small-matrix kernel, whose bits differ from the dense band's. The
    active set is topped up with inactive columns to the fewest above the
    bound, and the output keeps the dense bits."""
    rng = np.random.default_rng(54)
    x, wt, b, pad, ho, wo = _conv_case(rng, 10, 32, 64, 64, 7, 2)
    x[:, :28], x[:, 32:], x[:, :, :28], x[:, :, 32:] = 0, 0, 0, 0
    seen = _gate_spy(monkeypatch)
    sparse = ops.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=2, pad=pad).data
    n_min = ops._SMALL_GEMM // (32 * 490) + 1
    dense = _dense_conv(monkeypatch, Tensor(x), Tensor(wt), Tensor(b), stride=2, pad=pad).data
    assert seen[0].size == n_min
    assert np.count_nonzero(np.any(sparse != b[:, None, None], axis=0)) == 25
    assert _same_bits(sparse, dense)


def test_conv2d_sparse_chunks_all_exceed_the_bound(monkeypatch):
    """A set longer than one chunk of bufs[0] is cut into chunks of equal
    length, the last one ending at the set's end: a 5-column remainder
    would run in the small-matrix kernel. The gate here hands over inactive
    columns first and the 25 that a 4x4 patch of events reaches last."""
    rng = np.random.default_rng(55)
    x, wt, b, pad, ho, wo = _conv_case(rng, 10, 32, 64, 64, 7, 2)
    x[:, :28], x[:, 32:], x[:, :, :28], x[:, :, 32:] = 0, 0, 0, 0
    _band_rows(monkeypatch, 8, 10, 7, wo, 4)
    chunk = 490 * 8 * wo // (2 * 49 + 490 + 32)
    gate = ops._active_columns

    def long_set(*args):
        active = gate(*args)[:25]
        filler = np.setdiff1d(np.arange(ho * wo), active)[: chunk + 5 - active.size]
        return np.concatenate([filler, active])

    dense = _dense_conv(monkeypatch, Tensor(x), Tensor(wt), Tensor(b), stride=2, pad=pad).data
    monkeypatch.setattr(ops, "_active_columns", long_set)
    assert _same_bits(ops.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=2, pad=pad).data, dense)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_conv2d_non_finite_weight_takes_the_dense_forward(monkeypatch, bad):
    """w @ 0 is NaN for a NaN or infinite weight, so a sparse input must
    still multiply every column: the output channel of that weight is NaN
    everywhere, as the dense forward makes it."""
    rng = np.random.default_rng(51)
    x, wt, b, pad, ho, wo, rows = _sparse_case(rng, 3, 1, "events")
    wt[2, 0, 1, 1] = bad
    _band_rows(monkeypatch, rows, 32, 3, wo, 4)
    seen = _gate_spy(monkeypatch)
    with np.errstate(invalid="ignore"):  # inf * 0
        out = ops.conv2d(Tensor(x), Tensor(wt), Tensor(b), pad=pad).data
        dense = _dense_conv(monkeypatch, Tensor(x), Tensor(wt), Tensor(b), pad=pad).data
    assert seen[0] is not None  # the input alone would go sparse
    assert np.isnan(out[2]).all() and np.isfinite(np.delete(out, 2, axis=0)).all()
    assert _same_bits(out, dense)


def test_conv2d_sparse_forward_gradients_match_finite_differences(monkeypatch):
    """In graph mode a sparse input takes the sparse forward, perturbed or
    not. dx and dw from the backward match central differences of that
    float32 forward, which is linear in each: at inputs that hold events,
    at zeros beside them (whose perturbation activates new columns), at
    zeros far from any event and at weights."""
    rng = np.random.default_rng(52)
    x, wt, b, pad, ho, wo, rows = _sparse_case(rng, 3, 2, "events")
    _band_rows(monkeypatch, rows, 32, 3, wo, 4)
    r = rng.standard_normal((32, ho, wo)).astype(np.float32)
    seen = _gate_spy(monkeypatch)
    ts = [Tensor(x, requires_grad=True), Tensor(wt, requires_grad=True), Tensor(b)]
    backward(ops.sum_(ops.mul(ops.conv2d(*ts, stride=2, pad=pad), r)))

    def loss(xa, wa):
        out = ops.conv2d(Tensor(xa), Tensor(wa), Tensor(b), stride=2, pad=pad).data
        return float((out.astype(np.float64) * r).sum())

    h = np.float32(0.5)
    events = np.argwhere(x != 0)
    beside = np.clip(events + [0, 1, 1], 0, 63)
    far = rng.integers(0, [32, 64, 64], (8, 3))
    for i in map(tuple, np.concatenate([events, beside, far])):
        plus, minus = x.copy(), x.copy()
        plus[i] += h
        minus[i] -= h
        numeric = (loss(plus, wt) - loss(minus, wt)) / (2 * h)
        assert abs(ts[0].grad[i] - numeric) <= 1e-3 * max(1.0, abs(numeric)), i
    for i in map(tuple, rng.integers(0, [32, 32, 3, 3], (12, 4))):
        plus, minus = wt.copy(), wt.copy()
        plus[i] += h
        minus[i] -= h
        numeric = (loss(x, plus) - loss(x, minus)) / (2 * h)
        assert abs(ts[1].grad[i] - numeric) <= 1e-3 * max(1.0, abs(numeric)), i
    assert seen and all(s is not None for s in seen)


def test_conv2d_sparse_stem_peaks_no_higher_than_dense(monkeypatch):
    """A 346x260 event stem with 20 events, on 2 workers as on 2 CPUs:
    the sparse forward builds its tap indices, columns and product in the
    scratch's first column buffer, so with a warm scratch it peaks no
    higher than the dense forward of the same input."""
    monkeypatch.setattr(ops, "_WORKERS", 2)
    rng = np.random.default_rng(53)
    x = np.zeros((10, 260, 346), dtype=np.float32)
    x[rng.integers(0, 10, 20), rng.integers(0, 260, 20), rng.integers(0, 346, 20)] = 1.0
    args = (Tensor(x), Tensor((rng.standard_normal((32, 10, 7, 7)) / 7).astype(np.float32)),
            Tensor(np.zeros(32, dtype=np.float32)))
    seen = _gate_spy(monkeypatch)
    with no_grad():
        for _ in range(2):  # warm the scratch
            ops.conv2d(*args, stride=2, pad=3)
            _dense_conv(monkeypatch, *args, stride=2, pad=3)
        sparse, sparse_peak, _ = traced_peak(lambda: ops.conv2d(*args, stride=2, pad=3))
        dense, dense_peak, _ = traced_peak(lambda: _dense_conv(monkeypatch, *args, stride=2, pad=3))
    assert seen[-1] is not None and seen[-1].size < 0.02 * 130 * 173
    assert np.array_equal(sparse.data, dense.data)
    assert sparse_peak <= dense_peak


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


@pytest.mark.parametrize("kind", ["f32", "f64"])
@pytest.mark.parametrize("axis", [0, 1])
def test_attention_matches_oracle(axis, kind):
    rng = np.random.default_rng(axis)
    with precision(kind):
        qkv = Tensor(rng.standard_normal((5, 7, 3 * 2 * 4)))  # 2 heads of width 4
        out = ops.attention(qkv, 2, axis).data
    ref = attention_oracle(qkv.data, 2, axis)
    assert out.shape == ref.shape == (5, 7, 8) and out.dtype == qkv.dtype
    rel = np.abs(out - ref).max() / np.abs(ref).max()
    assert rel <= (1e-6 if kind == "f32" else 1e-12)


@pytest.mark.parametrize("axis", [0, 1])
def test_attention_is_stable_at_large_scores(axis):
    """Scores around ±1e3 give finite rows that sum to one, forward and
    backward, without an overflow warning."""
    rng = np.random.default_rng(3)
    qkv = rng.standard_normal((4, 6, 3 * 2 * 4)).astype(np.float32)
    qkv[..., :16] *= 45.0  # q and k: q·k / √dh is of order 1e3
    qkv[..., 16:] = 1.0  # v: each output is its row of probabilities summed
    x = Tensor(qkv, requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ops.attention(x, 2, axis)
        backward(ops.sum_(ops.mul(out, rng.standard_normal(out.shape))))
    assert np.abs(qkv[..., :4] @ np.swapaxes(qkv[..., 8:12], -1, -2)).max() / 2 > 500
    np.testing.assert_allclose(out.data, 1.0, rtol=1e-6)
    assert np.all(np.isfinite(x.grad))


def test_attention_shape_errors():
    for shape, heads, axis in (((4, 5, 12), 2, 2), ((4, 5, 10), 2, 0), ((20, 12), 2, 0)):
        with pytest.raises(ConfigError, match="attention"):
            ops.attention(Tensor(np.zeros(shape)), heads, axis)


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


@pytest.mark.parametrize("radius", [0, 1, 3])
def test_bilinear_patch_reads_cells_at_integer_points(radius):
    """At an integer point every tap lands on a cell: tap (dx, dy) reads
    vol[b, y + dy, x + dx], dy-major, and zero past the border."""
    vol = np.arange(2 * 4 * 5, dtype=np.float32).reshape(2, 4, 5) + 1.0
    points = np.array([[1.0, 2.0], [4.0, 0.0]], dtype=np.float32)
    out = ops.bilinear_patch(Tensor(vol), Tensor(points), radius).data
    assert out.shape == (2, (2 * radius + 1) ** 2)
    for b, (x, y) in enumerate(points.astype(int)):
        for k, (dx, dy) in enumerate(offsets_grid(radius)):
            inside = 0 <= y + dy < 4 and 0 <= x + dx < 5
            assert out[b, k] == (vol[b, y + dy, x + dx] if inside else 0.0)


def test_bilinear_patch_shape_errors():
    with pytest.raises(ConfigError):
        ops.bilinear_patch(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 2))), 1)
    with pytest.raises(ConfigError):
        ops.bilinear_patch(Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 2))), 1)
    with pytest.raises(ConfigError):
        ops.bilinear_patch(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((2, 2))), -1)


@pytest.mark.parametrize("index", [[0, 1], np.array([0, 0]), (slice(None), np.array([1])),
                                   np.array([True, False, True]), True])
def test_getitem_rejects_advanced_index(index):
    """A repeated cell would need a summing scatter; basic indexes never repeat one."""
    with pytest.raises(ConfigError, match="basic indexes only"):
        ops.getitem(Tensor(np.zeros((3, 4))), index)


def test_conv2d_skips_input_gradient_it_does_not_need():
    """An input that needs no gradient gets none from the vjp; the weight
    and bias gradients are bit-identical either way."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 9, 8)).astype(np.float32)
    w = Tensor(rng.standard_normal((4, 3, 7, 7)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
    g = rng.standard_normal((4, 5, 4)).astype(np.float32)
    grads = []
    for x_needs in (True, False):
        grads.append(ops.conv2d(Tensor(x, requires_grad=x_needs), w, b, stride=2, pad=3).node.vjp(g))
    assert grads[0][0].shape == x.shape and grads[1][0] is None
    assert np.array_equal(grads[0][1], grads[1][1]) and np.array_equal(grads[0][2], grads[1][2])


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
    loss = ops.sum_(x)
    backward(loss)
    assert np.array_equal(x.grad, np.ones((2, 3), dtype=np.float32))

    x2 = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    loss2 = ops.sum_(x2 * x2) * 0.5
    backward(loss2)
    assert np.allclose(x2.grad, x2.data)


def test_backward_non_scalar_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(UsageError):
        backward(x * 2.0)


def test_second_backward_through_a_released_graph_raises():
    """backward releases every node it passes: only leaves keep a gradient,
    and a second sweep through the same graph raises."""
    x = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
    hidden = ops.relu(x * 2.0)
    loss = ops.sum_(hidden * hidden)
    backward(loss)
    assert np.array_equal(x.grad, [8.0, 0.0, 24.0])
    assert hidden.grad is None and hidden.node.parents == () and loss.grad is None
    with pytest.raises(UsageError, match="already released"):
        backward(loss)
    with pytest.raises(UsageError, match="already released"):
        backward(ops.sum_(hidden))  # a new graph on top of a released one
    assert np.array_equal(x.grad, [8.0, 0.0, 24.0])


def test_backward_stops_at_a_cut_and_continues_from_it():
    """Sweeps that stop at a cut, then one from the cut, give the gradients
    of one sweep through the whole graph."""
    rng = np.random.default_rng(4)
    arrays = [rng.standard_normal(5) for _ in range(3)]

    def grads(split):
        x, a, b = (Tensor(v, requires_grad=True) for v in arrays)
        shared = ops.sin(x) * x
        if split:
            assert cut(shared) and not cut(shared) and not cut(x)
            backward(ops.sum_(shared * a))
            assert x.grad is None and shared.grad is not None
            backward(ops.sum_(ops.cos(shared) * b))
            backward([shared.node])
        else:
            backward(ops.sum_(shared * a) + ops.sum_(ops.cos(shared) * b))
        return x.grad, a.grad, b.grad

    with precision("f64"):
        for got, want in zip(grads(True), grads(False)):
            assert np.allclose(got, want, rtol=1e-12, atol=0)
    with pytest.raises(UsageError, match="cut nodes"):
        backward([(Tensor(np.ones(2)) * Tensor(np.ones(2), requires_grad=True)).node])


def test_unreached_param_steps_as_zero_gradient():
    """backward leaves a parameter the loss does not reach without a
    gradient, and adamw_step moves it exactly as a zero gradient would."""
    runs = []
    for explicit_zero in (False, True):
        store = ParamStore()
        a = store.create("a", np.ones(2, dtype=np.float32))
        b = store.create("b", np.array([1.0, -2.0], dtype=np.float32))
        for _ in range(2):
            store.zero_grad()
            backward(ops.sum_(a * 3.0))
            assert np.allclose(a.grad, 3.0) and b.grad is None
            if explicit_zero:
                b.grad = np.zeros(2, dtype=np.float32)
            adamw_step(store, lr=0.1, weight_decay=0.5)
        runs.append((a.data, b.data, *store.moments("b")))
    assert not np.array_equal(runs[0][1], [1.0, -2.0])  # weight decay moved it
    for implicit, explicit in zip(*runs):
        assert np.array_equal(implicit, explicit)


def test_concat_broadcasts_parts_of_extent_one_and_rejects_the_rest():
    """A part of extent 1 off the join axis fills every row there, and its
    gradient is the sum over those rows; an untracked part gets none."""
    a = Tensor(np.arange(6.0).reshape(2, 3, 1), requires_grad=True)
    b = Tensor(np.array([[[10.0], [20.0], [30.0]]]), requires_grad=True)  # (1, 3, 1)
    c = np.ones((2, 1, 2), dtype=np.float32)
    out = ops.concat([a, b, c], axis=-1)
    want = np.concatenate([a.data, np.broadcast_to(b.data, (2, 3, 1)), np.broadcast_to(c, (2, 3, 2))],
                          axis=-1)
    assert out.dtype == np.float32 and np.array_equal(out.data, want)
    g = np.arange(24.0, dtype=np.float32).reshape(2, 3, 4)
    ga, gb, gc = out.node.vjp(g)
    assert np.array_equal(ga, g[..., :1]) and gc is None
    assert np.array_equal(gb, g[..., 1:2].sum(axis=0, keepdims=True))
    for parts, axis in [([], 0), ([np.ones(())], 0), ([np.ones(2), np.ones((2, 1))], 0),
                        ([np.ones((2, 3)), np.ones((3, 3))], 1), ([np.ones((2, 3))], 2)]:
        with pytest.raises(ConfigError, match="concat"):
            ops.concat(parts, axis)


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = ops.sum_(x * 2.0)
    assert y.node is None


def _tiny_step_grads():
    """Parameter gradients of one `sequence_loss` of the tiny tracker."""
    frames, events, queries, gt_by_id, _, _ = tiny_sequence(seed=0, duration_us=150_000)
    model = tiny_model(seed=0, randomize_heads=True)
    sequence_loss(model, frames, events, queries, gt_by_id, 0.8)
    return [p.grad for _, p in model.store.items()]


@pytest.mark.parametrize("mode", [no_grad, lambda: precision("f64")], ids=["no_grad", "f64"])
def test_a_mode_held_on_another_thread_leaves_training_alone(mode):
    """A thread that holds `no_grad()` or `precision("f64")` open while the
    main thread trains changes nothing there: a mode holds in the context
    that entered it, so the gradients are a solo run's, bit for bit."""
    solo = _tiny_step_grads()
    entered, release = threading.Event(), threading.Event()

    def hold():
        with mode():
            entered.set()
            release.wait(timeout=60)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    try:
        assert entered.wait(timeout=60)
        beside = _tiny_step_grads()
    finally:
        release.set()
        holder.join(timeout=60)
    assert not holder.is_alive()
    assert any(g is not None for g in solo)
    assert len(beside) == len(solo)
    for got, want in zip(beside, solo):
        assert (got is None) == (want is None)
        assert want is None or (got.dtype == want.dtype and np.array_equal(got, want))


def test_shares_keep_the_callers_modes_and_new_threads_the_defaults():
    """`ops._run_shares` runs every share in the caller's context, so all
    shares see its `no_grad` and `precision`; a thread started under them
    sees the defaults, and so does the caller after the `with` block."""
    seen = {}

    def modes():
        return grad_enabled(), default_dtype()

    def share(i):
        seen[i] = modes()

    with no_grad(), precision("f64"):
        ops._run_shares(3, share)
        plain = threading.Thread(target=lambda: seen.update(plain=modes()), daemon=True)
        plain.start()
        plain.join(timeout=60)
    assert not plain.is_alive()
    assert [seen[i] for i in range(3)] == [(False, np.float64)] * 3
    assert seen["plain"] == modes() == (True, np.float32)


def test_graph_holds_only_what_its_vjps_read():
    """A recorded graph keeps an op's output only while the caller or a vjp
    reads it. relu's vjp reads its own output, linear's its input and
    weight, add's and sum_'s only shapes: so the pre-activation and the
    residual sum are freed once the caller drops them, while the graph
    lives, and backward gives the gradients of a graph that kept them."""
    rng = np.random.default_rng(21)
    arrays = [rng.standard_normal(s).astype(np.float32) for s in ((5, 4), (3, 4), (3,), (5, 3))]

    def grads(drop):
        x, w, b, y = (Tensor(a, requires_grad=True) for a in arrays)
        pre = ops.linear(x, w, b)
        total = ops.relu(pre) + y
        loss = ops.sum_(total)
        if drop:
            refs = [weakref.ref(pre.data), weakref.ref(total.data)]
            del pre, total
            assert all(r() is None for r in refs)
            assert loss.node.vjp is not None and loss.node.parents
        backward(loss)
        return [t.grad for t in (x, w, b, y)]

    for got, want in zip(grads(True), grads(False)):
        assert np.array_equal(got, want)


def test_forward_determinism():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 16, 16)).astype(np.float32)
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
    assert store.step == 1

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


def test_adamw_step_matches_the_formula_bit_for_bit():
    """The in-place update gives the parameters and moments of the plain
    formula, bit for bit, with a float lr and with the cosine schedule's
    float64 lr."""
    rng = np.random.default_rng(9)
    shapes = [(3, 4), (7,), (2, 3, 5)]
    store = ParamStore()
    ref = []
    for i, shape in enumerate(shapes):
        data = rng.standard_normal(shape).astype(np.float32)
        store.create(f"p{i}", data)
        ref.append([data.copy(), np.zeros(shape, np.float32), np.zeros(shape, np.float32)])
    b1, b2, eps, wd = 0.9, 0.999, 1e-8, 1e-2
    for t, lr in enumerate([1e-2, np.float64(3e-3) * np.cos(0.5), 2e-3], start=1):
        for (name, p), (data, m, v) in zip(store.items(), ref):
            p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
            g = p.grad.copy()
            m[...] = b1 * m + (1.0 - b1) * g
            v[...] = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            data -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * data)
        adamw_step(store, lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
        for (name, p), (data, m, v) in zip(store.items(), ref):
            assert np.array_equal(p.data, data)
            assert all(np.array_equal(a, b) for a, b in zip(store.moments(name), (m, v)))
    assert store.step == 3


def test_adamw_step_is_all_or_nothing():
    """A non-finite gradient on a later parameter leaves every parameter,
    both Adam moments and the step count as they were."""
    store = ParamStore()
    a = store.create("a", np.array([1.0, -1.0], dtype=np.float32))
    b = store.create("b", np.array([2.0], dtype=np.float32))
    a.grad, b.grad = np.ones(2, dtype=np.float32), np.ones(1, dtype=np.float32)
    adamw_step(store, lr=0.1, weight_decay=0.5)  # nonzero moments to keep
    before = [(p.data.copy(), *(m.copy() for m in store.moments(name))) for name, p in store.items()]
    a.grad, b.grad = np.ones(2, dtype=np.float32), np.array([np.nan], dtype=np.float32)
    with pytest.raises(TrainingError, match="'b'"):
        adamw_step(store, lr=0.1, weight_decay=0.5)
    after = [(p.data, *store.moments(name)) for name, p in store.items()]
    assert store.step == 1
    for was, now in zip(before, after):
        for x, y in zip(was, now):
            assert np.array_equal(x, y)


def test_first_step_makes_the_moments_a_zero_restore_would():
    """A new parameter has no moments. The first step makes them, and its
    parameters and moments equal, bit for bit, those of a step from zero
    moments set by `load_state`, on that step and the next."""
    rng = np.random.default_rng(10)
    lazy, restored = ParamStore(), ParamStore()
    for i, shape in enumerate([(3, 4), (7,), (2, 3, 5)]):
        data = rng.standard_normal(shape).astype(np.float32)
        lazy.create(f"p{i}", data.copy())
        restored.create(f"p{i}", data.copy())
        restored.load_state(f"p{i}", np.zeros(shape, np.float32), np.zeros(shape, np.float32))
    assert all(lazy.moments(name) is None for name in lazy.names())
    for lr in (1e-2, 3e-3):
        for (_, p), (_, q) in zip(lazy.items(), restored.items()):
            p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
            q.grad = p.grad.copy()
        for store in (lazy, restored):
            adamw_step(store, lr=lr, weight_decay=1e-2)
        for (name, p), (_, q) in zip(lazy.items(), restored.items()):
            assert np.array_equal(p.data, q.data)
            for a, b in zip(lazy.moments(name), restored.moments(name)):
                assert a.dtype == np.float32 and np.array_equal(a, b)


def test_failed_first_step_makes_no_moments():
    store = ParamStore()
    a = store.create("a", np.array([1.0, -1.0], dtype=np.float32))
    b = store.create("b", np.array([2.0], dtype=np.float32))
    a.grad, b.grad = np.ones(2, dtype=np.float32), np.array([np.inf], dtype=np.float32)
    with pytest.raises(TrainingError, match="'b'"):
        adamw_step(store, lr=0.1)
    assert store.step == 0 and all(store.moments(name) is None for name in store.names())
    assert np.array_equal(a.data, [1.0, -1.0]) and np.array_equal(b.data, [2.0])


def test_short_weight_blob_rejected_naming_the_file(tmp_path):
    store = ParamStore()
    w = store.create("w", np.ones((3, 4), dtype=np.float32))
    path = str(tmp_path / "weights.bin")
    save_weights(store, path)
    with open(path, "r+b") as f:
        f.truncate(3 * 4 * 4 - 2)
    with pytest.raises(ConfigError, match=f"weight file {path} is shorter than its manifest"):
        load_weights(store, path)
    assert np.array_equal(w.data, np.ones((3, 4)))  # left as it was


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
    assert all(np.array_equal(p.data, q.data) for (_, p), (_, q) in zip(fresh.items(), store.items()))

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
        backward(ops.sum_(out))
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


@case("sum", 1)
def _build_sum(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 4, 2))]
    return ops.mul(ops.sum_(ops.mul(tensors[0], np.arange(24.0).reshape(3, 4, 2))), 0.5)


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


@case("matmul", 3)
def _build_matmul(rng, tensors=None, make_arrays=False):
    """Two slices, each with its own (4, 2, 3) map."""
    if make_arrays:
        return [rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 2, 3)),
                rng.standard_normal((4, 2, 3))]
    w = np.arange(36, dtype=np.float64).reshape(2, 3, 6) / 36.0
    return ops.mul(ops.matmul(tensors[0], tensors[1:]), w)


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


@case("linear_4d", 3)
def _build_linear_4d(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((2, 3, 2, 4)), rng.standard_normal((5, 4)), rng.standard_normal(5)]
    w = np.arange(60, dtype=np.float64).reshape(2, 3, 2, 5)
    return ops.mul(ops.linear(*tensors), w)


def _build_attention(axis):
    """Three tokens along axis 0, four along axis 1, two heads of width 3."""

    def build(rng, tensors=None, make_arrays=False):
        if make_arrays:
            return [rng.standard_normal((3, 4, 3 * 2 * 3))]
        w = np.arange(72, dtype=np.float64).reshape(3, 4, 6) / 72.0
        return ops.mul(ops.attention(tensors[0], 2, axis), w)

    return build


case("attention_axis0", 1)(_build_attention(0))
case("attention_axis1", 1)(_build_attention(1))


@case("conv2d", 3)
def _build_conv(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [
            rng.standard_normal((3, 6, 5)),
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
            rng.standard_normal((2, 5, 4)),
            rng.standard_normal((3, 2, 3, 3)),
            rng.standard_normal(3),
        ]
    return ops.conv2d(tensors[0], tensors[1], tensors[2], stride=1, pad=1)


@case("conv2d_1x1_stride2", 3)
def _build_conv_1x1_s2(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [
            rng.standard_normal((3, 7, 6)),
            rng.standard_normal((4, 3, 1, 1)),
            rng.standard_normal(4),
        ]
    return ops.conv2d(tensors[0], tensors[1], tensors[2], stride=2, pad=0)


@case("fusion_shared_image_branch", 4)
def _build_fusion_shared(rng, tensors=None, make_arrays=False):
    """Two event maps fused with one frame: the second call reuses the
    first call's image branch, so conv_image runs once for both."""
    if make_arrays:
        return [_away_from_kinks(rng, (2, 4, 5)), _away_from_kinks(rng, (2, 4, 5)),
                _away_from_kinks(rng, (2, 4, 5)), rng.standard_normal((2, 2, 3, 3))]
    store = ParamStore()
    fusion = MotionGatedFusion(store, "fus", 2, np.random.default_rng(7))
    for _, p in store.items():
        p.data = p.data.astype(np.float64)
    fusion.conv_image.weight = tensors[3]
    first, branch = fusion(tensors[0], tensors[1], 0.0)
    second, _ = fusion(tensors[0], tensors[2], 3.0, branch)
    w = np.arange(80, dtype=np.float64).reshape(2, 2, 4, 5) / 80.0
    return ops.mul(ops.concat([first.reshape((1, 2, 4, 5)), second.reshape((1, 2, 4, 5))], axis=0), w)


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


# one point per row: inside, off the map, straddling the left/top and the
# right/bottom borders, and within 1e-3 of a cell edge on both axes
_PATCH_POINTS = np.array([[2.3, 1.6], [-4.2, 2.5], [-0.6, -1.3], [5.4, 4.5], [3.001, 1.999]])


@case("bilinear_patch_map", 1)
def _build_patch_map(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((5, 5, 6))]
    return ops.bilinear_patch(tensors[0], _PATCH_POINTS, 2)


@case("bilinear_patch_points", 2)
def _build_patch_pts(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((5, 5, 6)), _PATCH_POINTS]
    w = np.arange(45, dtype=np.float64).reshape(5, 9) / 45.0
    return ops.mul(ops.bilinear_patch(tensors[0], tensors[1], 1), w)


@case("correlate_batch", 4)
def _build_correlate(rng, tensors=None, make_arrays=False):
    """Two slices and two levels, so the positions' gradient passes through
    two scales and each slice's map gets its own gradient."""
    if make_arrays:
        cells = rng.integers(-1, 4, size=(2, 3, 2)) + rng.uniform(0.1, 0.4, size=(2, 3, 2))
        return [rng.standard_normal((2, 3, 4)), 8.0 * cells, rng.standard_normal((4, 5, 6)),
                rng.standard_normal((4, 5, 6))]
    features, positions, *maps = tensors
    levels = [maps, [ops.avg_pool2(m) for m in maps]]
    corr = correlate_batch(features, levels, positions, 1, 4)
    return ops.mul(corr, np.arange(108, dtype=np.float64).reshape(2, 3, 18) / 108.0)


@case("layernorm", 3)
def _build_ln(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 4, 8)), rng.uniform(0.5, 1.5, 8), rng.standard_normal(8)]
    return ops.layernorm(*tensors)


@case("reshape", 1)
def _build_shape(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 4, 2))]
    w = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    return ops.mul(ops.reshape(tensors[0], (2, 3, 4)), w)


@case("concat", 2)
def _build_concat(rng, tensors=None, make_arrays=False):
    if make_arrays:
        return [rng.standard_normal((3, 2)), rng.standard_normal((3, 5))]
    w = np.arange(21, dtype=np.float64).reshape(3, 7)
    return ops.mul(ops.concat(tensors, axis=1), w)


@case("concat_broadcast", 3)
def _build_concat_broadcast(rng, tensors=None, make_arrays=False):
    """A (1, 3, 2) part fills all four rows and a (4, 1, 1) part all three
    queries; each one's gradient is the sum over the rows it filled."""
    if make_arrays:
        return [rng.standard_normal((4, 3, 2)), rng.standard_normal((1, 3, 2)),
                rng.standard_normal((4, 1, 1))]
    w = np.arange(60, dtype=np.float64).reshape(4, 3, 5) / 60.0
    return ops.mul(ops.concat(tensors, axis=-1), w)


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


def _spy_public_ops(monkeypatch):
    """Wrap every public function of ops.py; returns (their names, the set
    of names called since)."""
    public = [name for name, fn in vars(ops).items()
              if callable(fn) and not name.startswith("_") and fn.__module__ == ops.__name__]
    called = set()
    for name in public:
        def spy(*args, _name=name, _fn=getattr(ops, name), **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ops, name, spy)
    assert len(public) > 20
    return public, called


def _captured(vjp):
    """Every value a vjp's closure holds, through the closures of the
    functions and the items of the lists, tuples and dicts among them."""
    values, stack = {}, [vjp]
    while stack:
        value = stack.pop()
        if id(value) in values:
            continue
        values[id(value)] = value
        if isinstance(value, types.FunctionType):
            stack += [cell.cell_contents for cell in value.__closure__ or ()]
        elif isinstance(value, (list, tuple)):
            stack += value
        elif isinstance(value, dict):
            stack += value.values()
    return list(values.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_vjp_captures_a_tensor(name):
    """No vjp of any node a finite-difference case records holds a Tensor,
    so a graph keeps only the arrays its vjps read (see autodiff/tensor.py)
    and an op added later must keep to that too."""
    build, _ = CASES[name]
    rng = np.random.default_rng(0)
    with precision("f64"):
        out = build(rng, tensors=[Tensor(a, requires_grad=True) for a in build(rng, make_arrays=True)])
    seen, stack = set(), [out.node]
    while stack:
        node = stack.pop()
        if node is None or node in seen:
            continue
        seen.add(node)
        stack += node.parents
        if node.vjp is not None:
            held = [type(v).__name__ for v in _captured(node.vjp) if isinstance(v, Tensor)]
            assert held == [], f"{name}: a vjp captures {held}"
    assert any(node.vjp is not None for node in seen)


def test_every_op_has_a_finite_difference_case(monkeypatch):
    """Building each case once calls every public function of ops.py."""
    public, called = _spy_public_ops(monkeypatch)
    with precision("f64"):
        for build, _ in CASES.values():
            rng = np.random.default_rng(0)
            build(rng, tensors=[Tensor(a, requires_grad=True) for a in build(rng, make_arrays=True)])
    assert sorted(set(public) - called) == []


def test_every_op_is_reached_by_the_tracker(monkeypatch):
    """One training forward and backward pass of the default tiny tracker
    calls every public function of ops.py, so no op lives for tests only."""
    public, called = _spy_public_ops(monkeypatch)
    frames, events, queries, gt_by_id, _, _ = tiny_sequence(seed=0, duration_us=150_000)
    sequence_loss(tiny_model(seed=0), frames, events, queries, gt_by_id, 0.8)
    assert sorted(set(public) - called) == []
