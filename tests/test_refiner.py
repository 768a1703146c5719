import sys
import threading

import numpy as np
import pytest

from evtrack import refiner as refiner_mod
from evtrack.autodiff import ParamStore, Tensor, no_grad, ops
from evtrack.correlation import WindowState, build_pyramid
from evtrack.errors import ConfigError, RefinementError
from evtrack.refiner import WindowRefiner, _AttnBlock, make_tokens, sincos_encode, token_len
from util_fixtures import tiny_model, tiny_tracker_config, traced_peak


def test_sincos_zero_alternates():
    enc = sincos_encode(Tensor(np.zeros((1, 1), dtype=np.float32)), 16, 512.0)
    assert enc.shape == (1, 32)
    assert np.allclose(enc.data[0, 0::2], 0.0)
    assert np.allclose(enc.data[0, 1::2], 1.0)


def test_sincos_base_periodicity():
    lam = 128.0
    a = sincos_encode(Tensor(np.array([[3.7]], dtype=np.float64)), 4, lam)
    b = sincos_encode(Tensor(np.array([[3.7 + lam]], dtype=np.float64)), 4, lam)
    # k=0 components (first sin/cos pair) repeat with period lambda
    assert np.allclose(a.data[0, :2], b.data[0, :2], atol=1e-9)


def test_sincos_length_scaling():
    enc = sincos_encode(Tensor(np.zeros((3, 5), dtype=np.float32)), 7, 100.0)
    assert enc.shape == (3, 5 * 14)


def test_token_layout_hand_arithmetic():
    cfg = tiny_tracker_config(channels=128, levels=4, radius=3, freqs=16)
    assert cfg.levels * (2 * cfg.radius + 1) ** 2 == 196  # the correlation length
    assert token_len(cfg) == 2 + 128 + 196 + 64 + 96
    assert token_len(cfg) == 486
    assert token_len(cfg) - 2 * cfg.freqs == 486 - 32  # the duration encoding's start


def _window_fixture(rng, w_len=4, n=3):
    # 16 channels, 2 levels, radius 1, 4 frequencies, one 32-wide pair with 2 heads
    cfg = tiny_tracker_config(iterations=3)
    c, levels = cfg.channels, cfg.levels
    pyramids = [
        build_pyramid(Tensor(rng.standard_normal((c, 8, 8)).astype(np.float32)), levels, 4)
        for _ in range(w_len)
    ]
    positions = rng.uniform(4, 28, size=(1, n, 2)).astype(np.float32)
    state = WindowState(
        positions=np.repeat(positions, w_len, axis=0),
        features=Tensor(rng.standard_normal((w_len, n, c)).astype(np.float32)),
        durations_us=np.arange(w_len, dtype=np.int64) * 10_000,
        slice_times=np.arange(w_len, dtype=np.int64) * 25_000,
        valid_from=np.zeros(n, dtype=np.int64),
        start_index=0,
    )
    return cfg, pyramids, state


def _corr_len(cfg):
    return cfg.levels * (2 * cfg.radius + 1) ** 2


@pytest.mark.parametrize("axis", [0, 1])
def test_attention_block_mixes_only_along_its_axis(rng, axis):
    """Perturbing the token at (w=0, n=0) of (W, N, D) tokens changes only
    column n=0 when attending along the window (axis 0) and only row w=0
    when attending along the queries (axis 1), and more than that token."""
    block = _AttnBlock(ParamStore(), "block", 8, 2, 2, rng)
    x = rng.standard_normal((4, 5, 8)).astype(np.float32)
    bumped = x.copy()
    bumped[0, 0, 0] += 1.0  # one channel: a shift of every channel is normalized away
    moved = np.any(block(Tensor(bumped), axis).data != block(Tensor(x), axis).data, axis=-1)
    expect = np.zeros((4, 5), dtype=bool)
    expect[:, 0] = axis == 0
    expect[0, :] = axis == 1
    expect[0, 0] = True
    assert np.array_equal(moved, expect)


@pytest.mark.parametrize("live", ["temporal", "spatial"])
def test_refiner_blocks_attend_along_their_axes(rng, live):
    """With one pair and the other block made the identity (its proj and
    fc2 weights and biases zeroed), perturbing raw token (w=0, n=0) changes
    only column n=0 when the temporal block is live and only row w=0 when
    the spatial block is: `_transform` calls each block along its own axis."""
    cfg = tiny_tracker_config(pairs=1)
    refiner = WindowRefiner(ParamStore(), "refiner", cfg, rng)
    temporal, spatial = refiner.blocks[0]
    dead = spatial if live == "temporal" else temporal
    for layer in (dead.proj, dead.fc2):
        layer.weight.data[...] = 0.0
        layer.bias.data[...] = 0.0
    raw = rng.standard_normal((4, 5, token_len(cfg))).astype(np.float32)
    bumped = raw.copy()
    bumped[0, 0, 0] += 1.0
    out = refiner._transform(Tensor(bumped)).data
    moved = np.any(out != refiner._transform(Tensor(raw)).data, axis=-1)
    expect = np.zeros((4, 5), dtype=bool)
    if live == "temporal":
        expect[:, 0] = True
    else:
        expect[0, :] = True
    assert np.array_equal(moved, expect)


def test_make_tokens_window_start_displacement(rng):
    cfg, _, state = _window_fixture(rng)
    corr = Tensor(np.zeros((4, 3, _corr_len(cfg)), dtype=np.float32))
    raw = make_tokens(Tensor(state.positions), state.features, corr,
                      state.positions[0], state.durations_us, cfg)
    assert raw.shape == (4, 3, token_len(cfg))
    # replicated positions: displacement zero everywhere, exactly zero at t=0
    assert np.allclose(raw.data[0, :, :2], 0.0)


def _sincos(values, freqs, wavelength):
    """numpy `sincos_encode`: sin and cos of each angle, interleaved."""
    angles = values[..., None] * refiner_mod._omegas(freqs, wavelength)
    return np.stack([np.sin(angles), np.cos(angles)], axis=-1).reshape(values.shape[:-1] + (-1,))


@pytest.mark.parametrize("time_embed", [True, False])
def test_make_tokens_is_the_broadcast_join_of_its_parts(rng, time_embed):
    """The tokens are, bit for bit, `np.concatenate` of their six parts,
    with the initial-position encoding broadcast over the slices and the
    duration encoding over the queries."""
    _, _, state = _window_fixture(rng)
    cfg = tiny_tracker_config(iterations=3, time_embed=time_embed)
    w_len, n, _ = state.positions.shape
    pos = state.positions + rng.standard_normal(state.positions.shape).astype(np.float32)
    corr = rng.standard_normal((w_len, n, _corr_len(cfg))).astype(np.float32)
    p_init = state.positions[0]
    raw = make_tokens(Tensor(pos), state.features, Tensor(corr), p_init, state.durations_us, cfg)
    disp = pos - pos[:1]
    dur_enc = np.zeros((w_len, 2 * cfg.freqs), dtype=np.float32)
    if time_embed:
        dur_enc = _sincos(state.durations_us.astype(np.float32)[:, None], cfg.freqs,
                          cfg.time_wavelength)
    init_enc = _sincos(p_init, cfg.freqs, cfg.pos_wavelength)
    parts = [disp, state.features.data, corr, _sincos(disp, cfg.freqs, cfg.pos_wavelength),
             np.broadcast_to(init_enc, (w_len,) + init_enc.shape),
             np.broadcast_to(dur_enc[:, None], (w_len, n, dur_enc.shape[-1]))]
    assert raw.dtype == np.float32
    assert np.array_equal(raw.data, np.concatenate(parts, axis=-1))


def test_time_embed_toggle_changes_only_duration_slice(rng):
    cfg, _, state = _window_fixture(rng)
    assert cfg.time_embed
    corr = Tensor(rng.standard_normal((4, 3, _corr_len(cfg))).astype(np.float32))
    pos = Tensor(state.positions)
    with_t = make_tokens(pos, state.features, corr, state.positions[0],
                         state.durations_us, cfg)
    without = make_tokens(pos, state.features, corr, state.positions[0],
                          state.durations_us, tiny_tracker_config(iterations=3, time_embed=False))
    n_tok = token_len(cfg)
    sl = slice(n_tok - 2 * cfg.freqs, n_tok)  # the duration encoding
    assert not np.allclose(with_t.data[..., sl], 0.0)
    assert np.allclose(without.data[..., sl], 0.0)
    keep = np.ones(n_tok, dtype=bool)
    keep[sl] = False
    assert np.array_equal(with_t.data[..., keep], without.data[..., keep])


def test_token_layout_mismatch_rejected(rng):
    cfg, _, state = _window_fixture(rng)
    bad_corr = Tensor(np.zeros((4, 3, _corr_len(cfg) + 1), dtype=np.float32))
    with pytest.raises(ConfigError):
        make_tokens(Tensor(state.positions), state.features, bad_corr,
                    state.positions[0], state.durations_us, cfg)


def _build_refiner(cfg, seed=0, zero=False):
    store = ParamStore()
    refiner = WindowRefiner(store, "ref", cfg, np.random.default_rng(seed))
    if zero:
        for _, p in store.items():
            p.data[...] = 0.0
    return refiner, store


def test_zero_network_is_identity(rng):
    cfg, pyramids, state = _window_fixture(rng)
    refiner, _ = _build_refiner(cfg, zero=True)
    snapshots, pos, feats = refiner.refine(state, pyramids, state.positions[0])
    assert len(snapshots) == cfg.iterations
    for snap in snapshots:
        assert np.array_equal(snap.data, state.positions)
    assert np.array_equal(feats.data, state.features.data)


def test_snapshot_count_and_chain(rng):
    cfg, pyramids, state = _window_fixture(rng)
    refiner, store = _build_refiner(cfg)
    # nonzero heads so updates are visible
    refiner.head_pos.weight.data = (
        np.random.default_rng(5).standard_normal(refiner.head_pos.weight.shape) * 0.05
    ).astype(np.float32)
    snapshots, pos, _ = refiner.refine(state, pyramids, state.positions[0])
    assert len(snapshots) == cfg.iterations
    assert np.array_equal(snapshots[-1].data, pos.data)
    # positions compose additively across iterations
    deltas = [snapshots[0].data - state.positions]
    for a, b in zip(snapshots, snapshots[1:]):
        deltas.append(b.data - a.data)
    recomposed = state.positions + sum(deltas)
    assert np.allclose(recomposed, pos.data, atol=1e-5)
    assert np.any(pos.data != state.positions)


def test_determinism(rng):
    cfg, pyramids, state = _window_fixture(rng)
    refiner, _ = _build_refiner(cfg)
    refiner.head_pos.weight.data[...] = 0.01
    a = refiner.refine(state, pyramids, state.positions[0])[1].data
    b = refiner.refine(state, pyramids, state.positions[0])[1].data
    assert np.array_equal(a, b)


def test_query_permutation_equivariance(rng):
    cfg, pyramids, state = _window_fixture(rng, n=4)
    refiner, _ = _build_refiner(cfg)
    refiner.head_pos.weight.data = (
        np.random.default_rng(9).standard_normal(refiner.head_pos.weight.shape) * 0.05
    ).astype(np.float32)
    perm = np.array([2, 0, 3, 1])
    base = refiner.refine(state, pyramids, state.positions[0])[1].data

    permuted_state = WindowState(
        positions=state.positions[:, perm],
        features=Tensor(state.features.data[:, perm]),
        durations_us=state.durations_us,
        slice_times=state.slice_times,
        valid_from=state.valid_from[perm],
        start_index=0,
    )
    permuted = refiner.refine(permuted_state, pyramids, state.positions[0][perm])[1].data
    assert np.allclose(permuted, base[:, perm], atol=1e-5)


def test_birth_pinning(rng):
    cfg, pyramids, state = _window_fixture(rng)
    state.valid_from = np.array([0, 1, 2], dtype=np.int64)
    refiner, _ = _build_refiner(cfg)
    refiner.head_pos.weight.data[...] = 0.02
    _, pos, _ = refiner.refine(state, pyramids, state.positions[0])
    # at/before each query's birth slice the position stays the initial value
    for n, birth in enumerate([0, 1, 2]):
        assert np.array_equal(pos.data[: birth + 1, n], state.positions[: birth + 1, n])
        assert np.any(pos.data[birth + 1 :, n] != state.positions[birth + 1 :, n])


def test_non_finite_update_raises(rng):
    cfg, pyramids, state = _window_fixture(rng)
    refiner, _ = _build_refiner(cfg)
    refiner.head_pos.weight.data[...] = np.inf
    # the infinite head weights give NaN inside the matmul, on purpose
    with pytest.raises(RefinementError, match="iteration 0"), np.errstate(invalid="ignore"):
        refiner.refine(state, pyramids, state.positions[0])


def test_pyramid_count_checked(rng):
    cfg, pyramids, state = _window_fixture(rng)
    refiner, _ = _build_refiner(cfg)
    with pytest.raises(ConfigError):
        refiner.refine(state, pyramids[:-1], state.positions[0])


def test_refine_holds_no_copy_of_the_pyramids():
    """Refining a window allocates less than the window's pyramids take:
    the correlation reads each slice's levels where they are, so a stacked
    copy of them cannot come back. 87x65 maps, 32 channels, 4 levels."""
    model = tiny_model(seed=0, randomize_heads=True, channels=32, levels=4)
    rng = np.random.default_rng(8)
    w_len, n = model.cfg.window, 8
    pyramids = [build_pyramid(Tensor(rng.standard_normal((32, 65, 87)).astype(np.float32)), 4, 4)
                for _ in range(w_len)]
    window_bytes = sum(level.data.nbytes for p in pyramids for level in p.levels)
    p_init = rng.uniform(0, 340, size=(n, 2)).astype(np.float32)
    state = WindowState(
        positions=np.repeat(p_init[None], w_len, axis=0),
        features=Tensor(rng.standard_normal((w_len, n, 32)).astype(np.float32)),
        durations_us=np.full(w_len, 5_000, dtype=np.int64),
        slice_times=np.arange(w_len, dtype=np.int64) * 5_000,
        valid_from=np.zeros(n, dtype=np.int64),
    )
    with no_grad():
        model.refiner.refine(state, pyramids, p_init)  # warm
        _, peak, _ = traced_peak(lambda: model.refiner.refine(state, pyramids, p_init))
    assert peak < window_bytes


def _default_block(seed=0):
    """One attention block of the default refiner: dim 256, 4 heads, MLP ratio 4."""
    return _AttnBlock(ParamStore(), "block", 256, 4, 4, np.random.default_rng(seed))


def _counting_shares(monkeypatch):
    """Record the share count of every `ops._run_shares` call."""
    calls = []
    run = ops._run_shares

    def counting(n, share):
        calls.append(n)
        run(n, share)

    monkeypatch.setattr(ops, "_run_shares", counting)
    return calls


@pytest.mark.parametrize("window", [(9, 256), (16, 256), (16, 37), (16, 8), (1, 256), (16, 1)],
                         ids=lambda w: f"{w[0]}x{w[1]}")
@pytest.mark.parametrize("axis", [0, 1])
def test_split_block_is_bit_identical(monkeypatch, window, axis):
    """A block run in row tiles over the axis it does not attend along
    gives the one-call output bit for bit at 1 to 4 workers, with one
    `_run_shares` call of min(workers, tiles) shares. The floor is lowered
    to 5 rows, the fewest for which `linear` rows match the full GEMM, so
    that the small windows make tiles too: uneven ones (51 tiles of 5 or 6
    one-slice queries, 3 of 5 or 6 one-query slices) and more tiles than
    workers. A one-slice window's spatial block and a one-query window's
    temporal block have one sequence and run in one call."""
    monkeypatch.setattr(refiner_mod, "_PART_ROWS", 5)
    block = _default_block()
    x = Tensor(np.random.default_rng(sum(window) + axis).standard_normal(
        (*window, 256)).astype(np.float32))
    calls = _counting_shares(monkeypatch)
    outs = []
    with no_grad():
        one_call = block._block(x, axis).data
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(ops, "_WORKERS", workers)
            outs.append(block(x, axis).data)
    tiles = window[1 - axis] // -(-5 // window[axis])
    assert calls == ([min(n, tiles) for n in (1, 2, 3, 4)] if tiles > 1 else [])
    assert all(np.array_equal(one_call, out) for out in outs)


@pytest.mark.parametrize("window", [(8, 256), (9, 256), (16, 40), (3, 1000)],
                         ids=lambda w: f"{w[0]}x{w[1]}")
@pytest.mark.parametrize("axis", [0, 1])
def test_tiles_are_views_of_whole_sequences_above_the_floor(monkeypatch, window, axis):
    """Each tile is a view of the tokens (nothing is split off or
    concatenated) that holds whole sequences, at least `_PART_ROWS` rows
    and fewer than twice the sequences that hold them; the tiles cover
    the other axis in order, `extent // per_part` of them."""
    block = _default_block()
    x = Tensor(np.random.default_rng(6).standard_normal((*window, 256)).astype(np.float32))
    seen = []
    run_block = block._block

    def recording(tile, tile_axis):
        seen.append(tile.data)
        return run_block(tile, tile_axis)

    def refuse(*args, **kwargs):
        raise AssertionError("the tokens were copied to split or join them")

    monkeypatch.setattr(block, "_block", recording)
    monkeypatch.setattr(ops, "getitem", refuse)
    monkeypatch.setattr(ops, "concat", refuse)
    monkeypatch.setattr(ops, "_WORKERS", 1)
    with no_grad():
        block(x, axis)
    other, length = 1 - axis, window[axis]
    per_part = -(-refiner_mod._PART_ROWS // length)
    assert len(seen) == window[other] // per_part
    start = 0
    for tile in seen:
        assert np.shares_memory(tile, x.data) and tile.shape[axis] == length
        sequences = tile.shape[other]
        assert sequences * length >= refiner_mod._PART_ROWS and sequences < 2 * per_part
        rows = (slice(None),) * other + (slice(start, start + sequences),)
        assert np.array_equal(tile, x.data[rows])
        start += sequences
    assert start == window[other]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("axis", [0, 1])
def test_tiled_block_peak_is_bounded_by_its_tiles(monkeypatch, workers, axis):
    """A warm no-graph default block on an (8, 256, 256) window holds its
    output and, per share, one tile's temporaries at a time. So its traced
    peak stays below the output's bytes plus `workers` times the traced
    peak of the block on one 256-row tile (32 queries of 8 slices, or one
    slice of 256 queries; the tile's output counted), plus 64 kB for the
    shares' Python objects. In one call the window's temporaries peak at
    about 21 MB."""
    monkeypatch.setattr(ops, "_WORKERS", workers)
    block = _default_block()
    x = Tensor(np.random.default_rng(7).standard_normal((8, 256, 256)).astype(np.float32))
    tile = Tensor(x.data[:, :32] if axis == 0 else x.data[:1])
    with no_grad():
        block(x, axis)  # warm
        block._block(tile, axis)
        _, tile_peak, _ = traced_peak(lambda: block._block(tile, axis))
        _, peak, _ = traced_peak(lambda: block(x, axis))
    assert peak < x.data.nbytes + workers * tile_peak + (64 << 10)


def test_block_runs_as_one_part_in_grad_mode_below_the_floor_or_on_one_worker(
        monkeypatch, no_pool):
    """No executor starts while a graph is recorded, for windows that
    hold fewer than two tiles of `_PART_ROWS` rows (the stream's 16 x 8,
    8-query windows of 9 slices), or with one worker, which runs every
    tile on the calling thread."""
    block = _default_block()
    rng = np.random.default_rng(3)
    big = Tensor(rng.standard_normal((9, 256, 256)).astype(np.float32))
    monkeypatch.setattr(ops, "_WORKERS", 2)
    for axis in (0, 1):
        block(big, axis)
        with no_grad():
            for window in ((16, 8), (9, 8), (2, 255)):
                block(Tensor(rng.standard_normal((*window, 256)).astype(np.float32)), axis)
    monkeypatch.setattr(ops, "_WORKERS", 1)
    with no_grad():
        block(big, 0)


def test_block_worker_error_is_raised_from_the_block(monkeypatch):
    """An error in a part that a worker thread runs comes out of the block
    as the same exception object."""
    monkeypatch.setattr(ops, "_WORKERS", 2)
    error = MemoryError("part 1")
    layernorm = ops.layernorm

    def failing_layernorm(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return layernorm(*args, **kwargs)

    monkeypatch.setattr(ops, "layernorm", failing_layernorm)
    x = Tensor(np.random.default_rng(4).standard_normal((9, 256, 256)).astype(np.float32))
    with no_grad(), pytest.raises(MemoryError) as raised:
        _default_block()(x, 0)
    assert raised.value is error


def test_run_shares_workers_keep_the_callers_errstate():
    """Share 0 runs on the calling thread and the others on workers, each
    in a copy of the caller's context, so a caller's `np.errstate` holds
    on every share's thread."""
    seen = [None] * 3

    def share(i):
        seen[i] = (threading.get_ident(), np.geterr()["invalid"])

    with np.errstate(invalid="ignore"):
        ops._run_shares(3, share)
    caller = threading.get_ident()
    assert [ident == caller for ident, _ in seen] == [True, False, False]
    assert all(state == "ignore" for _, state in seen)


def test_split_blocks_under_fast_switching(monkeypatch):
    """Stress: 4 workers on 5-slice parts of a spatial block and 2-query
    parts of a temporal one, with the interpreter switching threads every
    microsecond, still give the one-worker output. The run is bounded by a
    join timeout."""
    monkeypatch.setattr(refiner_mod, "_PART_ROWS", 5)
    block = _default_block()
    x = Tensor(np.random.default_rng(5).standard_normal((20, 8, 256)).astype(np.float32))
    with no_grad():
        monkeypatch.setattr(ops, "_WORKERS", 1)
        sequential = [block(x, axis).data for axis in (0, 1)]
        monkeypatch.setattr(ops, "_WORKERS", 4)
        outs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def run():
                for _ in range(5):
                    outs.append([block(x, axis).data for axis in (0, 1)])

            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(outs) == 5
    assert all(np.array_equal(a, b) for run in outs for a, b in zip(sequential, run))
