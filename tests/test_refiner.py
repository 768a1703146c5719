import numpy as np
import pytest

from evtrack.autodiff import ParamStore, Tensor
from evtrack.correlation import WindowState, build_pyramid
from evtrack.errors import ConfigError, RefinementError
from evtrack.refiner import RefinerConfig, TokenLayout, WindowRefiner, make_tokens, sincos_encode


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
    layout = TokenLayout(channels=128, levels=4, radius=3, freqs=16)
    assert layout.corr_len == 196
    assert layout.raw_len == 2 + 128 + 196 + 64 + 96
    assert layout.raw_len == 486
    assert layout.raw_len - 2 * layout.freqs == 486 - 32  # the duration encoding's start


def _window_fixture(rng, w_len=4, n=3, c=16, levels=2, radius=1, freqs=4):
    layout = TokenLayout(channels=c, levels=levels, radius=radius, freqs=freqs)
    cfg = RefinerConfig(iterations=3, pairs=1, heads=2, dim=32, mlp_ratio=2, freqs=freqs)
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
    return layout, cfg, pyramids, state


def test_make_tokens_window_start_displacement(rng):
    layout, cfg, _, state = _window_fixture(rng)
    corr = Tensor(np.zeros((4, 3, layout.corr_len), dtype=np.float32))
    raw = make_tokens(Tensor(state.positions), state.features, corr,
                      state.positions[0], state.durations_us, layout, cfg)
    assert raw.shape == (4, 3, layout.raw_len)
    # replicated positions: displacement zero everywhere, exactly zero at t=0
    assert np.allclose(raw.data[0, :, :2], 0.0)


def test_time_embed_toggle_changes_only_duration_slice(rng):
    layout, cfg, _, state = _window_fixture(rng)
    corr = Tensor(rng.standard_normal((4, 3, layout.corr_len)).astype(np.float32))
    pos = Tensor(state.positions)
    with_t = make_tokens(pos, state.features, corr, state.positions[0],
                         state.durations_us, layout, cfg, time_embed=True)
    without = make_tokens(pos, state.features, corr, state.positions[0],
                          state.durations_us, layout, cfg, time_embed=False)
    sl = slice(layout.raw_len - 2 * layout.freqs, layout.raw_len)  # the duration encoding
    assert not np.allclose(with_t.data[..., sl], 0.0)
    assert np.allclose(without.data[..., sl], 0.0)
    keep = np.ones(layout.raw_len, dtype=bool)
    keep[sl] = False
    assert np.array_equal(with_t.data[..., keep], without.data[..., keep])


def test_token_layout_mismatch_rejected(rng):
    layout, cfg, _, state = _window_fixture(rng)
    bad_corr = Tensor(np.zeros((4, 3, layout.corr_len + 1), dtype=np.float32))
    with pytest.raises(ConfigError):
        make_tokens(Tensor(state.positions), state.features, bad_corr,
                    state.positions[0], state.durations_us, layout, cfg)


def _build_refiner(layout, cfg, seed=0, zero=False):
    store = ParamStore()
    refiner = WindowRefiner(store, "ref", layout, cfg, np.random.default_rng(seed))
    if zero:
        for _, p in store.items():
            p.data[...] = 0.0
    return refiner, store


def test_zero_network_is_identity(rng):
    layout, cfg, pyramids, state = _window_fixture(rng)
    refiner, _ = _build_refiner(layout, cfg, zero=True)
    snapshots, pos, feats = refiner.refine(state, pyramids, state.positions[0])
    assert len(snapshots) == cfg.iterations
    for snap in snapshots:
        assert np.array_equal(snap.data, state.positions)
    assert np.array_equal(feats.data, state.features.data)


def test_snapshot_count_and_chain(rng):
    layout, cfg, pyramids, state = _window_fixture(rng)
    refiner, store = _build_refiner(layout, cfg)
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
    layout, cfg, pyramids, state = _window_fixture(rng)
    refiner, _ = _build_refiner(layout, cfg)
    refiner.head_pos.weight.data[...] = 0.01
    a = refiner.refine(state, pyramids, state.positions[0])[1].data
    b = refiner.refine(state, pyramids, state.positions[0])[1].data
    assert np.array_equal(a, b)


def test_query_permutation_equivariance(rng):
    layout, cfg, pyramids, state = _window_fixture(rng, n=4)
    refiner, _ = _build_refiner(layout, cfg)
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
    layout, cfg, pyramids, state = _window_fixture(rng)
    state.valid_from = np.array([0, 1, 2], dtype=np.int64)
    refiner, _ = _build_refiner(layout, cfg)
    refiner.head_pos.weight.data[...] = 0.02
    _, pos, _ = refiner.refine(state, pyramids, state.positions[0])
    # at/before each query's birth slice the position stays the initial value
    for n, birth in enumerate([0, 1, 2]):
        assert np.array_equal(pos.data[: birth + 1, n], state.positions[: birth + 1, n])
        assert np.any(pos.data[birth + 1 :, n] != state.positions[birth + 1 :, n])


def test_non_finite_update_raises(rng):
    layout, cfg, pyramids, state = _window_fixture(rng)
    refiner, _ = _build_refiner(layout, cfg)
    refiner.head_pos.weight.data[...] = np.inf
    with pytest.raises(RefinementError, match="iteration 0"):
        refiner.refine(state, pyramids, state.positions[0])


def test_pyramid_count_checked(rng):
    layout, cfg, pyramids, state = _window_fixture(rng)
    refiner, _ = _build_refiner(layout, cfg)
    with pytest.raises(ConfigError):
        refiner.refine(state, pyramids[:-1], state.positions[0])
