import numpy as np
import pytest

from evtrack.autodiff import Tensor, backward, no_grad, ops, precision
from evtrack.correlation import build_pyramid, correlate_batch
from evtrack.errors import ConfigError, UsageError
from evtrack.pipeline import TrackSession, load_queries_csv
from oracles import correlate_oracle, correlate_stacked_oracle, offsets_grid
from util_fixtures import tiny_model


def random_pyramid(rng, channels=8, h=12, w=16, levels=3, scale=4):
    fused = Tensor(rng.standard_normal((channels, h, w)).astype(np.float32))
    return build_pyramid(fused, levels, scale)


def correlate(feature, pyramid, position, radius):
    """Cost vector of one feature at one position: correlate_batch with W = N = 1."""
    levels = [[level] for level in pyramid.levels]
    feature = ops.as_tensor(feature).reshape((1, 1, -1))
    position = Tensor(np.asarray(position, dtype=np.float32).reshape(1, 1, 2))
    return correlate_batch(feature, levels, position, radius, pyramid.base_scale).reshape((-1,))


def window_levels(pyramids):
    """Per level, the W slices' maps: what `WindowRefiner.refine` passes."""
    return [[p.levels[lv] for p in pyramids] for lv in range(len(pyramids[0].levels))]


def test_pyramid_shapes_hand_case():
    fused = Tensor(np.zeros((128, 45, 60), dtype=np.float32))
    pyr = build_pyramid(fused, 4, 4)
    shapes = [(m.shape[-2], m.shape[-1]) for m in pyr.levels]
    assert shapes == [(45, 60), (23, 30), (12, 15), (6, 8)]


def test_pyramid_single_level_and_constant():
    fused = Tensor(np.full((4, 6, 6), 2.5, dtype=np.float32))
    pyr = build_pyramid(fused, 1, 4)
    assert len(pyr.levels) == 1 and pyr.levels[0] is fused
    deep = build_pyramid(fused, 3, 4)
    for level in deep.levels:
        assert np.all(level.data == np.float32(2.5))


def test_pyramid_depth_error():
    fused = Tensor(np.zeros((4, 2, 2), dtype=np.float32))
    with pytest.raises(ConfigError):
        build_pyramid(fused, 4, 4)


def test_correlate_length_and_unit_case():
    c = 6
    maps = Tensor(np.zeros((c, 10, 10), dtype=np.float32))
    e1 = np.zeros(c, dtype=np.float32)
    e1[0] = 1.0
    const = np.zeros((c, 10, 10), dtype=np.float32)
    const[0] = 1.0
    pyr = build_pyramid(Tensor(const), 4, 4)
    vec = correlate(Tensor(e1), pyr, (20.0, 20.0), 3)
    assert vec.shape == (4 * 49,)
    # interior samples of a constant e1 map dot e1 -> exactly 1
    center = vec.data.reshape(4, 49)[:, 24]
    assert np.allclose(center[:2], 1.0)
    assert vec.shape[0] == 196

    far = correlate(Tensor(e1), pyr, (1e6, 1e6), 3)
    assert not far.data.any()
    del maps


def test_correlate_linear_in_feature(rng):
    pyr = random_pyramid(rng)
    f = rng.standard_normal(8).astype(np.float32)
    base = correlate(Tensor(f), pyr, (7.0, 5.0), 2).data
    scaled = correlate(Tensor(3.0 * f), pyr, (7.0, 5.0), 2).data
    assert np.allclose(scaled, 3.0 * base, rtol=1e-5, atol=1e-5)


def test_self_correlation_center_is_norm_squared(rng):
    fused = Tensor(rng.standard_normal((8, 12, 16)).astype(np.float32))
    pyr = build_pyramid(fused, 1, 4)
    cell = (5, 3)  # integer feature cell (x, y)
    f = fused.data[:, cell[1], cell[0]]
    vec = correlate(Tensor(f), pyr, (cell[0] * 4, cell[1] * 4), 0)
    assert vec.shape == (1,)
    assert np.allclose(vec.data[0], np.dot(f, f), rtol=1e-5)


def test_correlate_matches_oracle_randomized(rng):
    for trial in range(60):
        levels = int(rng.integers(1, 4))
        pyr = random_pyramid(rng, levels=levels)
        f = rng.standard_normal(8).astype(np.float32)
        # mix in-bounds, border, and far-outside positions
        pos = rng.uniform(-30, 90, size=2)
        r = int(rng.integers(0, 4))
        fast = correlate(Tensor(f), pyr, pos, r).data
        slow = correlate_oracle(f, pyr, pos, r)
        assert fast.shape == slow.shape
        assert np.max(np.abs(fast - slow)) < 1e-5


@pytest.mark.parametrize("kind, rel_tol", [("f32", 1e-5), ("f64", 1e-12)])
def test_correlate_batch_matches_oracle_relative(kind, rel_tol):
    """Whole windows against the per-scalar oracle, relative to the largest
    cost; positions inside, straddling the border and far off the map."""
    rng = np.random.default_rng(21)
    w_len, n, levels, radius = 3, 5, 3, 3
    with precision(kind):
        pyramids = [random_pyramid(rng, levels=levels) for _ in range(w_len)]
        dtype = pyramids[0].levels[0].dtype
        feats = rng.standard_normal((w_len, n, 8)).astype(dtype)
        positions = rng.uniform(-20, 80, size=(w_len, n, 2)).astype(dtype)
        positions[0, 0] = (1e5, -1e5)
        batch = correlate_batch(Tensor(feats), window_levels(pyramids), Tensor(positions),
                                radius, 4).data
    for t in range(w_len):
        for q in range(n):
            ref = correlate_oracle(feats[t, q], pyramids[t], positions[t, q], radius)
            err = np.max(np.abs(batch[t, q] - ref))
            assert err <= rel_tol * max(np.max(np.abs(ref)), 1.0), (t, q, err)


def test_correlate_batch_matches_single(rng):
    w_len, n = 4, 3
    per_slice = [random_pyramid(rng, levels=3) for _ in range(w_len)]
    feats = rng.standard_normal((w_len, n, 8)).astype(np.float32)
    positions = rng.uniform(0, 60, size=(w_len, n, 2)).astype(np.float32)
    batch = correlate_batch(Tensor(feats), window_levels(per_slice), Tensor(positions), 2, 4).data
    for t in range(w_len):
        for q in range(n):
            single = correlate(Tensor(feats[t, q]), per_slice[t], positions[t, q], 2).data
            assert np.allclose(batch[t, q], single, atol=1e-5)


def _values_and_grads(correlate, feats, maps, positions, weights, radius):
    """`correlate`'s costs and the gradients of their weighted sum for the
    features, every slice's level maps (maps[i][level]) and the positions."""
    f = Tensor(feats, requires_grad=True)
    leaves = [[Tensor(m, requires_grad=True) for m in per_slice] for per_slice in maps]
    p = Tensor(positions, requires_grad=True)
    levels = [[per_slice[lv] for per_slice in leaves] for lv in range(len(maps[0]))]
    out = correlate(f, levels, p, radius, 4)
    backward(ops.sum_(out * Tensor(weights)))
    return [out.data, f.grad, p.grad] + [m.grad for per_slice in leaves for m in per_slice]


def _assert_stacked_bits(w_len, n, channels, h, w, levels, seed):
    rng = np.random.default_rng(seed)
    shapes = [(channels, h, w)]
    for _ in range(levels - 1):
        shapes.append((channels, -(-shapes[-1][1] // 2), -(-shapes[-1][2] // 2)))
    maps = [[rng.standard_normal(s).astype(np.float32) for s in shapes] for _ in range(w_len)]
    feats = rng.standard_normal((w_len, n, channels)).astype(np.float32)
    # inside, straddling the border and off the map
    positions = rng.uniform(-20, 4 * w + 20, size=(w_len, n, 2)).astype(np.float32)
    radius = 2
    weights = rng.standard_normal((w_len, n, levels * (2 * radius + 1) ** 2)).astype(np.float32)
    got = _values_and_grads(correlate_batch, feats, maps, positions, weights, radius)
    want = _values_and_grads(correlate_stacked_oracle, feats, maps, positions, weights, radius)
    assert len(got) == len(want) == 3 + w_len * levels
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and np.array_equal(a, b), i


@pytest.mark.parametrize("w_len", [1, 2, 16])
@pytest.mark.parametrize("n", [1, 256])
def test_correlate_batch_is_the_stacked_formula_bit_for_bit(w_len, n):
    """Reading each slice's maps in place gives the costs and the feature,
    map and position gradients of one matmul over stacked maps, bit for bit."""
    _assert_stacked_bits(w_len, n, 8, 12, 16, 3, seed=10 * w_len + n)


def test_correlate_batch_is_the_stacked_formula_on_an_87x65_map():
    """The level-0 map of a 346x260 sensor at 1/4 resolution, 128 channels."""
    _assert_stacked_bits(2, 8, 128, 65, 87, 4, seed=3)


def test_offsets_layout():
    offs = offsets_grid(1)
    assert offs.shape == (9, 2)
    # dy-major, dx fastest; rows are (dx, dy)
    assert np.array_equal(offs[0], [-1, -1])
    assert np.array_equal(offs[1], [0, -1])
    assert np.array_equal(offs[4], [0, 0])
    assert np.array_equal(offs[8], [1, 1])


def test_init_queries_replicates(monkeypatch):
    """A session samples each template from its birth frame's features and
    replicates position and template over the first window's W slices."""
    model = tiny_model()  # window 4, 25 ms slices, 16 channels, 1/4 features
    states = []
    refine = model.refiner.refine

    def spy(state, *args, **kwargs):
        states.append(state)
        return refine(state, *args, **kwargs)

    monkeypatch.setattr(model.refiner, "refine", spy)
    pos = np.array([[8.0, 4.0], [8.0, 4.0], [20.0, 16.0]])
    image = np.random.default_rng(0).random((1, 40, 48)).astype(np.float32)
    with no_grad():
        session = TrackSession(model, [(i, 0, x, y) for i, (x, y) in enumerate(pos)])
        session.advance(frame=(0, image))
        session.advance(frame=(75_000, image))
        session.finish()
        cells = model.frame_encoder(Tensor(image)).data
    state = states[0]
    assert state.positions.shape == (4, 3, 2)
    assert np.all(state.positions == pos[None])
    assert state.features.shape == (4, 3, 16)
    # grid-aligned position: template equals the stored cell exactly
    assert np.allclose(state.features.data[0, 0], cells[:, 1, 2])
    # identical positions give identical templates
    assert np.array_equal(state.features.data[:, 0], state.features.data[:, 1])
    # all W entries replicate the template
    assert np.all(state.features.data[:, 2] == state.features.data[0, 2])


def test_templates_one_read_per_birth_frame(monkeypatch):
    """Queries born at one frame share one bilinear_sample call, and each
    template equals a read of that query alone, bit for bit."""
    model = tiny_model()  # 25 ms slices, 1/4 features
    reads = []
    sample = ops.bilinear_sample

    def spy(fmap, points):
        reads.append(len(points))
        return sample(fmap, points)

    monkeypatch.setattr(ops, "bilinear_sample", spy)
    rows = [(0, 0, 8.0, 4.0), (1, 0, 13.3, 9.7), (2, 50_000, 20.6, 16.1), (3, 0, 30.2, 2.5),
            (4, 50_000, 3.9, 33.4)]
    images = [np.random.default_rng(i).random((1, 40, 48)).astype(np.float32) for i in range(3)]
    with no_grad():
        session = TrackSession(model, rows)
        for i, image in enumerate(images):
            session.advance(frame=(50_000 * i, image))
        session.finish()
        cells = [model.frame_encoder(Tensor(image)) for image in images[:2]]
        assert reads == [3, 2]
        templates = session._template_matrix().data
        for n, qid in enumerate(session.query_ids):  # the session orders queries by birth
            _, t_birth, x, y = rows[qid]
            pts = np.array([[x, y]], dtype=np.float32) / 4
            alone = sample(cells[t_birth // 50_000], pts).data[0]
            assert np.array_equal(templates[n], alone)


def test_init_queries_errors():
    model = tiny_model()
    with pytest.raises(UsageError):
        TrackSession(model, [])
    # templates come from frame features, so a query born between frames fails
    image = np.zeros((1, 40, 48), dtype=np.float32)
    session = TrackSession(model, [(0, 10_000, 1.0, 1.0)])
    with no_grad():
        session.advance(frame=(0, image))
        with pytest.raises(UsageError, match="query 0 born at 10000, which is not a frame time"):
            session.advance(frame=(50_000, image))
    assert session._n_slices == 0  # rejected before any slice was processed
    # with no earlier frame, a birth before the first frame is rejected by it
    session = TrackSession(model, [(0, 10_000, 1.0, 1.0)])
    with pytest.raises(UsageError, match="not a frame time"):
        session.advance(frame=(50_000, image))


def test_query_csv(tmp_path):
    path = tmp_path / "queries.csv"
    path.write_text("id,t_us,x,y\n0,0,10.5,20.25\n3,1000,5,6\n")
    rows = load_queries_csv(str(path))
    assert rows == [(0, 0, 10.5, 20.25), (3, 1000, 5.0, 6.0)]
    empty = tmp_path / "empty.csv"
    empty.write_text("id,t_us,x,y\n")
    with pytest.raises(UsageError):
        load_queries_csv(str(empty))
