import numpy as np
import pytest

from evtrack.autodiff import ParamStore, Tensor, backward
from evtrack.encoders import FpnEncoder, MotionGatedFusion, mean_flow
from evtrack.errors import ConfigError
from util_fixtures import tiny_tracker_config


def make_encoder(channels=32, downsample=4, in_channels=1, seed=0, scale=1.0):
    store = ParamStore()
    cfg = tiny_tracker_config(channels=channels, downsample=downsample)
    enc = FpnEncoder(store, "enc", cfg, in_channels, np.random.default_rng(seed), input_scale=scale)
    return enc, store


def test_output_geometry_matches_hand_arithmetic():
    enc, _ = make_encoder(channels=128, in_channels=3)
    img = Tensor(np.random.default_rng(0).random((3, 180, 240)).astype(np.float32))
    out = enc(img)
    assert out.shape == (128, 45, 60)


def test_output_geometry_downsample8():
    enc, _ = make_encoder(channels=64, downsample=8)
    out = enc(Tensor(np.zeros((1, 180, 240), dtype=np.float32)))
    assert out.shape == (64, 23, 30)


def test_event_encoder_geometry():
    enc, _ = make_encoder(channels=128, in_channels=10)
    stack = Tensor(np.zeros((10, 180, 240), dtype=np.float32))
    assert enc(stack).shape == (128, 45, 60)


def test_determinism_and_zero_input():
    enc, store = make_encoder()
    rng = np.random.default_rng(3)
    img = Tensor(rng.random((1, 64, 64)).astype(np.float32))
    a = enc(img).data
    b = enc(img).data
    assert np.array_equal(a, b)

    # zero weights propagate only biases: constant output map
    for name, p in store.items():
        p.data[...] = 0.0
    out = enc(Tensor(rng.random((1, 64, 64)).astype(np.float32))).data
    assert np.allclose(out, out[:, :1, :1])


def test_weight_independence_between_encoders():
    store = ParamStore()
    cfg = tiny_tracker_config(channels=32)
    rng = np.random.default_rng(0)
    frame_enc = FpnEncoder(store, "frame", cfg, 1, rng)
    event_enc = FpnEncoder(store, "event", cfg, 10, rng)
    stack = Tensor(np.random.default_rng(1).random((10, 32, 32)).astype(np.float32))
    before = event_enc(stack).data.copy()
    frame_enc.stem.weight.data += 10.0
    after = event_enc(stack).data
    assert np.array_equal(before, after)


def test_encoder_input_validation():
    enc, _ = make_encoder(in_channels=3)
    with pytest.raises(ConfigError):
        enc(Tensor(np.zeros((1, 32, 32), dtype=np.float32)))
    with pytest.raises(ConfigError):
        enc(Tensor(np.zeros((3, 2, 2), dtype=np.float32)))


def test_batched_equals_single():
    enc, _ = make_encoder()
    rng = np.random.default_rng(5)
    imgs = rng.random((3, 1, 32, 32)).astype(np.float32)
    batched = enc(Tensor(imgs)).data
    for i in range(3):
        single = enc(Tensor(imgs[i])).data
        assert np.allclose(batched[i], single, atol=1e-5)


class TestFusion:
    def setup_method(self):
        self.store = ParamStore()
        self.fusion = MotionGatedFusion(self.store, "fus", 16, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        self.f_i = Tensor(rng.random((16, 8, 8)).astype(np.float32))
        self.f_e = Tensor(rng.random((16, 8, 8)).astype(np.float32))

    def test_zero_init_gate_is_half(self):
        for dp in (0.0, 3.0, 100.0):
            assert self.fusion.gate_value(dp).data[0] == np.float32(0.5)

    def test_gate_saturation(self):
        self.fusion.gate.weight.data[...] = 1.0
        beta = self.fusion.gate_value(10.0).data[0]
        assert abs(beta - 0.99995) < 1e-4

    def test_gate_monotone_in_flow(self):
        self.fusion.gate.weight.data[...] = 0.7
        values = [self.fusion.gate_value(dp).data[0] for dp in (0.0, 1.0, 5.0, 20.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_output_shape_and_mismatch(self):
        out, (f_i, skip) = self.fusion(self.f_i, self.f_e, 0.0)
        assert out.shape == f_i.shape == skip.shape == (16, 8, 8)
        with pytest.raises(ConfigError):
            self.fusion(self.f_i, Tensor(np.zeros((16, 4, 4), dtype=np.float32)), 0.0)

    def test_events_only_ignores_frames(self):
        base, branch = self.fusion(self.f_i, self.f_e, 0.0, use_frames=False)
        other, _ = self.fusion(self.f_i + 5.0, self.f_e, 0.0, use_frames=False)
        assert np.array_equal(base.data, other.data)
        assert branch is None

    def test_reused_branch_is_bit_identical(self):
        other_e = Tensor(np.random.default_rng(2).random((16, 8, 8)).astype(np.float32))
        _, branch = self.fusion(self.f_i, other_e, 1.5)
        reused, same = self.fusion(self.f_i, self.f_e, 0.0, branch)
        fresh, _ = self.fusion(self.f_i, self.f_e, 0.0)
        assert same is branch
        assert np.array_equal(reused.data, fresh.data)

    def test_shared_branch_gradients_match_recomputed(self):
        """Two slices of one frame: sharing the image branch back-propagates
        through it once with summed gradients, as recomputing it would."""
        rng = np.random.default_rng(3)
        f_es = [Tensor(rng.random((16, 8, 8)).astype(np.float32)) for _ in range(2)]
        weights = [rng.standard_normal((16, 8, 8)).astype(np.float32) for _ in range(2)]
        conv_w = self.fusion.conv_image.weight

        def grads(share):
            f_i = Tensor(self.f_i.data, requires_grad=True)
            self.store.zero_grad()
            branch, loss = None, None
            for f_e, w, dp in zip(f_es, weights, (0.0, 2.0)):
                out, got = self.fusion(f_i, f_e, dp, branch)
                branch = got if share else None
                term = (out * Tensor(w)).sum()
                loss = term if loss is None else loss + term
            backward(loss)
            return f_i.grad, conv_w.grad.copy()

        for shared, recomputed in zip(grads(True), grads(False)):
            rel = np.linalg.norm(shared - recomputed) / np.linalg.norm(recomputed)
            assert rel < 1e-6


def test_mean_flow_cases():
    assert mean_flow(None, None) == 0.0
    prev1 = np.array([[3.0, 4.0], [0.0, 0.0]])
    prev2 = np.zeros((2, 2))
    assert mean_flow(prev1, prev2) == pytest.approx(2.5)
    active = np.array([True, False])
    assert mean_flow(prev1, prev2, active) == pytest.approx(5.0)
    assert mean_flow(prev1, prev1) == 0.0
