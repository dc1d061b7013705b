"""Policy bundles: serialisation, default loading, caching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policy import (
    PolicyBundle,
    clear_policy_cache,
    default_policy_path,
    load_default_policy,
    new_actor,
)
from repro.errors import ModelError


class _FixedActor:
    """Stands in for the MLP: ``infer`` returns one preset output."""

    def __init__(self, value):
        self.out = np.array([[value]])

    def infer(self, local_state):
        return self.out


class TestBundleRoundtrip:
    def test_save_load(self, tmp_path):
        actor = new_actor(seed=3)
        bundle = PolicyBundle(actor=actor, metadata={"note": "test"})
        path = bundle.save(tmp_path / "b.npz")
        loaded = PolicyBundle.load(path)
        x = np.random.default_rng(0).normal(size=(4, actor.in_dim))
        assert np.allclose(actor.forward(x), loaded.actor.forward(x))
        assert loaded.history == bundle.history
        assert loaded.alpha == bundle.alpha
        assert loaded.metadata == {"note": "test"}

    def test_act_returns_clipped_scalar(self, tmp_path):
        bundle = PolicyBundle(actor=new_actor(seed=0))
        a = bundle.act(np.zeros(bundle.actor.in_dim))
        assert -1.0 < a < 1.0

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.5, 0.999, -0.999, 0.9995,
        -0.9995, 1e300, -1e300, float("inf"), float("-inf"), float("nan")])
    def test_act_clip_bit_identical_to_numpy(self, value):
        bundle = PolicyBundle(actor=_FixedActor(value))
        old = float(np.clip(bundle.actor.out[0, 0], -0.999, 0.999))
        new = bundle.act(np.zeros(40))
        assert type(new) is float
        assert np.float64(new).tobytes() == np.float64(old).tobytes()

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ModelError):
            PolicyBundle.load(tmp_path / "nope.npz")


class TestDefaults:
    def test_default_paths(self):
        assert default_policy_path("astraea").name == \
            "astraea_pretrained.npz"
        with pytest.raises(ModelError):
            default_policy_path("carrier-pigeon")

    def test_loader_caches(self):
        clear_policy_cache()
        first = load_default_policy("astraea")
        second = load_default_policy("astraea")
        assert first is second
        clear_policy_cache()

    def test_orca_default_may_be_absent(self):
        clear_policy_cache()
        bundle = load_default_policy("orca")
        assert bundle is None or bundle.scheme == "orca"
        clear_policy_cache()


class TestNewActor:
    def test_shape_matches_paper(self):
        actor = new_actor()
        assert actor.in_dim == 40      # 8 features x w=5
        assert actor.out_dim == 1
        hidden = tuple(l.W.shape[1] for l in actor.layers[:-1])
        assert hidden == (256, 128, 64)
        assert actor.output == "tanh"
