from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dbmmd.errors import ParameterError
from dbmmd.synthetic import CENTER_RADIUS, SyntheticRecipe, generate_synthetic


class TestRecipe:
    def test_roundtrip_dict(self):
        recipe = SyntheticRecipe(shift="translation", shift_param=(1.0, -2.0))
        assert SyntheticRecipe.from_dict(recipe.to_dict()) == recipe

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            SyntheticRecipe.from_dict({"class_count": 2, "flavor": "spicy"})

    def test_from_dict_reads_an_array_shift_param_as_floats(self):
        recipe = SyntheticRecipe.from_dict({"shift": "translation", "shift_param": [1, -2]})
        assert recipe.shift_param == (1.0, -2.0)
        assert all(type(v) is float for v in recipe.shift_param)
        assert recipe.to_dict()["shift_param"] == [1.0, -2.0]

    @pytest.mark.parametrize("d, key", [
        ({"shift_param": [1.0, "x"]}, "shift_param"),
        ({"shift_param": True}, "shift_param"),
        ({"seed": 7.5}, "seed"),
        ({"shift": None}, "shift"),
    ])
    def test_from_dict_rejects_a_value_of_another_type(self, d, key):
        with pytest.raises(ParameterError, match=f"recipe.{key} must be"):
            SyntheticRecipe.from_dict(d)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"class_count": 0},
            {"samples_per_class": 0},
            {"feature_dim": 0},
            {"shift": "teleport"},
            {"noise_sigma": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            SyntheticRecipe(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"class_count": 2.5}, {"samples_per_class": float("nan")}, {"feature_dim": "2"},
        {"seed": 7.5}, {"class_count": True},
    ])
    def test_non_integer_int_field_rejected(self, kwargs):
        (key,) = kwargs
        with pytest.raises(ParameterError, match=rf"^{key} must be int"):
            SyntheticRecipe(**kwargs)

    def test_integral_floats_generate_as_ints(self):
        floats = SyntheticRecipe(class_count=2.0, samples_per_class=4.0, feature_dim=3.0,
                                 seed=np.int64(5))
        assert all(type(getattr(floats, f)) is int
                   for f in ("class_count", "samples_per_class", "feature_dim", "seed"))
        want = generate_synthetic(SyntheticRecipe(class_count=2, samples_per_class=4,
                                                  feature_dim=3, seed=5))
        got = generate_synthetic(floats)
        assert np.array_equal(got.pair.source.features, want.pair.source.features)
        assert np.array_equal(got.pair.target.features, want.pair.target.features)


class TestGenerate:
    def test_deterministic_replay(self):
        recipe = SyntheticRecipe(seed=99)
        a = generate_synthetic(recipe)
        b = generate_synthetic(recipe)
        assert np.array_equal(a.pair.source.features, b.pair.source.features)
        assert np.array_equal(a.pair.target.features, b.pair.target.features)
        assert np.array_equal(a.target_truth, b.target_truth)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticRecipe(seed=1))
        b = generate_synthetic(SyntheticRecipe(seed=2))
        assert not np.array_equal(a.pair.source.features, b.pair.source.features)

    def test_shapes_and_labels(self):
        recipe = SyntheticRecipe(class_count=4, samples_per_class=6, feature_dim=3)
        ds = generate_synthetic(recipe)
        assert ds.pair.source.features.shape == (3, 24)
        assert ds.pair.target.features.shape == (3, 24)
        assert np.array_equal(ds.pair.source.labels, np.repeat(np.arange(4), 6))
        assert np.array_equal(ds.target_truth, ds.pair.source.labels)
        assert ds.pair.target.pseudo_labels is None

    def test_truth_is_frozen(self):
        ds = generate_synthetic(SyntheticRecipe())
        with pytest.raises(ValueError):
            ds.target_truth[0] = 9

    def test_zero_noise_rotation_is_exact(self):
        # with no noise every sample sits on its class center, so the target
        # is exactly the rotated source, column for column
        recipe = SyntheticRecipe(
            class_count=3, samples_per_class=4, feature_dim=2,
            shift="rotation", shift_param=90.0, noise_sigma=0.0, seed=3,
        )
        ds = generate_synthetic(recipe)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert_allclose(ds.pair.target.features, rot @ ds.pair.source.features, atol=1e-12)

    def test_zero_noise_centers_on_circle(self):
        recipe = SyntheticRecipe(
            class_count=5, samples_per_class=1, feature_dim=2,
            shift="rotation", shift_param=0.0, noise_sigma=0.0, seed=8,
        )
        ds = generate_synthetic(recipe)
        radii = np.linalg.norm(ds.pair.source.features, axis=0)
        assert_allclose(radii, np.full(5, CENTER_RADIUS), atol=1e-12)

    def test_translation_offsets_every_point(self):
        recipe = SyntheticRecipe(
            class_count=2, samples_per_class=3, feature_dim=2,
            shift="translation", shift_param=(1.5, -0.5), noise_sigma=0.0, seed=4,
        )
        ds = generate_synthetic(recipe)
        offset = np.array([[1.5], [-0.5]])
        assert_allclose(ds.pair.target.features, ds.pair.source.features + offset, atol=1e-12)

    def test_translation_scalar_broadcasts(self):
        recipe = SyntheticRecipe(
            class_count=2, samples_per_class=3, feature_dim=3,
            shift="translation", shift_param=2.0, noise_sigma=0.0, seed=4,
        )
        ds = generate_synthetic(recipe)
        assert_allclose(ds.pair.target.features, ds.pair.source.features + 2.0, atol=1e-12)

    def test_translation_vector_length_checked(self):
        recipe = SyntheticRecipe(
            class_count=2, samples_per_class=3, feature_dim=3,
            shift="translation", shift_param=(1.0, 2.0),
        )
        with pytest.raises(ParameterError):
            generate_synthetic(recipe)

    def test_cov_scale_spreads_around_centers(self):
        recipe = SyntheticRecipe(
            class_count=2, samples_per_class=200, feature_dim=2,
            shift="cov_scale", shift_param=3.0, noise_sigma=0.5, seed=6,
        )
        ds = generate_synthetic(recipe)
        src_spread = []
        tgt_spread = []
        for c in range(2):
            idx = ds.pair.source.labels == c
            s = ds.pair.source.features[:, idx]
            t = ds.pair.target.features[:, ds.target_truth == c]
            src_spread.append(np.mean(np.var(s, axis=1)))
            tgt_spread.append(np.mean(np.var(t, axis=1)))
        ratio = np.mean(tgt_spread) / np.mean(src_spread)
        assert 7.0 < ratio < 11.0  # variance scales with the square, 9 +- sampling noise

    def test_rotation_needs_two_dims(self):
        recipe = SyntheticRecipe(class_count=2, feature_dim=1, shift="rotation")
        with pytest.raises(ParameterError):
            generate_synthetic(recipe)

    def test_single_class_pair_constructible(self):
        ds = generate_synthetic(SyntheticRecipe(class_count=1, samples_per_class=5))
        assert ds.pair.class_count == 1
