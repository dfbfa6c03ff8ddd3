from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dbmmd
from dbmmd.datamodel import (
    AdaptConfig,
    DomainPair,
    IterationRecord,
    LabeledDomain,
    UnlabeledDomain,
    make_pair,
    remap_labels,
)
from dbmmd.errors import DimensionError, ParameterError
from dbmmd.mmd import group_index


def small_pair(n_s=6, n_t=5, dim=2, class_count=3, seed=0):
    rng = np.random.default_rng(seed)
    src = LabeledDomain(
        rng.normal(size=(dim, n_s)), np.arange(n_s) % class_count, name="source"
    )
    tgt = UnlabeledDomain(rng.normal(size=(dim, n_t)), name="target")
    return make_pair(src, tgt)


class TestRemapLabels:
    def test_noncontiguous_values(self):
        dense, values = remap_labels(np.array([9, 3, 7, 3, 9]))
        assert np.array_equal(dense, [2, 0, 1, 0, 2])
        assert values == (3, 7, 9)

    def test_already_dense(self):
        dense, values = remap_labels(np.array([0, 1, 2, 1]))
        assert np.array_equal(dense, [0, 1, 2, 1])
        assert values == (0, 1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            remap_labels(np.array([], dtype=int))

    def test_fractional_rejected(self):
        with pytest.raises(ParameterError):
            remap_labels(np.array([0.5, 1.0]))

    @pytest.mark.parametrize("big", [np.inf, -np.inf, 1e30, 2.0**63])
    def test_float_outside_int64_rejected(self, big):
        # a cast would turn each of these into INT64_MIN
        with pytest.raises(ParameterError, match="outside the int64 range"):
            remap_labels(np.array([0.0, big, 1.0]))

    def test_int64_bounds_as_floats(self):
        dense, values = remap_labels(np.array([0.0, -2.0**63, 3.0]))
        assert np.array_equal(dense, [1, 0, 2])
        assert values == (-2**63, 0, 3)


class TestDomains:
    def test_features_immutable(self):
        dom = LabeledDomain(np.zeros((2, 3)), np.array([0, 1, 0]), name="source")
        with pytest.raises(ValueError):
            dom.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            dom.labels[0] = 5

    def test_defensive_copy(self):
        x = np.zeros((2, 3))
        dom = UnlabeledDomain(x, name="target")
        x[0, 0] = 99.0
        assert dom.features[0, 0] == 0.0

    def test_unlabeled_pseudo_optional(self):
        dom = UnlabeledDomain(np.zeros((2, 3)), name="target")
        assert dom.pseudo_labels is None
        dom2 = UnlabeledDomain(np.zeros((2, 3)), pseudo_labels=np.array([0, 0, 1]), name="target")
        assert np.array_equal(dom2.pseudo_labels, [0, 0, 1])

    def test_label_count_mismatch(self):
        with pytest.raises(DimensionError):
            LabeledDomain(np.zeros((2, 3)), np.array([0, 1]), name="source")

    @pytest.mark.parametrize("big", [np.inf, 1e30])
    def test_float_labels_outside_int64_rejected(self, big):
        # not reported as negative, which is what their int64 cast would be
        with pytest.raises(ParameterError, match="labels outside the int64 range"):
            LabeledDomain(np.zeros((2, 3)), np.array([0.0, big, 1.0]), name="source")
        with pytest.raises(ParameterError, match="pseudo-labels outside the int64 range"):
            UnlabeledDomain(np.zeros((2, 3)), pseudo_labels=np.array([0.0, big, 1.0]))

    def test_unsigned_labels_outside_int64_rejected(self):
        big = np.array([0, 2**63], dtype=np.uint64)
        with pytest.raises(ParameterError, match="labels outside the int64 range"):
            LabeledDomain(np.zeros((1, 2)), big)
        with pytest.raises(ParameterError, match="pseudo-labels outside the int64 range"):
            UnlabeledDomain(np.zeros((1, 2)), pseudo_labels=big)
        edge = np.array([0, 2**63 - 1], dtype=np.uint64)
        assert LabeledDomain(np.zeros((1, 2)), edge).labels.tolist() == [0, 2**63 - 1]

    def test_negative_labels_rejected(self):
        with pytest.raises(ParameterError):
            LabeledDomain(np.zeros((2, 2)), np.array([0, -1]), name="source")

    def test_non_finite_rejected(self):
        x = np.zeros((2, 3))
        x[0, 0] = np.inf
        with pytest.raises(ParameterError):
            LabeledDomain(x, np.array([0, 1, 0]), name="source")

    def test_empty_domain_rejected(self):
        with pytest.raises(ParameterError):
            UnlabeledDomain(np.zeros((2, 0)), name="target")


class TestDomainPair:
    def test_dims_and_counts(self):
        pair = small_pair(n_s=6, n_t=5, dim=2, class_count=3)
        assert pair.source.dim == 2
        assert pair.n_source == 6
        assert pair.n_target == 5
        assert pair.n_total == 11
        assert pair.class_count == 3

    def test_class_count_inferred_from_source(self):
        src = LabeledDomain(np.zeros((2, 4)), np.array([0, 1, 1, 0]), name="source")
        tgt = UnlabeledDomain(np.zeros((2, 3)), name="target")
        assert make_pair(src, tgt).class_count == 2

    def test_single_class_rejected_by_factory(self):
        src = LabeledDomain(np.zeros((2, 4)), np.zeros(4, dtype=int), name="source")
        tgt = UnlabeledDomain(np.zeros((2, 3)), name="target")
        with pytest.raises(ParameterError):
            make_pair(src, tgt)

    def test_single_class_direct_construction_allowed(self):
        # degenerate pairs stay constructible for the marginal == conditional check
        src = LabeledDomain(np.zeros((2, 4)), np.zeros(4, dtype=int), name="source")
        tgt = UnlabeledDomain(np.zeros((2, 3)), pseudo_labels=np.zeros(3, dtype=int), name="target")
        pair = DomainPair(src, tgt, class_count=1)
        assert pair.class_count == 1

    def test_dim_mismatch(self):
        src = LabeledDomain(np.zeros((2, 4)), np.array([0, 1, 0, 1]), name="source")
        tgt = UnlabeledDomain(np.zeros((3, 4)), name="target")
        with pytest.raises(DimensionError):
            make_pair(src, tgt)

    def test_missing_source_class_rejected(self):
        # labels {0, 2} leave class 1 with no source mass
        src = LabeledDomain(np.zeros((2, 4)), np.array([0, 2, 0, 2]), name="source")
        tgt = UnlabeledDomain(np.zeros((2, 3)), name="target")
        with pytest.raises(ParameterError):
            make_pair(src, tgt)

    def test_pseudo_label_range_checked(self):
        pair = small_pair(class_count=3)
        with pytest.raises(ParameterError):
            pair.with_pseudo_labels(np.full(pair.n_target, 3))

    def test_with_pseudo_labels_returns_new_pair(self):
        pair = small_pair()
        pseudo = np.zeros(pair.n_target, dtype=int)
        updated = pair.with_pseudo_labels(pseudo)
        assert pair.target.pseudo_labels is None
        assert np.array_equal(updated.target.pseudo_labels, pseudo)
        assert updated.source is pair.source

    def test_class_counts(self):
        pair = small_pair(n_s=6, class_count=3)
        updated = pair.with_pseudo_labels(np.array([0, 0, 0, 2, 2]))
        counts = np.bincount(group_index(updated), minlength=6)
        assert np.array_equal(counts, [2, 2, 2, 3, 0, 2])

    def test_packed_features_order(self):
        pair = small_pair(n_s=3, n_t=2)
        packed = pair.packed_features()
        assert packed.shape == (2, 5)
        assert np.array_equal(packed[:, :3], pair.source.features)
        assert np.array_equal(packed[:, 3:], pair.target.features)
        assert packed.flags.writeable  # packed copies are caller-owned


class TestAdaptConfig:
    def test_defaults(self):
        cfg = AdaptConfig()
        assert cfg.k == 100
        assert cfg.lam == 1.0
        assert cfg.mu == 0.01
        assert cfg.max_iter == 10
        assert cfg.kernel == "primal"
        assert cfg.sigma is None
        assert cfg.meda_alpha == 10.0
        assert cfg.meda_rho == 0.1
        assert cfg.meda_eta == 1.0

    def test_roundtrip_dict(self):
        cfg = AdaptConfig(k=5, kernel="rbf", sigma=2.0)
        assert AdaptConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            AdaptConfig.from_dict({"k": 3, "bogus": 1})

    def test_replace(self):
        cfg = AdaptConfig().replace(k=7)
        assert cfg.k == 7
        assert cfg.lam == AdaptConfig().lam

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"lam": -1.0},
            {"lam": 0.0},
            {"mu": 0.0},
            {"max_iter": 0},
            {"kernel": "quantum"},
            {"sigma": 0.0},
            {"sigma": -1.0},
            {"sigma": float("nan")},
            {"degree": 0},
            {"neighborhood_p": -1},
            {"meda_eta": 0.0},
            {"meda_alpha": -2.0},
            {"meda_alpha": float("nan")},
            {"meda_rho": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            AdaptConfig(**kwargs)

    @pytest.mark.parametrize("d, field, expected", [
        ({"k": 2.0}, "k", 2),
        ({"lam": 1}, "lam", 1),
        ({"lam": 0.5}, "lam", 0.5),
        ({"sigma": None}, "sigma", None),
        ({"sigma": 3}, "sigma", 3),
        ({"kernel": "rbf"}, "kernel", "rbf"),
    ])
    def test_from_dict_types_by_field(self, d, field, expected):
        value = getattr(AdaptConfig.from_dict(d), field)
        assert value == expected and type(value) is type(expected)

    @pytest.mark.parametrize("d", [
        {"k": 2.5}, {"k": True}, {"k": "2"}, {"k": float("inf")}, {"max_iter": None},
        {"lam": True}, {"lam": "1"}, {"sigma": "median"}, {"sigma": [1.0]}, {"kernel": 3},
    ])
    def test_from_dict_rejects_a_value_of_another_type(self, d):
        (key,) = d
        with pytest.raises(ParameterError, match=rf"config\.{key} must be"):
            AdaptConfig.from_dict(d)

    @pytest.mark.parametrize("field", ["k", "max_iter", "degree", "neighborhood_p"])
    def test_integral_float_is_held_as_int(self, field):
        value = getattr(AdaptConfig(**{field: 2.0}), field)
        assert value == 2 and type(value) is int
        value = getattr(AdaptConfig(**{field: np.int64(3)}), field)
        assert value == 3 and type(value) is int

    @pytest.mark.parametrize("kwargs", [
        {"k": 2.5}, {"k": float("nan")}, {"max_iter": float("inf")}, {"max_iter": True},
        {"degree": "2"}, {"degree": None}, {"neighborhood_p": 0.5},
    ])
    def test_non_integer_int_field_rejected(self, kwargs):
        (key,) = kwargs
        with pytest.raises(ParameterError, match=rf"^{key} must be int"):
            AdaptConfig(**kwargs)

    @pytest.mark.parametrize("key", ["lam", "mu", "meda_alpha", "meda_rho", "meda_eta"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_hyper_parameter_rejected(self, key, value):
        with pytest.raises(ParameterError, match=rf"^{key} must be finite"):
            AdaptConfig(**{key: value})

    def test_infinity_in_a_json_config_rejected(self):
        # Python's json reads Infinity as a float
        d = json.loads('{"lam": Infinity}')
        with pytest.raises(ParameterError, match="^lam must be finite"):
            AdaptConfig.from_dict(d)

    def test_fixed_sigma_inf_allowed(self):
        # exp(-d^2 / inf) == 1 exactly, which is how W == 1 graphs are forced
        cfg = AdaptConfig(sigma=float("inf"))
        assert cfg.sigma == float("inf")


def test_every_config_field_is_read_by_the_engine():
    # a field only the config itself and the CLI flag list read is a dead knob
    src = Path(dbmmd.__file__).parent
    text = "\n".join(p.read_text() for p in sorted(src.glob("*.py"))
                     if p.name not in ("datamodel.py", "cli.py"))
    unread = [f.name for f in dataclasses.fields(AdaptConfig)
              if not re.search(rf"\b(cfg|config)\.{f.name}\b", text)]
    assert unread == []


def test_every_exported_name_resolves():
    assert len(set(dbmmd.__all__)) == len(dbmmd.__all__)
    for name in dbmmd.__all__:
        assert getattr(dbmmd, name) is not None, name


class TestIterationRecord:
    def test_accuracy_range(self):
        with pytest.raises(ParameterError):
            IterationRecord(
                iteration=1,
                churn=0,
                objective=0.0,
                eigenvalues=(),
                pseudo_labels=np.zeros(2, dtype=int),
                accuracy=1.5,
            )

    def test_accuracy_optional(self):
        rec = IterationRecord(
            iteration=1,
            churn=2,
            objective=1.0,
            eigenvalues=(0.5,),
            pseudo_labels=np.zeros(2, dtype=int),
            accuracy=None,
        )
        assert rec.accuracy is None
        assert not rec.pseudo_labels.flags.writeable


@given(
    n_s=st.integers(2, 12),
    n_t=st.integers(1, 12),
    class_count=st.integers(2, 4),
    seed=st.integers(0, 999),
)
@settings(max_examples=40, deadline=None)
def test_pair_invariants(n_s, n_t, class_count, seed):
    if n_s < class_count:
        n_s = class_count
    rng = np.random.default_rng(seed)
    ys = np.concatenate([np.arange(class_count), rng.integers(0, class_count, n_s - class_count)])
    src = LabeledDomain(rng.normal(size=(3, n_s)), ys, name="source")
    tgt = UnlabeledDomain(rng.normal(size=(3, n_t)), name="target")
    pair = make_pair(src, tgt).with_pseudo_labels(rng.integers(0, class_count, n_t))
    counts = np.bincount(group_index(pair), minlength=2 * class_count)
    assert pair.n_total == n_s + n_t
    assert counts[:class_count].sum() == n_s
    assert counts[:class_count].min() >= 1
    assert counts[class_count:].sum() == n_t
    assert pair.packed_features().shape == (3, n_s + n_t)


def test_readme_counts_the_exported_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"top level exports {len(dbmmd.__all__)} names" in readme
