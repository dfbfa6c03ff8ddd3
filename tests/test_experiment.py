from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dbmmd import experiment as experiment_module
from dbmmd import linalg
from dbmmd.adapt import ModelKind, run_adaptation
from dbmmd.datamodel import AdaptConfig, LabeledDomain, UnlabeledDomain, make_pair
from dbmmd.errors import BandwidthError, FormatError, ParameterError
from dbmmd.experiment import (
    DatasetSpec,
    ExperimentSpec,
    render_summary_csv,
    rerender_summary,
    run_experiment,
    write_synthetic_files,
)
from dbmmd.io import save_features
from dbmmd.operands import InputOperands
from dbmmd.synthetic import SyntheticRecipe, generate_synthetic

FAST_RECIPE = SyntheticRecipe(
    class_count=2,
    samples_per_class=12,
    feature_dim=2,
    shift="rotation",
    shift_param=20.0,
    noise_sigma=0.5,
    seed=3,
)

FAST_CONFIG = AdaptConfig(k=2, lam=1.0, max_iter=4)


def fast_spec(tmp_path, **kw):
    args = dict(
        models=("JDA", "JDA+CG"),
        config=FAST_CONFIG,
        output_dir=str(tmp_path / "out"),
        dataset=DatasetSpec(synthetic=FAST_RECIPE),
    )
    args.update(kw)
    return ExperimentSpec(**args)


# experiment.json of fast_spec on a file dataset, as written before every
# dataset key was: no null target_labels, and config ahead of output_dir.
OLDER_EXPERIMENT_JSON = """{
  "models": [
    "JDA",
    "JDA+CG"
  ],
  "dataset": {
    "source": "data/source.csv",
    "target": "data/target_labels.csv"
  },
  "config": {
    "k": 2,
    "lam": 1.0,
    "mu": 0.01,
    "max_iter": 4,
    "kernel": "primal",
    "sigma": null,
    "degree": 2,
    "neighborhood_p": 5,
    "meda_alpha": 10.0,
    "meda_rho": 0.1,
    "meda_eta": 1.0
  },
  "output_dir": "out",
  "repeat": 1,
  "data_format": null,
  "dump_embeddings": false
}
"""


class TestSpecValidation:
    def test_needs_models(self, tmp_path):
        with pytest.raises(ParameterError):
            fast_spec(tmp_path, models=())

    def test_model_names_checked_up_front(self, tmp_path):
        with pytest.raises(Exception):
            fast_spec(tmp_path, models=("JDA", "MEDA+DB"))

    def test_needs_exactly_one_dataset(self):
        with pytest.raises(ParameterError, match="dataset missing"):
            DatasetSpec()
        with pytest.raises(ParameterError, match="over-specified"):
            DatasetSpec(synthetic=FAST_RECIPE, source="s.csv", target="t.csv")

    def test_file_dataset_needs_both_paths(self):
        with pytest.raises(ParameterError, match="needs both"):
            DatasetSpec(source="s.csv")

    def test_repeat_positive(self, tmp_path):
        with pytest.raises(ParameterError):
            fast_spec(tmp_path, repeat=0)
        with pytest.raises(ParameterError, match="repeat must be int"):
            fast_spec(tmp_path, repeat=True)

    def test_models_are_held_by_their_canonical_names(self, tmp_path):
        spec = fast_spec(tmp_path, models=("JDA+none", " CDDA+DB"))
        assert spec.models == ("JDA", "CDDA+DB")

    @pytest.mark.parametrize("models", [["JDA", "JDA"], ["JDA", "JDA+none"],
                                        ["CDDA+DB", "JDA", " CDDA+DB"]])
    def test_a_model_named_twice_is_refused(self, tmp_path, models):
        # run twice, its second cell would overwrite the first's report
        spec = {**fast_spec(tmp_path).to_dict(), "models": models}
        with pytest.raises(ParameterError, match=r"models name (JDA|CDDA\+DB) twice"):
            ExperimentSpec.from_dict(spec)

    @pytest.mark.parametrize("dataset", [
        {"synthetic": FAST_RECIPE.to_dict()}, {"source": "s.csv", "target": "t.csv"},
    ])
    def test_an_unknown_data_format_is_refused_with_the_spec(self, tmp_path, dataset):
        spec = {**fast_spec(tmp_path).to_dict(), "dataset": dataset, "data_format": "xml"}
        with pytest.raises(ParameterError, match="data_format must be one of"):
            ExperimentSpec.from_dict(spec)

    def test_from_dict_roundtrip(self, tmp_path):
        spec = fast_spec(tmp_path, repeat=2)
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_unknown_key(self):
        with pytest.raises(ParameterError):
            ExperimentSpec.from_dict(
                {"models": ["JDA"], "output_dir": "o", "dataset": {}, "gpu": True}
            )

    def test_from_dict_rejects_synthetic_with_file_paths(self, tmp_path):
        spec = fast_spec(tmp_path).to_dict()
        spec["dataset"].update(source="s.csv", target="t.csv")
        with pytest.raises(ParameterError, match="over-specified"):
            ExperimentSpec.from_dict(spec)

    def test_from_dict_rejects_unknown_dataset_key(self, tmp_path):
        spec = fast_spec(tmp_path).to_dict()
        spec["dataset"]["sorce"] = "s.csv"
        with pytest.raises(ParameterError, match="unknown dataset keys"):
            ExperimentSpec.from_dict(spec)

    @pytest.mark.parametrize("repeat", [2.7, "2", True, None])
    def test_from_dict_rejects_non_integral_repeat(self, tmp_path, repeat):
        spec = {**fast_spec(tmp_path).to_dict(), "repeat": repeat}
        with pytest.raises(ParameterError, match="repeat"):
            ExperimentSpec.from_dict(spec)

    @pytest.mark.parametrize("key, value", [
        ("dataset", ["source"]), ("dataset", "synthetic"), ("config", []),
        ("config", None), ("config", "k=2"),
    ])
    def test_from_dict_rejects_non_object_dataset_or_config(self, tmp_path, key, value):
        spec = {**fast_spec(tmp_path).to_dict(), key: value}
        with pytest.raises(ParameterError, match=f"{key} must be a JSON object"):
            ExperimentSpec.from_dict(spec)

    @pytest.mark.parametrize("value", [[], ["seed"], 3])
    def test_from_dict_rejects_a_non_object_recipe(self, tmp_path, value):
        spec = fast_spec(tmp_path).to_dict()
        spec["dataset"]["synthetic"] = value
        with pytest.raises(ParameterError, match="dataset.synthetic must be a JSON object"):
            ExperimentSpec.from_dict(spec)

    def test_from_dict_rejects_a_non_object_spec(self):
        with pytest.raises(ParameterError, match="spec must be a JSON object"):
            ExperimentSpec.from_dict(["models", "output_dir"])

    def test_from_dict_accepts_an_integral_float_repeat(self, tmp_path):
        spec = ExperimentSpec.from_dict({**fast_spec(tmp_path).to_dict(), "repeat": 2.0})
        assert spec.repeat == 2 and type(spec.repeat) is int

    @pytest.mark.parametrize("dump", ["false", 0, None])
    def test_from_dict_rejects_non_bool_dump_embeddings(self, tmp_path, dump):
        spec = {**fast_spec(tmp_path).to_dict(), "dump_embeddings": dump}
        with pytest.raises(ParameterError, match="dump_embeddings"):
            ExperimentSpec.from_dict(spec)

    def test_from_dict_rejects_a_string_of_models(self, tmp_path):
        # a string is not read as its letters, the models "J", "D" and "A"
        spec = {**fast_spec(tmp_path).to_dict(), "models": "JDA"}
        with pytest.raises(ParameterError, match="models"):
            ExperimentSpec.from_dict(spec)

    def test_from_dict_rejects_a_null_output_dir(self, tmp_path):
        spec = {**fast_spec(tmp_path).to_dict(), "output_dir": None}
        with pytest.raises(ParameterError, match="output_dir"):
            ExperimentSpec.from_dict(spec)

    def test_from_json_file_errors(self, tmp_path):
        with pytest.raises(ParameterError, match="no such spec"):
            ExperimentSpec.from_json_file(tmp_path / "ghost.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ParameterError, match="malformed"):
            ExperimentSpec.from_json_file(bad)


class TestRunExperiment:
    def test_outputs_and_delta(self, tmp_path):
        spec = fast_spec(tmp_path)
        result = run_experiment(spec)
        assert result.exit_code == 0
        out = result.output_dir
        for name in ("summary.csv", "summary.md", "runs.json", "timing.csv",
                     "experiment.json"):
            assert (out / name).exists(), name
        assert (out / "reports" / "JDA_rep0.json").exists()
        assert (out / "reports" / "JDA_CG_rep0.json").exists()
        by_model = {r["model"]: r for r in result.rows}
        assert by_model["JDA"]["delta_vs_base"] is None
        expected_delta = by_model["JDA+CG"]["accuracy_mean"] - by_model["JDA"]["accuracy_mean"]
        assert by_model["JDA+CG"]["delta_vs_base"] == pytest.approx(expected_delta, abs=1e-15)

    def test_reports_record_the_kernel_rank(self, tmp_path):
        # n = 600 >= 2 l: r comes from the sketch. It goes into each cell's
        # report, and not into the run rows or the summary tables.
        recipe = dataclasses.replace(FAST_RECIPE, class_count=3, samples_per_class=100)
        config = FAST_CONFIG.replace(kernel="rbf", max_iter=1)
        result = run_experiment(fast_spec(tmp_path, models=("JDA+CG", "MEDA+CG"),
                                          config=config, dataset=DatasetSpec(synthetic=recipe)))
        assert result.exit_code == 0
        out = result.output_dir
        basis, w_r = InputOperands(generate_synthetic(recipe).pair, config).kernel_range()
        assert basis.shape[0] == 600 and 0 < w_r.size < linalg._SKETCH_COLS
        for row in json.loads((out / "runs.json").read_text()):
            assert json.loads((out / row["report"]).read_text())["kernel_rank"] == w_r.size
        for name in ("runs.json", "summary.csv", "summary.md"):
            assert "kernel_rank" not in (out / name).read_text(), name
        primal = run_adaptation(generate_synthetic(recipe).pair, FAST_CONFIG, ModelKind("JDA"))
        assert primal.to_dict()["kernel_rank"] is None

    def test_summary_is_reproducible_bytes(self, tmp_path):
        a = run_experiment(fast_spec(tmp_path, output_dir=str(tmp_path / "a")))
        b = run_experiment(fast_spec(tmp_path, output_dir=str(tmp_path / "b")))
        assert (a.output_dir / "summary.csv").read_bytes() == (
            b.output_dir / "summary.csv"
        ).read_bytes()
        assert (a.output_dir / "summary.md").read_bytes() == (
            b.output_dir / "summary.md"
        ).read_bytes()

    def test_no_wall_times_in_summary_or_runs(self, tmp_path):
        result = run_experiment(fast_spec(tmp_path))
        summary = (result.output_dir / "summary.csv").read_text()
        assert "wall" not in summary
        runs = json.loads((result.output_dir / "runs.json").read_text())
        assert all("wall_time" not in r for r in runs)
        timing = (result.output_dir / "timing.csv").read_text().strip().split("\n")
        assert timing[0] == "model,repeat,wall_time_seconds"
        assert len(timing) == 1 + len(runs)

    def test_repeats_aggregate_mean_and_range(self, tmp_path):
        spec = fast_spec(tmp_path, models=("JDA",), repeat=3)
        result = run_experiment(spec)
        accs = [r["accuracy"] for r in result.runs]
        assert len(accs) == 3
        row = result.rows[0]
        assert row["accuracy_mean"] == pytest.approx(np.mean(accs), abs=1e-15)
        assert row["accuracy_range"] == pytest.approx(max(accs) - min(accs), abs=1e-15)
        for rep in range(3):
            assert (result.output_dir / "reports" / f"JDA_rep{rep}.json").exists()

    def test_file_pair_is_loaded_once_for_all_repeats(self, tmp_path, monkeypatch):
        # the repeats of a file pair are byte-identical reruns: each file is
        # parsed once, and each repeat writes what a one-repeat run writes
        paths = write_synthetic_files(FAST_RECIPE, tmp_path / "data")
        dataset = DatasetSpec(source=str(paths["source"]), target=str(paths["target"]),
                              target_labels=str(paths["target_labels"]))
        config = FAST_CONFIG.replace(kernel="rbf")
        once = run_experiment(fast_spec(tmp_path, dataset=dataset, config=config,
                                        output_dir=str(tmp_path / "once")))
        loaded, load = [], experiment_module.load_features

        def counted(path, *args, **kwargs):
            loaded.append(Path(path).name)
            return load(path, *args, **kwargs)

        monkeypatch.setattr(experiment_module, "load_features", counted)
        result = run_experiment(fast_spec(tmp_path, dataset=dataset, config=config, repeat=3))
        assert sorted(loaded) == sorted(Path(p).name for p in paths.values())
        assert result.exit_code == once.exit_code == 0

        def without_wall_time(path):
            report = json.loads(path.read_text())
            del report["wall_time"]
            return report

        first = json.loads((once.output_dir / "runs.json").read_text())
        want = [{**row, "repeat": rep, "report": row["report"].replace("_rep0", f"_rep{rep}")}
                for rep in range(3) for row in first]
        assert json.loads((result.output_dir / "runs.json").read_text()) == want
        for row in want:
            got = without_wall_time(result.output_dir / row["report"])
            model = row["report"].replace(f"_rep{row['repeat']}", "_rep0")
            assert got == without_wall_time(once.output_dir / model)
        for row, single in zip(result.rows, once.rows):
            assert row["accuracy_range"] == 0.0
            assert row["accuracy_mean"] == np.mean([single["accuracy_mean"]] * 3)
            assert row["iterations_to_fixed_point"] == single["iterations_to_fixed_point"]

    def test_failed_cell_is_isolated(self, tmp_path):
        # MEDA on a primal config fails inside the cell; JDA still runs
        spec = fast_spec(tmp_path, models=("JDA", "MEDA"))
        result = run_experiment(spec)
        assert result.exit_code == 1
        by_model = {r["model"]: r for r in result.rows}
        assert by_model["JDA"]["status"] == "ok"
        assert by_model["MEDA"]["status"] == "failed"
        assert by_model["MEDA"]["accuracy_mean"] is None
        failed_run = [r for r in result.runs if r["model"] == "MEDA"][0]
        assert "ParameterError" in failed_run["error"]
        summary = (result.output_dir / "summary.csv").read_text()
        assert "failed" in summary

    def test_vector_shift_param_round_trips_byte_identically(self, tmp_path):
        recipe = dataclasses.replace(FAST_RECIPE, shift="translation", shift_param=[1.5, -0.5])
        run_experiment(fast_spec(tmp_path, dataset=DatasetSpec(synthetic=recipe), models=("JDA",)))
        stored = (tmp_path / "out" / "experiment.json").read_text()
        again = ExperimentSpec.from_dict(json.loads(stored)).to_dict()
        assert json.dumps(again, indent=2) + "\n" == stored

    def test_rerender_matches_original(self, tmp_path):
        result = run_experiment(fast_spec(tmp_path))
        original = (result.output_dir / "summary.csv").read_bytes()
        (result.output_dir / "summary.csv").unlink()
        again = rerender_summary(result.output_dir)
        assert again.exit_code == 0
        assert (result.output_dir / "summary.csv").read_bytes() == original

    def test_experiment_json_holds_every_field_and_dataset_key(self, tmp_path):
        spec = fast_spec(tmp_path, models=("JDA",))
        run_experiment(spec)
        stored = json.loads((tmp_path / "out" / "experiment.json").read_text())
        assert list(stored) == [f.name for f in dataclasses.fields(ExperimentSpec)]
        assert stored["dataset"] == {"synthetic": FAST_RECIPE.to_dict(), "source": None,
                                     "target": None, "target_labels": None}
        assert ExperimentSpec.from_dict(stored) == spec

    def test_rerender_reads_an_experiment_json_without_null_dataset_keys(self, tmp_path):
        paths = write_synthetic_files(FAST_RECIPE, tmp_path / "data")
        dataset = DatasetSpec(source=str(paths["source"]), target=str(paths["target_labels"]))
        result = run_experiment(fast_spec(tmp_path, dataset=dataset))
        original = (result.output_dir / "summary.csv").read_bytes()
        (result.output_dir / "summary.csv").unlink()
        (result.output_dir / "experiment.json").write_text(OLDER_EXPERIMENT_JSON)
        again = rerender_summary(result.output_dir)
        assert again.exit_code == 0
        assert (result.output_dir / "summary.csv").read_bytes() == original

    def test_rerender_rejects_non_experiment_dir(self, tmp_path):
        with pytest.raises(ParameterError):
            rerender_summary(tmp_path)

    @pytest.mark.parametrize("runs", ['"JDA"', '["JDA"]', '{"model": "JDA"}'])
    def test_rerender_rejects_runs_that_are_not_a_list_of_objects(self, tmp_path, runs):
        result = run_experiment(fast_spec(tmp_path))
        (result.output_dir / "runs.json").write_text(runs)
        with pytest.raises(ParameterError, match="not a list of run objects"):
            rerender_summary(result.output_dir)

    def test_rerender_rejects_a_run_of_an_unlisted_model(self, tmp_path):
        result = run_experiment(fast_spec(tmp_path))
        runs_path = result.output_dir / "runs.json"
        runs = json.loads(runs_path.read_text())
        runs[0]["model"] = "CDDA+DB"
        runs_path.write_text(json.dumps(runs))
        with pytest.raises(ParameterError, match=r"'CDDA\+DB', which experiment.json"):
            rerender_summary(result.output_dir)

    @pytest.mark.parametrize("key, value", [
        ("status", None),  # deleted
        ("status", "done"),
        ("accuracy", None),  # deleted
        ("accuracy", "high"),
        ("accuracy", True),
        ("fixed_point_iteration", "x"),
        ("fixed_point_iteration", 2.0),
        ("fixed_point_iteration", False),
    ])
    def test_rerender_rejects_a_run_field_that_does_not_fit(self, tmp_path, key, value):
        result = run_experiment(fast_spec(tmp_path, models=("JDA",)))
        runs_path = result.output_dir / "runs.json"
        runs = json.loads(runs_path.read_text())
        if value is None:
            del runs[0][key]
        else:
            runs[0][key] = value
        runs_path.write_text(json.dumps(runs))
        with pytest.raises(ParameterError, match=rf"runs.json: {key} of a JDA run must be"):
            rerender_summary(result.output_dir)

    def test_dump_embeddings(self, tmp_path):
        spec = fast_spec(tmp_path, models=("JDA",), dump_embeddings=True)
        result = run_experiment(spec)
        emb = result.output_dir / "embeddings" / "JDA_rep0.f64"
        assert emb.exists()
        sidecar = json.loads(emb.with_suffix(".json").read_text())
        assert sidecar["cols"] == FAST_CONFIG.k
        assert sidecar["rows"] == 2 * FAST_RECIPE.samples_per_class * 2

    def test_report_json_schema(self, tmp_path):
        result = run_experiment(fast_spec(tmp_path, models=("JDA",)))
        report = json.loads(
            (result.output_dir / "reports" / "JDA_rep0.json").read_text()
        )
        assert report["model"] == "JDA"
        assert report["config"]["k"] == FAST_CONFIG.k
        assert report["config"]["mu_alpha_tradeoff"] == pytest.approx(
            1.0 / (1.0 + FAST_CONFIG.mu)
        )
        assert report["baseline_accuracy"] is not None
        assert report["iterations"]
        first = report["iterations"][0]
        assert set(first) == {
            "iteration", "churn", "objective", "accuracy", "eigenvalues", "pseudo_labels",
        }


# A primal group and an rbf group, each sharing one set of input operands.
ZOO_GROUPS = (
    (("JDA", "JDA+CG", "CDDA+DB", "DGA-DA+DB"), AdaptConfig(k=2, lam=1.0, max_iter=3)),
    (("JDA", "JDA+CG", "MEDA", "MEDA+CG"), AdaptConfig(k=2, lam=1.0, max_iter=3, kernel="rbf")),
)


class TestSharedOperands:
    @pytest.mark.parametrize("models, config", ZOO_GROUPS)
    def test_reports_match_cells_run_alone(self, tmp_path, models, config):
        result = run_experiment(fast_spec(tmp_path, models=models, config=config, repeat=2))
        assert result.exit_code == 0
        for rep in range(2):
            ds = generate_synthetic(
                dataclasses.replace(FAST_RECIPE, seed=FAST_RECIPE.seed + rep)
            )
            for name in models:
                path = result.output_dir / "reports" / f"{name.replace('+', '_')}_rep{rep}.json"
                written = path.read_text()
                alone = run_adaptation(ds.pair, config, ModelKind.parse(name),
                                       ds.target_truth).to_dict()
                # wall time is the one field that differs between two runs
                alone["wall_time"] = json.loads(written)["wall_time"]
                assert written == json.dumps(alone) + "\n", (name, rep)


def coincident_spec(tmp_path, models, config):
    """A file dataset whose every source and target point is the same point."""
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    save_features(data / "source.csv", np.ones((2, 6)), np.array([0, 0, 0, 1, 1, 1]))
    save_features(data / "target.csv", np.ones((2, 6)))
    return ExperimentSpec(
        models=models,
        config=config,
        output_dir=str(tmp_path / f"out_{config.kernel}"),
        dataset=DatasetSpec(
            source=str(data / "source.csv"),
            target=str(data / "target.csv"),
        ),
    )


class TestCellIsolation:
    def test_coincident_points_fail_each_kernel_and_boundary_cell(self, tmp_path):
        models = ("JDA", "JDA+CG", "MEDA", "MEDA+CG")
        result = run_experiment(coincident_spec(tmp_path, models,
                                                AdaptConfig(k=1, max_iter=2, kernel="rbf")))
        assert result.exit_code == 1
        assert [r["model"] for r in result.runs] == list(models)
        for row in result.runs:
            assert row["status"] == "failed"
            assert row["error"].startswith("BandwidthError: all points coincide"), row

    def test_coincident_points_leave_plain_primal_cell_to_itself(self, tmp_path):
        # A plain primal JDA asks the shared operands for nothing but x, so
        # it never sees the boundary cells' BandwidthError. It cannot succeed
        # here (the centered scatter of coincident points is zero); its row
        # must carry exactly the error it raises when run alone.
        models = ("JDA+CG", "JDA", "CDDA+DB", "DGA-DA+DB")
        config = AdaptConfig(k=1, max_iter=2)
        spec = coincident_spec(tmp_path, models, config)
        result = run_experiment(spec)
        assert result.exit_code == 1
        by_model = {r["model"]: r for r in result.runs}
        for name in ("JDA+CG", "CDDA+DB", "DGA-DA+DB"):
            assert by_model[name]["error"].startswith("BandwidthError"), name
        pair = make_pair(LabeledDomain(np.ones((2, 6)), np.array([0, 0, 0, 1, 1, 1])),
                         UnlabeledDomain(np.ones((2, 6))))
        with pytest.raises(Exception) as alone:
            run_adaptation(pair, config, ModelKind("JDA"))
        assert not isinstance(alone.value, BandwidthError)
        assert by_model["JDA"]["error"] == f"{type(alone.value).__name__}: {alone.value}"

    def test_k_above_rank_fails_each_kernel_cell(self, tmp_path):
        # linear kernel on d=2 features has rank 2; MEDA does not use k
        models = ("JDA", "MEDA", "JDA+CG", "MEDA+CG", "CDDA+DB")
        config = AdaptConfig(k=3, lam=1.0, max_iter=3, kernel="linear")
        result = run_experiment(fast_spec(tmp_path, models=models, config=config))
        assert result.exit_code == 1
        by_model = {r["model"]: r for r in result.runs}
        for name in ("JDA", "JDA+CG", "CDDA+DB"):
            assert by_model[name]["status"] == "failed"
            assert by_model[name]["error"].startswith("ParameterError: k=3 exceeds"), name
            assert "numerical rank r=2" in by_model[name]["error"]
        for name in ("MEDA", "MEDA+CG"):
            assert by_model[name]["status"] == "ok", by_model[name]["error"]


class TestFileDatasets:
    def test_roundtrip_through_files(self, tmp_path):
        paths = write_synthetic_files(FAST_RECIPE, tmp_path / "data", fmt="csv")
        spec = ExperimentSpec(
            models=("JDA",),
            config=FAST_CONFIG,
            output_dir=str(tmp_path / "out"),
            dataset=DatasetSpec(
                source=str(paths["source"]),
                target=str(paths["target"]),
                target_labels=str(paths["target_labels"]),
            ),
        )
        result = run_experiment(spec)
        assert result.exit_code == 0
        assert result.rows[0]["accuracy_mean"] is not None
        # file datasets must agree with the in-memory synthetic run
        direct = run_experiment(fast_spec(tmp_path, models=("JDA",),
                                          output_dir=str(tmp_path / "direct")))
        assert result.rows[0]["accuracy_mean"] == direct.rows[0]["accuracy_mean"]

    def test_raw_files_work_too(self, tmp_path):
        paths = write_synthetic_files(FAST_RECIPE, tmp_path / "data", fmt="raw")
        spec = ExperimentSpec(
            models=("JDA",),
            config=FAST_CONFIG,
            output_dir=str(tmp_path / "out"),
            dataset=DatasetSpec(
                source=str(paths["source"]),
                target=str(paths["target"]),
                target_labels=str(paths["target_labels"]),
            ),
            data_format="raw",
        )
        result = run_experiment(spec)
        assert result.exit_code == 0

    def test_unlabeled_target_without_truth_scores_nothing(self, tmp_path):
        paths = write_synthetic_files(FAST_RECIPE, tmp_path / "data", fmt="csv")
        spec = ExperimentSpec(
            models=("JDA",),
            config=FAST_CONFIG,
            output_dir=str(tmp_path / "out"),
            dataset=DatasetSpec(
                source=str(paths["source"]),
                target=str(paths["target"]),
            ),
        )
        result = run_experiment(spec)
        assert result.exit_code == 0
        assert result.rows[0]["accuracy_mean"] is None
        assert result.rows[0]["status"] == "ok"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="format must be one of"):
            write_synthetic_files(FAST_RECIPE, tmp_path / "data", fmt="xml")
        assert not (tmp_path / "data").exists()

    def test_unlabeled_source_rejected(self, tmp_path):
        paths = write_synthetic_files(FAST_RECIPE, tmp_path / "data", fmt="csv")
        spec = ExperimentSpec(
            models=("JDA",),
            config=FAST_CONFIG,
            output_dir=str(tmp_path / "out"),
            dataset=DatasetSpec(
                source=str(paths["target"]),  # no labels in this file
                target=str(paths["source"]),
            ),
        )
        with pytest.raises(FormatError, match="no labels"):
            run_experiment(spec)

    def test_truth_values_must_appear_in_source(self, tmp_path):
        from dbmmd.io import save_features

        rng = np.random.default_rng(0)
        save_features(tmp_path / "s.csv", rng.normal(size=(2, 6)), np.array([3, 3, 7, 7, 3, 7]))
        save_features(tmp_path / "t.csv", rng.normal(size=(2, 4)), np.array([3, 7, 9, 3]))
        spec = ExperimentSpec(
            models=("JDA",),
            config=FAST_CONFIG,
            output_dir=str(tmp_path / "out"),
            dataset=DatasetSpec(
                source=str(tmp_path / "s.csv"),
                target=str(tmp_path / "t.csv"),
            ),
        )
        with pytest.raises(FormatError, match="never appear"):
            run_experiment(spec)

    def test_labeled_target_maps_through_source_values(self, tmp_path):
        # disk labels {3, 7} must score correctly against source using the
        # same original-value mapping
        from dbmmd.io import save_features

        rng = np.random.default_rng(1)
        src = np.hstack([rng.normal(size=(2, 8)), 10.0 + rng.normal(size=(2, 8))])
        src_labels = np.array([3] * 8 + [7] * 8)
        tgt = np.hstack([rng.normal(size=(2, 4)), 10.0 + rng.normal(size=(2, 4))])
        tgt_labels = np.array([3] * 4 + [7] * 4)
        save_features(tmp_path / "s.csv", src, src_labels)
        save_features(tmp_path / "t.csv", tgt, tgt_labels)
        spec = ExperimentSpec(
            models=("JDA",),
            config=AdaptConfig(k=2, lam=1.0, max_iter=3),
            output_dir=str(tmp_path / "out"),
            dataset=DatasetSpec(
                source=str(tmp_path / "s.csv"),
                target=str(tmp_path / "t.csv"),
            ),
        )
        result = run_experiment(spec)
        assert result.rows[0]["accuracy_mean"] == 1.0

    def test_truth_file_length_checked(self, tmp_path):
        from dbmmd.io import save_features

        rng = np.random.default_rng(2)
        save_features(tmp_path / "s.csv", rng.normal(size=(2, 6)), np.array([0, 0, 0, 1, 1, 1]))
        save_features(tmp_path / "t.csv", rng.normal(size=(2, 4)))
        save_features(tmp_path / "truth.csv", rng.normal(size=(2, 3)), np.array([0, 1, 0]))
        spec = ExperimentSpec(
            models=("JDA",),
            config=FAST_CONFIG,
            output_dir=str(tmp_path / "out"),
            dataset=DatasetSpec(
                source=str(tmp_path / "s.csv"),
                target=str(tmp_path / "t.csv"),
                target_labels=str(tmp_path / "truth.csv"),
            ),
        )
        with pytest.raises(FormatError, match="labels for"):
            run_experiment(spec)


class TestRendering:
    def test_csv_header_and_none_cells(self):
        rows = [
            {
                "model": "JDA",
                "accuracy_mean": 0.5,
                "accuracy_range": None,
                "delta_vs_base": None,
                "iterations_to_fixed_point": 2.0,
                "status": "ok",
            }
        ]
        text = render_summary_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "model,accuracy_mean,accuracy_range,delta_vs_base,"
            "iterations_to_fixed_point,status"
        )
        assert lines[1] == "JDA,0.5,,,2.0,ok"


class TestReadme:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def test_spec_examples_are_specs(self):
        # the CLI quick start's heredoc and the synthetic spec's json block
        heredoc = re.search(r"<<'EOF'\n(.*?)\nEOF\n", self.text, re.S).group(1)
        block = re.search(r"```json\n(.*?)```", self.text, re.S).group(1)
        files = ExperimentSpec.from_dict(json.loads(heredoc))
        assert files.dataset.target_labels == "data/target_labels.csv"
        synthetic = ExperimentSpec.from_dict(json.loads(block))
        assert synthetic.dataset.synthetic.noise_sigma == 0.8
        # the python example builds the json block's spec
        (code,) = [block for block in re.findall(r"```python\n(.*?)```", self.text, re.S)
                   if "DatasetSpec(" in block]
        scope = {}
        exec(code, scope)
        assert scope["spec"] == synthetic
