from __future__ import annotations

import json

import numpy as np
import pytest

from dbmmd.cli import main
from dbmmd.io import load_features

# Config keys that were removed without a shim, each with a value it used to take.
REMOVED_CONFIG_KEYS = [("sigma_mode", "median"), ("graph_mode", "spirit"),
                       ("matrix_mode", "literal")]


def write_spec(tmp_path, **overrides):
    spec = {
        "models": ["JDA", "JDA+CG"],
        "dataset": {
            "synthetic": {
                "class_count": 2,
                "samples_per_class": 10,
                "feature_dim": 2,
                "shift": "rotation",
                "shift_param": 20.0,
                "noise_sigma": 0.5,
                "seed": 3,
            }
        },
        "config": {"k": 2, "lam": 1.0, "max_iter": 3},
        "output_dir": str(tmp_path / "out"),
    }
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


class TestSynth:
    def test_writes_three_files(self, tmp_path, capsys):
        code = main(
            [
                "synth", "--out", str(tmp_path / "d"), "--classes", "2",
                "--per-class", "5", "--noise", "0.2", "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for role in ("source", "target", "target_labels"):
            assert role in out
        source = load_features(tmp_path / "d" / "source.csv")
        assert source.features.shape == (2, 10)
        assert np.array_equal(np.unique(source.labels), [0, 1])
        target = load_features(tmp_path / "d" / "target.csv")
        assert not hasattr(target, "labels")

    def test_translation_vector_param(self, tmp_path):
        code = main(
            [
                "synth", "--out", str(tmp_path / "d"), "--shift", "translation",
                "--shift-param", "1.0,-2.0", "--per-class", "3", "--noise", "0.0",
            ]
        )
        assert code == 0
        src = load_features(tmp_path / "d" / "source.csv")
        tgt = load_features(tmp_path / "d" / "target.csv")
        offset = tgt.features - src.features
        assert np.allclose(offset[0], 1.0) and np.allclose(offset[1], -2.0)

    @pytest.mark.parametrize("shift", ["rotation", "cov_scale"])
    def test_vector_param_outside_translation_exits_2(self, tmp_path, capsys, shift):
        code = main(["synth", "--out", str(tmp_path / "d"), "--shift", shift,
                     "--shift-param", "1,2"])
        assert code == 2
        assert "only to translation" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_raw_format(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "d"), "--format", "raw"])
        assert code == 0
        assert (tmp_path / "d" / "source.f64").exists()
        assert (tmp_path / "d" / "source.json").exists()


class TestRun:
    def test_happy_path(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        code = main(["run", str(spec)])
        assert code == 0
        out = capsys.readouterr().out
        assert "JDA+CG" in out  # summary table printed
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_config_override_applies(self, tmp_path):
        spec = write_spec(tmp_path)
        code = main(["run", str(spec), "--max-iter", "1"])
        assert code == 0
        report = json.loads(
            (tmp_path / "out" / "reports" / "JDA_rep0.json").read_text()
        )
        assert report["config"]["max_iter"] == 1
        assert len(report["iterations"]) == 1

    def test_missing_spec_is_exit_2(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "ghost.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_spec_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["run", str(bad)]) == 2

    def test_label_beyond_int64_is_exit_2(self, tmp_path, capsys):
        (tmp_path / "s.csv").write_text("f0,label\n1.0,0\n2.0,99999999999999999999999\n")
        (tmp_path / "t.csv").write_text("f0\n1.5\n")
        spec = write_spec(tmp_path, dataset={"source": str(tmp_path / "s.csv"),
                                             "target": str(tmp_path / "t.csv")})
        assert main(["run", str(spec)]) == 2
        assert "s.csv:3: label outside the int64 range" in capsys.readouterr().err

    def test_non_object_dataset_is_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, dataset=["source"])
        assert main(["run", str(spec)]) == 2
        assert "dataset must be a JSON object" in capsys.readouterr().err

    def test_non_object_config_is_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, config=[])
        assert main(["run", str(spec)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_bad_override_is_exit_2(self, tmp_path):
        spec = write_spec(tmp_path)
        assert main(["run", str(spec), "--k", "0"]) == 2

    def test_infinite_hyper_parameter_is_exit_2(self, tmp_path, capsys):
        # not a failed cell (exit 1): the config is rejected before any cell runs
        spec = write_spec(tmp_path)
        assert main(["run", str(spec), "--lam", "inf"]) == 2
        assert "lam must be finite" in capsys.readouterr().err
        spec = write_spec(tmp_path, config={"k": 2, "meda_eta": float("inf")})
        assert "Infinity" in spec.read_text()
        assert main(["run", str(spec)]) == 2
        assert "meda_eta must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_cell_is_exit_1(self, tmp_path, capsys):
        # MEDA needs a kernel; the primal spec makes exactly that cell fail
        spec = write_spec(tmp_path, models=["JDA", "MEDA"])
        code = main(["run", str(spec)])
        assert code == 1
        assert "FAILED MEDA" in capsys.readouterr().err

    def test_unknown_flag_is_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert main(["run", str(spec), "--warp-speed", "9"]) == 2

    def test_seed_is_not_a_config_flag(self, tmp_path, capsys):
        # the synthetic recipe carries the seed; the adaptation has none
        spec = write_spec(tmp_path)
        assert main(["run", str(spec), "--seed", "1"]) == 2

    @pytest.mark.parametrize("key, value", REMOVED_CONFIG_KEYS)
    def test_removed_config_key_is_not_a_flag(self, tmp_path, capsys, key, value):
        # sigma alone picks the bandwidth, and one reading of the boundary
        # graphs and the MMD tables runs
        spec = write_spec(tmp_path)
        assert main(["run", str(spec), f"--{key.replace('_', '-')}", value]) == 2

    @pytest.mark.parametrize("key, where, value", [
        ("lam", "config", "1"),
        ("class_count", "recipe", "3"),
        ("k", "config", True),
        ("max_iter", "config", 2.5),
        ("sigma_mode", "config", "fixed"),
        ("graph_mode", "config", "spirit"),
        ("matrix_mode", "config", "literal"),
        ("models", "spec", "JDA"),
        ("output_dir", "spec", None),
    ])
    def test_malformed_spec_value_is_exit_2(self, tmp_path, capsys, key, where, value):
        spec = json.loads(write_spec(tmp_path).read_text())
        target = {"spec": spec, "config": spec["config"],
                  "recipe": spec["dataset"]["synthetic"]}[where]
        target[key] = value
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["run", str(tmp_path / "spec.json")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_runs_as_an_int(self, tmp_path):
        spec = write_spec(tmp_path, config={"k": 2, "lam": 1.0, "max_iter": 2.0})
        assert main(["run", str(spec)]) == 0
        report = json.loads((tmp_path / "out" / "reports" / "JDA_rep0.json").read_text())
        assert report["config"]["max_iter"] == 2 and isinstance(report["config"]["max_iter"], int)

    def test_float_override_over_an_integer_spec_value(self, tmp_path):
        # the override is typed by the field (float), not by the value the spec holds
        spec = write_spec(tmp_path, config={"k": 2, "lam": 1, "max_iter": 3})
        assert main(["run", str(spec), "--lam", "0.5"]) == 0
        report = json.loads((tmp_path / "out" / "reports" / "JDA_rep0.json").read_text())
        assert report["config"]["lam"] == 0.5

    def test_sigma_none_override_restores_the_median(self, tmp_path):
        config = {"k": 2, "lam": 1.0, "max_iter": 3, "kernel": "rbf"}
        reports = []
        for i, (extra, flags) in enumerate([({}, []), ({"sigma": 2.0}, ["--sigma", "none"]),
                                            ({"sigma": 2.0}, [])]):
            out = tmp_path / f"out{i}"
            spec = write_spec(tmp_path, config={**config, **extra}, output_dir=str(out))
            assert main(["run", str(spec), *flags]) == 0
            reports.append(json.loads((out / "reports" / "JDA_rep0.json").read_text()))
        median, overridden, fixed = reports
        assert overridden["config"]["sigma"] is None
        assert overridden["iterations"] == median["iterations"]
        # a given sigma is the bandwidth, so it changes the run
        assert fixed["config"]["sigma"] == 2.0
        assert fixed["iterations"] != median["iterations"]


class TestReport:
    def test_rerenders_summary(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert main(["run", str(spec)]) == 0
        capsys.readouterr()
        (tmp_path / "out" / "summary.md").unlink()
        assert main(["report", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "summary.md").exists()
        assert "JDA" in capsys.readouterr().out

    def test_config_with_a_seed_is_exit_2(self, tmp_path, capsys):
        # experiment.json files that still carry the removed "seed" key
        spec = write_spec(tmp_path)
        assert main(["run", str(spec)]) == 0
        stored = tmp_path / "out" / "experiment.json"
        payload = json.loads(stored.read_text())
        payload["config"]["seed"] = 0
        stored.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out")]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", REMOVED_CONFIG_KEYS)
    def test_config_with_a_removed_key_is_exit_2(self, tmp_path, capsys, key, value):
        # experiment.json files written before the key was removed
        spec = write_spec(tmp_path)
        assert main(["run", str(spec)]) == 0
        stored = tmp_path / "out" / "experiment.json"
        payload = json.loads(stored.read_text())
        payload["config"][key] = value
        stored.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    def test_non_experiment_dir_is_exit_2(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 2

    @pytest.mark.parametrize("runs", ['"JDA"', '[{"model": "CDDA", "status": "ok"}]', '[{'])
    def test_malformed_runs_is_exit_2(self, tmp_path, capsys, runs):
        spec = write_spec(tmp_path)
        assert main(["run", str(spec)]) == 0
        (tmp_path / "out" / "runs.json").write_text(runs)
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out")]) == 2
        assert "runs.json" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["[]", '"x"', "{}", '{"models": 3}',
                                         '{"models": ["JDA+XY"], "output_dir": "o"}'])
    def test_wrong_shape_stored_spec_names_the_file(self, tmp_path, capsys, content):
        # valid JSON that is not a spec: the error says which file it was in
        spec = write_spec(tmp_path)
        assert main(["run", str(spec)]) == 0
        stored = tmp_path / "out" / "experiment.json"
        stored.write_text(content)
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out")]) == 2
        assert f"{stored}: " in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["[]", '"x"', "{}", '{"models": 3}',
                                         '{"models": ["JDA+XY"], "output_dir": "o"}'])
    def test_wrong_shape_spec_file_names_the_file(self, tmp_path, capsys, content):
        spec = tmp_path / "spec.json"
        spec.write_text(content)
        assert main(["run", str(spec)]) == 2
        assert f"{spec}: " in capsys.readouterr().err

    @pytest.mark.parametrize("name, content", [("experiment.json", b'{"models": ["JDA"'),
                                               ("runs.json", b"\xff\xfe[]")])
    def test_undecodable_stored_json_is_exit_2(self, tmp_path, capsys, name, content):
        # a truncated spec, and a run list that is not UTF-8
        spec = write_spec(tmp_path)
        assert main(["run", str(spec)]) == 0
        (tmp_path / "out" / name).write_bytes(content)
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out")]) == 2
        assert f"{name}: malformed JSON" in capsys.readouterr().err


class TestParser:
    def test_no_command_is_exit_2(self, capsys):
        assert main([]) == 2

    def test_help_is_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out
