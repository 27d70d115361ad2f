"""Config validation and CLI subcommand integration."""

import csv
import json
import os

import numpy as np
import pytest

from sddeimpulse import ValidationError, simulate
from sddeimpulse.cli import RunConfig, main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")


def load_raw(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        return json.load(fh)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestRunConfig:
    def test_full_instance_round_trip(self):
        cfg = RunConfig.load(os.path.join(CONFIGS, "delay_feedback.json"))
        assert cfg.grid.delay_steps + 1 == 6
        assert cfg.backend == "regression"
        assert cfg.dt == 0.01
        assert cfg.spec.delay == pytest.approx(0.05)
        assert cfg.n_paths == 10000 and cfg.seed == 2718
        assert cfg.exploration_rate == 0.0

    def test_dt_must_divide_delay(self):
        raw = load_raw("delay_feedback.json")
        raw["discretization"]["dt"] = 0.03
        with pytest.raises(ValidationError):
            RunConfig(raw)

    def test_unknown_key_rejected(self):
        raw = load_raw("tiny1.json")
        raw["solver"]["tolerence"] = 1e-3
        with pytest.raises(ValidationError, match="tolerence"):
            RunConfig(raw)

    def test_missing_seed_rejected(self):
        raw = load_raw("tiny1.json")
        del raw["evaluation"]["seed"]
        with pytest.raises(ValidationError, match="seed"):
            RunConfig(raw)

    def test_hash_is_content_addressed(self):
        raw = load_raw("tiny1.json")
        h1 = RunConfig(raw).config_hash()
        raw["evaluation"]["seed"] = 18
        assert RunConfig(raw).config_hash() != h1


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    cfg_path = os.path.join(CONFIGS, "tiny1.json")
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
    return cfg_path, str(out)


class TestCommands:
    def test_solve_artifacts(self, tiny_run):
        _, out = tiny_run
        for name in ("manifest.json", "summary.json", "convergence.csv",
                     "thresholds.csv"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["backend"] == "grid"
        # frozen tree-search optimum; the uniform 81-point axis is not
        # impulse-closed, so allow a small interpolation slack
        assert summary["value_at_origin"] == pytest.approx(
            1.5 * np.sqrt(2.0) - 2.95, abs=5e-3)

    def test_oracle_compare_agreement(self, tiny_run):
        cfg_path, out = tiny_run
        assert main(["oracle-compare", "--config", cfg_path,
                     "--out", out]) == 0
        with open(os.path.join(out, "oracle_compare.json")) as fh:
            rep = json.load(fh)
        assert rep["abs_diff"] <= 1e-9
        assert rep["tables_equal"] is True

    def test_simulate_deterministic(self, tiny_run, tmp_path):
        cfg_path, out = tiny_run
        assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
        with open(os.path.join(out, "trajectories.csv"), "rb") as fh:
            first = fh.read()
        assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
        with open(os.path.join(out, "trajectories.csv"), "rb") as fh:
            assert fh.read() == first

    def test_export_figures_surfaces(self, tiny_run):
        cfg_path, out = tiny_run
        assert main(["export-figures", "--config", cfg_path,
                     "--out", out]) == 0
        rows = read_rows(os.path.join(out, "value_surface.csv"))
        terminal = [r for r in rows if float(r["t"]) == 1.0]
        for r in terminal:
            x = float(r["x"])
            assert float(r["value"]) == pytest.approx(-x * x, abs=1e-12)
        by_tx = {(r["t"], round(float(r["x"]), 9)): float(r["value"])
                 for r in rows}
        for (t, x), v in by_tx.items():
            assert v == pytest.approx(by_tx[(t, -x)], abs=1e-9)
        actions = read_rows(os.path.join(out, "policy_surface.csv"))
        for r in actions:
            if r["action"] != "CONTINUE":
                assert -1.0 <= float(r["action"]) <= 1.0

    def test_evaluate_report(self, tiny_run):
        cfg_path, out = tiny_run
        assert main(["evaluate", "--config", cfg_path, "--out", out]) == 0
        with open(os.path.join(out, "evaluate.json")) as fh:
            rep = json.load(fh)
        assert rep["policy_stderr"] > 0 and rep["baseline_stderr"] > 0
        assert rep["policy_mean"] >= rep["baseline_mean"]

    def test_exit_code_2_on_bad_config(self, tmp_path):
        raw = load_raw("tiny1.json")
        raw["evaluation"].pop("seed")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key,value", [("grid_bound", -1.0),
                                           ("grid_bound", 0.0),
                                           ("points_per_axis", 1)])
    def test_exit_code_2_on_bad_grid(self, tmp_path, key, value):
        raw = load_raw("tiny1.json")
        raw["discretization"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key,value", [
        ("degree", -1), ("ridge_lambda", -1.0), ("ridge_lambda", float("nan")),
        ("exploration_rate", 2.0), ("exploration_rate", -0.5),
        ("exploration_rate", float("nan")), ("tol", float("nan"))])
    def test_exit_code_2_on_bad_solver_knob(self, tmp_path, key, value):
        raw = load_raw("tiny1.json")
        raw["solver"]["backend"] = "regression"
        raw["solver"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2

    def test_probe_flow_draws_each_path_once(self, tmp_path, monkeypatch):
        calls = []
        real = simulate.draw_noise

        def counting(seed, path_index, grid):
            calls.append(path_index)
            return real(seed, path_index, grid)

        monkeypatch.setattr(simulate, "draw_noise", counting)
        cfg_path = os.path.join(CONFIGS, "tiny1.json")
        assert main(["probe-flow", "--config", cfg_path,
                     "--out", str(tmp_path)]) == 0
        assert sorted(calls) == list(range(RunConfig.load(cfg_path).n_paths))

    def test_exit_code_2_on_truncated_value_file(self, tmp_path):
        cfg_path = os.path.join(CONFIGS, "tiny1.json")
        out = str(tmp_path)
        assert main(["solve", "--config", cfg_path, "--out", out]) == 0
        values = os.path.join(out, "v_top_values.csv")
        with open(values) as fh:
            lines = fh.readlines()
        with open(values, "w") as fh:
            fh.writelines(lines[:-3])
        assert main(["evaluate", "--config", cfg_path, "--out", out]) == 2

    def test_seed_override(self, tiny_run, tmp_path):
        cfg_path, _ = tiny_run
        out = str(tmp_path)
        assert main(["solve", "--config", cfg_path, "--out", out]) == 0
        assert main(["evaluate", "--config", cfg_path, "--out", out,
                     "--seed", "99"]) == 0
        with open(os.path.join(out, "evaluate.json")) as fh:
            assert json.load(fh)["seed"] == 99
