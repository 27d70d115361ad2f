"""Config validation and CLI subcommand integration."""

import csv
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from sddeimpulse import ValidationError, bellman, cli, simulate
from sddeimpulse.cli import RunConfig, main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")
BENCH = os.path.join(HERE, os.pardir, "bench")


def load_raw(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        return json.load(fh)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def clamped_tiny1(tmp_path):
    """Path of tiny1 with its jump clamped at 5, so that the flow probe's
    noise does not cancel."""
    raw = load_raw("tiny1.json")
    raw["problem"]["intervention"] = {"name": "additive_clamped",
                                      "limit": 5.0}
    path = tmp_path / "clamped.json"
    path.write_text(json.dumps(raw))
    return str(path)


def mc_probe_config():
    """The benchmark's mc-probe config at workload seed 1."""
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    return workloads.make_config("mc-probe", 1, CONFIGS)[0]


class TestRunConfig:
    def test_full_instance_round_trip(self):
        cfg = RunConfig.load(os.path.join(CONFIGS, "delay_feedback.json"))
        assert cfg.grid.delay_steps + 1 == 6
        assert cfg.backend == "regression"
        assert cfg.dt == 0.01
        assert cfg.spec.delay == pytest.approx(0.05)
        assert cfg.n_paths == 10000 and cfg.seed == 2718

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


@pytest.fixture(scope="module")
def tiny_regression_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_regression_run")
    cfg_path = os.path.join(CONFIGS, "tiny1.json")
    assert main(["solve", "--config", cfg_path, "--out", str(out),
                 "--backend", "regression"]) == 0
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

    @pytest.mark.parametrize("name,start,value", [
        ("tiny1.json", 0.5, -0.78934), ("tiny2.json", 0.0, -0.61297),
        # the grid DP lets level k jump onto level k-1 at the same instant,
        # so it prices two impulses at once (dp_value -1.04318) where the
        # tree allows one per node
        pytest.param("tiny2.json", 0.5, -1.44503,
                     marks=pytest.mark.xfail(strict=True, reason=(
                         "several impulses at one instant in the grid DP")))],
        ids=["tiny1-start-0.5", "tiny2", "tiny2-start-0.5"])
    def test_oracle_compare_checks_the_configs_problem(self, tmp_path, name,
                                                       start, value):
        raw = load_raw(name)
        raw["problem"]["initial_segment"]["value"] = start
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["oracle-compare", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "oracle_compare.json") as fh:
            rep = json.load(fh)
        assert rep["abs_diff"] <= 1e-9
        assert rep["tables_equal"] is True
        assert rep["max_impulses"] == raw["solver"]["k_max"]
        assert rep["oracle_value"] == pytest.approx(value, abs=1e-5)

    @pytest.mark.parametrize("name,settings,message", [
        ("delay_feedback_reduced.json", {}, "delay-free"),
        ("tiny1.json", {"solver": {"k_max": 12}}, "budget of 12 impulses"),
        ("tiny1.json", {"oracle": {"instance": "TINY-1", "max_impulses": 2}},
         "unknown keys ['oracle']")],
        ids=["delay", "budget", "oracle-section"])
    def test_exit_code_2_on_problem_beyond_the_oracle(self, tmp_path, capsys,
                                                      name, settings,
                                                      message):
        raw = load_raw(name)
        for section, values in settings.items():
            raw.setdefault(section, {}).update(values)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["oracle-compare", "--config", str(bad),
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        # rejected before any solve
        assert not out.exists()

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
    def test_exit_code_2_on_bad_solver_knob(self, tmp_path, capsys, key,
                                            value):
        # every setting is checked at load, whatever the backend and command
        for command, backend in (("solve", "regression"),
                                 ("probe-flow", "grid")):
            raw = load_raw("tiny1.json")
            raw["solver"]["backend"] = backend
            raw["solver"][key] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(raw))
            assert main([command, "--config", str(bad),
                         "--out", str(tmp_path)]) == 2
            assert key in capsys.readouterr().err

    def test_exit_code_2_on_exploration_rate(self, tmp_path, capsys):
        # the regression cloud has no exploration jumps, and no key for them
        raw = load_raw("delay_feedback.json")
        raw["solver"]["exploration_rate"] = 0.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: solver.exploration_rate: no longer a setting; "
            "the regression sample cloud has no exploration jumps"]

    @pytest.mark.parametrize("settings,key", [
        ({"quadrature": "nonsense"}, "discretization.quadrature:"),
        ({"quadrature": "gauss_hermite", "quadrature_nodes": 1},
         "discretization.quadrature_nodes:")],
        ids=["unknown-kind", "one-node"])
    def test_exit_code_2_on_bad_quadrature(self, tmp_path, capsys, settings,
                                           key):
        # checked at load, also for a command that takes no expectation
        raw = load_raw("tiny1.json")
        raw["discretization"].update(settings)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["probe-flow", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("error,line", [
        (MemoryError("Unable to allocate 35.4 GiB for an array"),
         "runtime failure: Unable to allocate 35.4 GiB for an array"),
        (MemoryError(), "runtime failure: MemoryError")],
        ids=["message", "bare"])
    def test_exit_code_1_on_out_of_memory(self, tmp_path, capsys, monkeypatch,
                                          error, line):
        def out_of_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "k_value_iteration", out_of_memory)
        assert main(["solve", "--config", os.path.join(CONFIGS, "tiny1.json"),
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [line]

    def test_exit_code_1_on_overflowing_sample_cloud(self, tmp_path, capsys):
        # the regression cloud runs on the Euler engine and its overflow
        # check: no fit is made on heads past simulate.OVERFLOW_LIMIT
        raw = load_raw("delay_feedback.json")
        raw["problem"]["drift"] = {"name": "custom_affine", "c_x": 3000.0}
        raw["problem"]["horizon"] = 0.1
        raw["solver"]["n_samples"] = 200
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(bad),
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "runtime failure: state overflow at step 8 (path 0)"]
        assert not os.path.exists(tmp_path / "summary.json")

    def test_probe_flow_draws_each_path_once(self, tmp_path, monkeypatch):
        # counted at the keyed-stream kernel, which every noise row goes
        # through, whether drawn singly or as a matrix
        calls = []
        real = simulate._keyed_normal_rows

        def counting(seed, paths, grid):
            calls.extend(paths)
            return real(seed, paths, grid)

        monkeypatch.setattr(simulate, "_keyed_normal_rows", counting)
        cfg_path = clamped_tiny1(tmp_path)
        assert main(["probe-flow", "--config", cfg_path,
                     "--out", str(tmp_path)]) == 0
        assert sorted(calls) == list(range(RunConfig.load(cfg_path).n_paths))

    def test_evaluate_draws_each_path_once(self, tmp_path, monkeypatch):
        # the policy and the never-intervene estimates share one draw
        cfg_path = os.path.join(CONFIGS, "tiny1.json")
        assert main(["solve", "--config", cfg_path,
                     "--out", str(tmp_path)]) == 0
        calls = []
        real = simulate._keyed_normal_rows

        def counting(seed, paths, grid):
            calls.extend(paths)
            return real(seed, paths, grid)

        monkeypatch.setattr(simulate, "_keyed_normal_rows", counting)
        assert main(["evaluate", "--config", cfg_path,
                     "--out", str(tmp_path)]) == 0
        assert sorted(calls) == list(range(RunConfig.load(cfg_path).n_paths))

    @staticmethod
    def count_draws_across_processes(monkeypatch, n_paths):
        """Per path, how often any process draws its noise row."""
        drawn = simulate.shared_array((n_paths,))
        real = simulate._keyed_normal_rows

        def counting(seed, paths, grid):
            drawn[np.asarray(paths, dtype=int)] += 1
            return real(seed, paths, grid)

        monkeypatch.setattr(simulate, "_keyed_normal_rows", counting)
        return drawn

    def test_probe_flow_forked_draws_each_path_once(self, tmp_path,
                                                    monkeypatch, forking):
        # each worker draws its own range's rows: one fork, no second
        # set of workers for the noise
        cfg_path = clamped_tiny1(tmp_path)
        n_paths = RunConfig.load(cfg_path).n_paths
        forking(1)
        assert main(["probe-flow", "--config", cfg_path,
                     "--out", str(tmp_path / "serial")]) == 0
        drawn = self.count_draws_across_processes(monkeypatch, n_paths)
        forked = forking(2)
        assert main(["probe-flow", "--config", cfg_path,
                     "--out", str(tmp_path / "forked")]) == 0
        assert len(forked) == 1
        assert drawn.tolist() == [1.0] * n_paths
        for name in ("probe_flow.csv", "probe_flow.json"):
            assert ((tmp_path / "forked" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())

    def test_evaluate_forked_draws_each_path_once(self, tmp_path,
                                                  monkeypatch, forking):
        # the policy and the never-intervene baseline are scored on each
        # range's noise in the one process that draws it
        cfg_path = os.path.join(CONFIGS, "tiny1.json")
        n_paths = RunConfig.load(cfg_path).n_paths
        assert main(["solve", "--config", cfg_path,
                     "--out", str(tmp_path)]) == 0
        forking(1)
        assert main(["evaluate", "--config", cfg_path,
                     "--out", str(tmp_path)]) == 0
        want = (tmp_path / "evaluate.json").read_bytes()
        drawn = self.count_draws_across_processes(monkeypatch, n_paths)
        forked = forking(2)
        assert main(["evaluate", "--config", cfg_path,
                     "--out", str(tmp_path)]) == 0
        assert len(forked) == 1
        assert drawn.tolist() == [1.0] * n_paths
        assert (tmp_path / "evaluate.json").read_bytes() == want

    def test_probe_flow_repeats_no_euler_step(self, tmp_path, monkeypatch):
        # every run is uncontrolled before the base impulse at k0 = n / 2
        # (each offset is at or after it): steps 0 .. k0 - 1 run once, then
        # the base run and each of the four offsets step from k0 to n; one
        # euler_head call writes one history row, called with its time
        calls = []
        real = simulate.euler_head

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(simulate, "euler_head", counting)
        raw = load_raw("delay_feedback.json")
        raw["evaluation"]["n_paths"] = 8
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["probe-flow", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        n = RunConfig.load(str(cfg_path)).grid.n_steps
        k0 = n // 2
        assert len(calls) == k0 + (1 + 4) * (n - k0)
        assert Counter(calls) == {k * 0.01: 1 if k < k0 else 5
                                  for k in range(n)}

    @pytest.mark.parametrize("section,key,value", [
        ("problem", "delay", float("nan")),
        ("problem", "delay", float("inf")),
        ("problem", "horizon", float("inf")),
        ("discretization", "dt", float("nan")),
        ("discretization", "dt", float("inf"))])
    def test_exit_code_2_on_non_finite_time(self, tmp_path, capsys, section,
                                            key, value):
        raw = load_raw("tiny1.json")
        raw[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        for command in ("solve", "probe-flow"):
            assert main([command, "--config", str(bad),
                         "--out", str(tmp_path)]) == 2
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("evaluation", "seed", -1), ("evaluation", "seed", 2 ** 64),
        ("solver", "sample_seed", -1), ("solver", "sample_seed", 2 ** 64)])
    def test_exit_code_2_on_bad_config_seed(self, tmp_path, section, key,
                                            value):
        raw = load_raw("tiny1.json")
        raw[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["probe-flow", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("section,key,value", [
        ("evaluation", "n_paths", "many"), ("evaluation", "seed", 1.5),
        ("discretization", "n_impulse", 2.9), ("solver", "k_max", True),
        ("discretization", "points_per_axis", 41.0),
        ("discretization", "quadrature_nodes", "7"),
        ("solver", "degree", 2.0), ("solver", "n_samples", None),
        ("solver", "sample_seed", False)])
    def test_exit_code_2_on_non_integer_setting(self, tmp_path, capsys,
                                                section, key, value):
        raw = load_raw("tiny1.json")
        raw[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
        assert f"{section}.{key}: must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("keys,value", [
        (("problem", "horizon"), "one"), (("problem", "delay"), None),
        pytest.param(("problem", "horizon"), 10 ** 400, id="huge-horizon"),
        (("problem", "impulse_set"), ["a", "b"]),
        (("problem", "impulse_set"), [-1, True]),
        (("problem", "min_impulse_cost"), "0.05"),
        (("problem", "diffusion", "value"), "x"),
        (("problem", "impulse_cost", "scale"), "0.1"),
        (("discretization", "dt"), "0.01"),
        (("discretization", "grid_bound"), "big"),
        (("solver", "tol"), [1]), (("solver", "ridge_lambda"), False),
        (("solver", "exploration_rate"), "0.1")])
    def test_exit_code_2_on_non_number_setting(self, tmp_path, capsys, keys,
                                               value):
        raw = load_raw("tiny1.json")
        section = raw
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
        assert ".".join(keys) + ":" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("impulse_set", [1.0]), ("impulse_set", [-1, 1, 2]),
        ("impulse_set", 1.0), ("drift", "zero")])
    def test_exit_code_2_on_malformed_problem(self, tmp_path, capsys, key,
                                              value):
        raw = load_raw("tiny1.json")
        raw["problem"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
        assert f"problem.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("section,value", [
        ("solver", "grid"), ("discretization", [1, 2]), ("config", 5)])
    def test_exit_code_2_on_section_not_an_object(self, tmp_path, capsys,
                                                  section, value):
        raw = load_raw("tiny1.json")
        if section == "config":
            raw = value
        else:
            raw[section] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
        assert f"{section}: must be a JSON object" in capsys.readouterr().err

    def test_exit_code_2_on_regression_artifact_of_other_lift(self, tmp_path,
                                                              capsys):
        # lift 6 at solve, lift 2 at evaluate, on the same 5-step time grid
        raw = load_raw("delay_feedback.json")
        raw["problem"]["horizon"] = 0.05
        raw["solver"].update(k_max=1, n_samples=200)
        raw["discretization"]["n_impulse"] = 3
        raw["evaluation"]["n_paths"] = 10
        cfg = tmp_path / "cfg.json"
        out = str(tmp_path / "run")
        cfg.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(cfg), "--out", out]) == 0
        raw["problem"]["delay"] = 0.01
        cfg.write_text(json.dumps(raw))
        assert main(["evaluate", "--config", str(cfg), "--out", out]) == 2
        assert "lift dimension 2" in capsys.readouterr().err

    @pytest.mark.parametrize("base,settings,delay", [
        # lift 6 against a lift 2 v_prev, on a 5-step time grid
        ("delay_feedback.json",
         {"problem": {"horizon": 0.05},
          "solver": {"k_max": 1, "n_samples": 200},
          "discretization": {"n_impulse": 3}}, 0.01),
        # lift 2 against a lift 3 v_prev, on a 20-step time grid
        ("delay_feedback_reduced.json",
         {"problem": {"horizon": 0.2}, "solver": {"k_max": 1},
          "discretization": {"points_per_axis": 11, "n_impulse": 5}}, 0.02)],
        ids=["regression", "grid"])
    def test_exit_code_2_on_v_prev_of_other_lift(self, tmp_path, capsys, base,
                                                 settings, delay):
        raw = load_raw(base)
        for section, values in settings.items():
            raw[section].update(values)
        raw["evaluation"]["n_paths"] = 10
        cfg, other = tmp_path / "cfg.json", tmp_path / "other.json"
        cfg.write_text(json.dumps(raw))
        lift = RunConfig(raw).grid.delay_steps + 1
        raw["problem"]["delay"] = delay
        other.write_text(json.dumps(raw))
        out, other_out = tmp_path / "run", tmp_path / "other"
        for path, run in ((cfg, out), (other, other_out)):
            assert main(["solve", "--config", str(path), "--out",
                         str(run)]) == 0
        for name in os.listdir(other_out):
            if name.startswith("v_prev_"):
                shutil.copy(other_out / name, out / name)
        assert main(["evaluate", "--config", str(cfg), "--out",
                     str(out)]) == 2
        other_lift = RunConfig(raw).grid.delay_steps + 1
        assert (f"v_prev artifact dimension {other_lift} does not match "
                f"config lift dimension {lift}") in capsys.readouterr().err
        assert not os.path.exists(out / "evaluate.json")

    def test_exit_code_2_on_v_prev_of_other_backend(self, tmp_path, capsys,
                                                    tiny_run,
                                                    tiny_regression_run):
        cfg_path, grid_out = tiny_run
        _, regression_out = tiny_regression_run
        out = tmp_path / "run"
        shutil.copytree(grid_out, out)
        for name in os.listdir(regression_out):
            if name.startswith("v_prev_"):
                shutil.copy(os.path.join(regression_out, name), out / name)
        assert main(["evaluate", "--config", cfg_path, "--out",
                     str(out)]) == 2
        assert "v_prev backend REGRESSION does not match v_top backend " \
            "GRID" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda b: [b[0] + [b[0][0]]] + b[1:],
        lambda b: b[:1]], ids=["three-rows", "one-entry"])
    def test_exit_code_2_on_bad_regression_bounds(self, tmp_path, capsys,
                                                  edit):
        raw = load_raw("delay_feedback.json")
        raw["problem"]["horizon"] = 0.05
        raw["solver"].update(k_max=1, n_samples=200)
        raw["discretization"]["n_impulse"] = 3
        raw["evaluation"]["n_paths"] = 10
        cfg = tmp_path / "cfg.json"
        out = str(tmp_path / "run")
        cfg.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(cfg), "--out", out]) == 0
        for name in ("v_top", "v_prev"):
            path = os.path.join(out, f"{name}_header.json")
            with open(path) as fh:
                header = json.load(fh)
            header["bounds"] = edit(header["bounds"])
            with open(path, "w") as fh:
                json.dump(header, fh)
        assert main(["evaluate", "--config", str(cfg), "--out", out]) == 2
        assert "v_top_header.bounds: must hold n_steps = 5 arrays of shape " \
            "(2, 6), then null" in capsys.readouterr().err

    def test_exit_code_2_on_artifact_of_other_dt(self, tmp_path, capsys):
        # 20 steps of 0.01 at solve, 20 steps of 0.02 at evaluate, lift 2
        raw = load_raw("delay_feedback_reduced.json")
        raw["problem"]["horizon"] = 0.2
        raw["discretization"].update(points_per_axis=11, n_impulse=5)
        raw["solver"]["k_max"] = 1
        raw["evaluation"]["n_paths"] = 10
        cfg = tmp_path / "cfg.json"
        out = str(tmp_path / "run")
        cfg.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(cfg), "--out", out]) == 0
        raw["problem"].update(horizon=0.4, delay=0.02)
        raw["discretization"]["dt"] = 0.02
        cfg.write_text(json.dumps(raw))
        assert main(["evaluate", "--config", str(cfg), "--out", out]) == 2
        assert "artifact time grid does not match config" in \
            capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "evaluate.json"))

    def test_exit_code_2_on_reversed_artifact_axis(self, tmp_path, capsys):
        cfg_path = os.path.join(CONFIGS, "tiny1.json")
        out = str(tmp_path)
        assert main(["solve", "--config", cfg_path, "--out", out]) == 0
        for name in ("v_top", "v_prev"):
            path = os.path.join(out, f"{name}_header.json")
            with open(path) as fh:
                header = json.load(fh)
            header["axes"][0].reverse()
            with open(path, "w") as fh:
                json.dump(header, fh)
        assert main(["evaluate", "--config", cfg_path, "--out", out]) == 2
        assert "grid axis 0" in capsys.readouterr().err

    @pytest.mark.parametrize("run,edit,message", [
        ("tiny_run", lambda h: dict(h, axes=[["x"] + h["axes"][0][1:]]),
         "v_top_header.axes: must be a 1-d array of numbers"),
        ("tiny_run", lambda h: dict(h, axes="x"),
         "v_top_header.axes: must be a 1-d array of numbers"),
        ("tiny_run", lambda h: {k: v for k, v in h.items() if k != "dt"},
         "v_top_header.dt: required"),
        ("tiny_run", lambda h: {k: v for k, v in h.items() if k != "k_index"},
         "v_top_header.k_index: required"),
        ("tiny_run",
         lambda h: {k: v for k, v in h.items() if k != "format_version"},
         "v_top_header.format_version: required"),
        ("tiny_run", lambda h: dict(h, n_steps="2"),
         "v_top_header.n_steps: must be an integer"),
        ("tiny_run", lambda h: dict(h, backend="bogus"),
         "v_top_header.backend: unknown backend 'bogus'"),
        ("tiny_run", lambda h: "{", "v_top_header.json is not valid JSON"),
        ("tiny_run", lambda h: [], "v_top_header: must be a JSON object"),
        # the levels come from n_levels, the spec requirement from k_index
        ("tiny_regression_run", lambda h: dict(h, k_index=0),
         "v_top_header.k_index: must be n_levels - 1"),
        ("tiny_run", lambda h: dict(h, format_version=1),
         "unsupported format version 1")],
        ids=["axis-entry-string", "axes-string", "no-dt", "no-k_index",
             "no-format_version", "n_steps-string", "backend-bogus",
             "not-json", "not-an-object", "k_index-not-top-level",
             "format-version-1"])
    def test_exit_code_2_on_bad_artifact_header(self, request, tmp_path,
                                                capsys, run, edit, message):
        cfg_path, run = request.getfixturevalue(run)
        out = str(tmp_path / "run")
        shutil.copytree(run, out)
        for name in ("v_top", "v_prev"):
            path = os.path.join(out, f"{name}_header.json")
            with open(path) as fh:
                header = edit(json.load(fh))
            with open(path, "w") as fh:
                fh.write(header if isinstance(header, str)
                         else json.dumps(header))
        assert main(["evaluate", "--config", cfg_path, "--out", out]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5, None, ["a"], ""],
                             ids=["int", "null", "list", "empty"])
    def test_exit_code_2_on_bad_output_dir(self, tmp_path, monkeypatch,
                                           capsys, value):
        raw = load_raw("tiny1.json")
        raw["output_dir"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        assert main(["check-assumptions", "--config", str(bad)]) == 2
        assert "output_dir: must be a nonempty string" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("out,error", [
        ("", "No such file or directory"), ("file", "File exists"),
        ("file/sub", "Not a directory")], ids=["empty", "file", "in-a-file"])
    def test_exit_code_2_on_bad_out(self, tmp_path, monkeypatch, capsys, out,
                                    error):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        cfg_path = os.path.join(CONFIGS, "tiny1.json")
        assert main(["check-assumptions", "--config", cfg_path,
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and error in err
        assert os.listdir(tmp_path) == ["file"]

    @pytest.mark.parametrize("limit", [-1.0, 0.0])
    def test_exit_code_2_on_clamp_that_cannot_clamp(self, tmp_path, capsys,
                                                    limit):
        raw = load_raw("tiny1.json")
        raw["problem"]["intervention"] = {"name": "additive_clamped",
                                          "limit": limit}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
        assert "problem.intervention.limit: must be finite and positive" in \
            capsys.readouterr().err

    def test_exit_code_2_on_integer_literal_too_long_to_parse(self, tmp_path):
        text = json.dumps(load_raw("tiny1.json"))
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"horizon": 1.0', '"horizon": ' + "1" * 5000))
        assert main(["solve", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_exit_code_2_on_bad_seed_override(self, tmp_path, seed):
        cfg_path = os.path.join(CONFIGS, "tiny1.json")
        assert main(["probe-flow", "--config", cfg_path, "--out", str(tmp_path),
                     "--seed", seed]) == 2

    def test_largest_seed_accepted(self, tmp_path):
        cfg_path = os.path.join(CONFIGS, "tiny1.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["probe-flow", "--config", cfg_path,
                         "--out", str(tmp_path),
                         "--seed", str(2 ** 64 - 1)]) == 0

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

    @pytest.mark.parametrize("run,damage,message", [
        ("tiny_run", "csv-digit", "v_top_values.csv does not match the "
         "values_sha256 of its header"),
        ("tiny_regression_run", "csv-digit", "v_top_values.csv does not "
         "match the values_sha256 of its header"),
        ("tiny_run", "no-npy", "unreadable value file"),
        ("tiny_run", "truncated-npy", "v_top_values.npy does not match the "
         "table_sha256 of its header"),
        ("tiny_run", "npy-entry", "v_top_values.npy does not match the "
         "table_sha256 of its header"),
        ("tiny_regression_run", "npy-entry", "v_top_values.npy does not "
         "match the table_sha256 of its header"),
        ("tiny_run", "prev-over-top-npy", "v_top_values.npy does not match "
         "the table_sha256 of its header"),
        # the header's digest stamped anew: the table itself is checked
        ("tiny_run", "truncated-npy-restamped", "unreadable value file"),
        ("tiny_run", "wrong-shape-npy-restamped", "does not hold a (3, 81) "
         "float64 table"),
        ("tiny_regression_run", "wrong-shape-npy-restamped",
         "float64 table")],
        ids=["grid-csv-digit", "regression-csv-digit", "no-npy",
             "truncated-npy", "grid-npy-entry", "regression-npy-entry",
             "prev-over-top-npy", "truncated-npy-restamped",
             "grid-wrong-shape-npy-restamped",
             "regression-wrong-shape-npy-restamped"])
    def test_exit_code_2_on_damaged_value_file(self, request, tmp_path, capsys,
                                               run, damage, message):
        cfg_path, run = request.getfixturevalue(run)
        out = str(tmp_path / "run")
        shutil.copytree(run, out)
        csv_path = os.path.join(out, "v_top_values.csv")
        npy_path = os.path.join(out, "v_top_values.npy")
        if damage == "csv-digit":
            # one digit of the last value changed, the length kept
            with open(csv_path, "rb") as fh:
                text = bytearray(fh.read())
            at = max(i for i, c in enumerate(text) if chr(c).isdigit())
            text[at] = ord(str((int(chr(text[at])) + 1) % 10))
            with open(csv_path, "wb") as fh:
                fh.write(text)
        elif damage == "no-npy":
            os.remove(npy_path)
        elif damage.startswith("truncated-npy"):
            with open(npy_path, "rb") as fh:
                blob = fh.read()
            with open(npy_path, "wb") as fh:
                fh.write(blob[:len(blob) // 2])
        elif damage == "npy-entry":
            table = np.load(npy_path)
            table.flat[-1] = np.nextafter(table.flat[-1], np.inf)
            np.save(npy_path, table)
        elif damage == "prev-over-top-npy":
            shutil.copyfile(os.path.join(out, "v_prev_values.npy"), npy_path)
        else:
            np.save(npy_path, np.load(npy_path)[:-1])
        if damage.endswith("-restamped"):
            header_path = os.path.join(out, "v_top_header.json")
            with open(header_path) as fh:
                header = json.load(fh)
            with open(npy_path, "rb") as fh:
                header["table_sha256"] = hashlib.sha256(fh.read()).hexdigest()
            with open(header_path, "w") as fh:
                json.dump(header, fh)
        assert main(["evaluate", "--config", cfg_path, "--out", out]) == 2
        assert message in capsys.readouterr().err

    def test_seed_override(self, tiny_run, tmp_path):
        cfg_path, _ = tiny_run
        out = str(tmp_path)
        assert main(["solve", "--config", cfg_path, "--out", out]) == 0
        assert main(["evaluate", "--config", cfg_path, "--out", out,
                     "--seed", "99"]) == 0
        with open(os.path.join(out, "evaluate.json")) as fh:
            assert json.load(fh)["seed"] == 99


class TestAssumptionReport:
    """check-assumptions reads the problem alone: its report is exact, and
    neither evaluation.n_paths nor the seed moves a byte of it."""

    def test_same_bytes_at_any_path_count_and_seed(self, tmp_path):
        raw, reports = load_raw("tiny1.json"), set()
        for n_paths, seed in ((1000, "1"), (2000, "1"), (1000, "2")):
            raw["evaluation"]["n_paths"] = n_paths
            cfg = tmp_path / f"{n_paths}.json"
            cfg.write_text(json.dumps(raw))
            out = tmp_path / f"{n_paths}-{seed}"
            assert main(["check-assumptions", "--config", str(cfg),
                         "--out", str(out), "--seed", seed]) == 0
            reports.add((out / "assumptions.json").read_bytes())
        assert len(reports) == 1
        report = json.loads(reports.pop())
        assert report["passed"] is False
        assert [(c["name"], c["passed"], c["estimate"])
                for c in report["checks"]] == [
            ("drift_lipschitz", True, 0.0),
            ("diffusion_lipschitz", True, 0.0),
            ("running_reward_lipschitz", True, 10.0),
            ("terminal_reward_lipschitz", True, 10.0),
            ("impulse_cost_lipschitz", True, 0.2),
            ("intervention_growth", True, -4.0),
            ("intervention_lipschitz", False, 2.0 ** 0.5),
            ("impulse_cost_positive", True, 0.1)]

    def test_untagged_coefficient_reads_null(self, tmp_path):
        cfg = RunConfig.load(os.path.join(CONFIGS, "tiny1.json"))
        cfg.spec = dataclasses.replace(
            cfg.spec, impulse_cost=lambda x, u, t: 0.1 * (1.0 + u * u))
        assert cli.cmd_check_assumptions(cfg, str(tmp_path)) == 0
        report = json.loads((tmp_path / "assumptions.json").read_text())
        unknown = [c for c in report["checks"] if c["estimate"] is None]
        assert [c["name"] for c in unknown] == ["impulse_cost_lipschitz",
                                                "impulse_cost_positive"]
        assert not any(c["passed"] for c in unknown)


class TestLagDesignSharing:
    """A regression policy on constant histories reads, at every step, one
    lag block and its clips into the slices' cloud boxes.  thresholds.csv
    and export-figures build each block's lag design once; the solve keeps
    at most two designs, and a policy three."""

    def test_one_design_per_lag_block(self, tmp_path, monkeypatch):
        raw = load_raw("delay_feedback.json")
        raw["problem"]["horizon"] = 0.05
        raw["discretization"]["n_impulse"] = 5
        raw["solver"].update(n_samples=300, k_max=2)
        raw["evaluation"]["n_paths"] = 50
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        phase, designs, queries, kept = [None], [], [], Counter()

        def during(name, real):
            def run(*args, **kwargs):
                phase[0] = name
                try:
                    return real(*args, **kwargs)
                finally:
                    phase[0] = None
            return run

        real_design, real_block = bellman.design_matrix, bellman._LagMemo.block

        def design(points, powers):
            if points.shape[1] == 5:  # lift 6: the lag blocks
                designs.append((phase[0], points.tobytes()))
            return real_design(points, powers)

        def block(memo, i, lags, *design):
            out = real_block(memo, i, lags, *design)
            queries.append((phase[0], i, lags.tobytes()))
            kept[phase[0]] = max(kept[phase[0]], len(memo.entries))
            return out

        monkeypatch.setattr(bellman, "design_matrix", design)
        monkeypatch.setattr(bellman._LagMemo, "block", block)
        monkeypatch.setattr(cli, "k_value_iteration",
                            during("solve", cli.k_value_iteration))
        monkeypatch.setattr(cli, "_write_thresholds",
                            during("thresholds", cli._write_thresholds))
        for command, name in (("solve", None), ("export-figures", "export")):
            phase[0] = name
            assert main([command, "--config", str(cfg), "--out",
                         str(tmp_path)]) == 0
        for name in ("thresholds", "export"):
            built = [b for p, b in designs if p == name]
            read = [(i, b) for p, i, b in queries if p == name]
            blocks = {b for _, b in read}
            assert len(blocks) > 2
            assert sorted(built) == sorted(blocks)
            # fewer than the pairs of a slice and a block read
            assert len(set(read)) > len(built)
        assert kept["solve"] == 2
        assert kept["thresholds"] <= 3 and kept["export"] <= 3


class TestSideBySideSave:
    """solve writes a large v_prev value table in a forked worker while the
    parent writes v_top's and thresholds.csv; a failure on either side
    ends as the serial run does and leaves no process behind.  tiny1's
    tables (243 entries) count as large once simulate.FORK_ENTRIES is cut,
    and its grid solve then forks a worker too."""

    @staticmethod
    def solve(tmp_path, name):
        out = tmp_path / name
        cfg = os.path.join(CONFIGS, "tiny1.json")
        return main(["solve", "--config", cfg, "--out", str(out)]), out

    @pytest.mark.parametrize("entries,forks", [(243, 2), (244, 0)])
    def test_only_large_tables_fork(self, forking, tmp_path, entries, forks):
        forked = forking(2, entries=entries)
        assert self.solve(tmp_path, "run")[0] == 0
        assert len(forked) == forks

    @staticmethod
    def artifacts(out):
        # summary.json holds the wall time
        return {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "summary.json"}

    def test_worker_only_failure_reruns_in_process(self, forking, tmp_path,
                                                   monkeypatch):
        forking(1)
        rc, serial = self.solve(tmp_path, "serial")
        parent, saved, real = os.getpid(), [], cli.save_value_function

        def save(vf, out_dir, name):
            if os.getpid() != parent:
                raise OSError("no space left in the worker")
            saved.append(name)
            real(vf, out_dir, name)

        monkeypatch.setattr(cli, "save_value_function", save)
        forked = forking(2, entries=0)
        rc_forked, out = self.solve(tmp_path, "forked")
        # the grid solve's worker, then the save's
        assert rc == rc_forked == 0 and len(forked) == 2
        # the parent's own job, then the serial rerun of both
        assert saved == ["v_top", "v_top", "v_prev"]
        assert self.artifacts(out) == self.artifacts(serial)
        assert len(self.artifacts(out)) == 9

    def test_failing_parent_job_reaps_its_worker(self, forking, tmp_path,
                                                 monkeypatch):
        def fail(cfg, policy, path):
            raise RuntimeError("thresholds failed")

        monkeypatch.setattr(cli, "_write_thresholds", fail)
        forked = forking(2, entries=0)
        with pytest.raises(RuntimeError, match="^thresholds failed$"):
            self.solve(tmp_path, "run")
        assert len(forked) == 2
        # reaped before the serial rerun raised: the worker's table is whole
        header = json.loads((tmp_path / "run" / "v_prev_header.json")
                            .read_text())
        assert header["table_sha256"] == hashlib.sha256(
            (tmp_path / "run" / "v_prev_values.npy").read_bytes()).hexdigest()


class TestGridPolicyGoldenBits:
    """The grid solve's and policy's artifacts pinned byte for byte on the
    reduced config cut to 20 steps and 1,000 paths: the policy acts in each
    of them, so a value or a decision that any shortcut gets wrong changes
    a digest."""

    @pytest.mark.parametrize("name,digest", [
        ("v_top_values.csv",
         "c797587749450c3a5a493fa75d553c57e548a957b89b8a4a3c07c90194f62c08"),
        ("v_prev_values.csv",
         "4868c427f4b296b7e62c55e85a088336f8bc53b8bda5eac3402b2da25cc4d349"),
        ("value_surface.csv",
         "a11a555502a906079dd3037f4ca318fa6c646bd46e0ebc6fe7dcb61092ee2e7d"),
        ("evaluate.json",
         "2806733f42befc279121c92bec6f35b7e63852a51fdc52964df1800b82a625d2"),
        ("thresholds.csv",
         "7d4ca21bcbaede3956731174d0e8f50defaa72fa5fa9d637f0309946bf9bac60"),
        ("policy_surface.csv",
         "11b05b7adc23f5501fd62c7cea6725e6d46a7351a72448ff8d6db4e9ecbf2184")])
    def test_artifact_digest(self, reduced_grid_run, name, digest):
        with open(os.path.join(reduced_grid_run, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest


@pytest.fixture(scope="module")
def reduced_grid_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reduced_grid_run")
    raw = load_raw("delay_feedback_reduced.json")
    raw["problem"]["horizon"] = 0.2
    raw["evaluation"]["n_paths"] = 1000
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = str(tmp / "run")
    for command in ("solve", "evaluate", "export-figures"):
        assert main([command, "--config", str(cfg), "--out", out]) == 0
    return out


class TestLift3Twin:
    """delay_feedback_lift3.json: the headline problem at dt 0.025 (lift 3)
    and horizon 0.5, where both backends solve in under a second."""

    @pytest.mark.parametrize("backend,value", [
        # the headline defect: the shipped basis puts V above the reward
        # bound 0, which every reward -x^2 and every positive fee keep V under
        ("regression", 5.414538750987068),
        ("grid", -0.3145041145530005)], ids=["regression", "grid"])
    def test_value_at_origin(self, tmp_path, backend, value):
        assert main(["solve", "--config",
                     os.path.join(CONFIGS, "delay_feedback_lift3.json"),
                     "--backend", backend, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["backend"] == backend
        assert summary["value_at_origin"] == value


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestNoiseFreeProbe:
    """Where the registry tags say the noise cancels, probe-flow runs one
    path pair on zero noise, which gives the many-path moments and slope;
    elsewhere it runs every path on its keyed noise."""

    @pytest.mark.parametrize("name", ["tiny1.json", "tiny2.json",
                                      "delay_feedback_reduced.json",
                                      "mc-probe"])
    def test_equals_the_keyed_many_path_probe(self, tmp_path, name):
        raw = mc_probe_config() if name == "mc-probe" else load_raw(name)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["probe-flow", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        cfg = RunConfig(raw)
        pa, offsets = cli._probe_ladder(cfg)
        want = simulate.flow_stability_probe(
            cfg.spec, pa, offsets,
            simulate.KeyedNoise(cfg.seed, cfg.n_paths, cfg.grid), cfg.grid)
        rows = read_rows(tmp_path / "probe_flow.csv")
        np.testing.assert_allclose([float(r["moment"]) for r in rows], want,
                                   rtol=1e-12, atol=0)
        dists = [float(r["distance"]) for r in rows]
        slope = float(np.polyfit(np.log(dists), np.log(want), 1)[0])
        rep = json.loads((tmp_path / "probe_flow.json").read_text())
        assert rep["slope"] == pytest.approx(slope, rel=1e-12, abs=0)
        assert rep == {"slope": rep["slope"], "n_paths": 1, "seed": cfg.seed,
                       "deterministic": True}

    def test_draws_no_noise_and_forks_nothing(self, tmp_path, monkeypatch,
                                              forking):
        calls = []
        real = simulate._keyed_normal_rows

        def counting(seed, paths, grid):
            calls.extend(paths)
            return real(seed, paths, grid)

        monkeypatch.setattr(simulate, "_keyed_normal_rows", counting)
        forked = forking(2)
        assert main(["probe-flow", "--config",
                     os.path.join(CONFIGS, "tiny1.json"),
                     "--out", str(tmp_path)]) == 0
        assert calls == [] and forked == []

    def test_stochastic_config_runs_every_path(self, tmp_path, monkeypatch):
        noises = []
        real = cli.flow_stability_probe

        def recording(spec, pair_a, pairs_b, noise, grid):
            noises.append(noise)
            return real(spec, pair_a, pairs_b, noise, grid)

        monkeypatch.setattr(cli, "flow_stability_probe", recording)
        cfg_path = clamped_tiny1(tmp_path)
        assert main(["probe-flow", "--config", cfg_path,
                     "--out", str(tmp_path)]) == 0
        cfg = RunConfig.load(cfg_path)
        [noise] = noises
        assert isinstance(noise, simulate.KeyedNoise)
        assert noise.shape == (cfg.n_paths, cfg.grid.n_steps)
        assert noise.seed == cfg.seed
        rep = json.loads((tmp_path / "probe_flow.json").read_text())
        assert rep["deterministic"] is False
        assert rep["n_paths"] == cfg.n_paths


class TestProbeFlowLadder:
    """probe-flow shrinks its offset ladder so that every offset pair acts
    at a grid time before T and inside the impulse set, and never writes a
    slope fitted to a moment that is zero or not finite."""

    @staticmethod
    def run(tmp_path, base, problem):
        raw = load_raw(base)
        raw["problem"].update(problem)
        raw["evaluation"]["n_paths"] = 200
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        return main(["probe-flow", "--config", str(cfg), "--out",
                     str(tmp_path)]), RunConfig(raw)

    @pytest.mark.parametrize("base,problem", [
        ("delay_feedback.json", {"horizon": 0.4}),
        ("delay_feedback_reduced.json", {"horizon": 0.1}),
        ("delay_feedback.json", {"impulse_set": [-0.1, 0.1]}),
        # the unshrunk ladder's longest rung lands on T, where events are
        # inert, so its moment is 0
        ("delay_feedback.json", {"horizon": 0.56}),
        # odd step counts: the base time is a grid time below T/2
        ("delay_feedback_reduced.json", {"horizon": 0.03}),
        ("delay_feedback_reduced.json", {"horizon": 0.05}),
        ("delay_feedback_reduced.json", {"horizon": 0.07})],
        ids=["horizon-0.4", "reduced-horizon-0.1", "narrow-impulse-set",
             "horizon-0.56", "reduced-horizon-0.03", "reduced-horizon-0.05",
             "reduced-horizon-0.07"])
    def test_offsets_act_before_T_inside_the_set(self, tmp_path, monkeypatch,
                                                 base, problem):
        pairs = []
        real = cli.flow_stability_probe

        def recording(spec, pair_a, pairs_b, noise, grid):
            pairs.extend([pair_a, *pairs_b])
            return real(spec, pair_a, pairs_b, noise, grid)

        monkeypatch.setattr(cli, "flow_stability_probe", recording)
        code, cfg = self.run(tmp_path, base, problem)
        assert code == 0 and len(pairs) == 5
        last = cfg.spec.horizon - cfg.dt
        assert all(t <= last + 1e-9 and cfg.spec.impulse_set.contains(u, 0.0)
                   for t, u in pairs)
        # four distinct distances, each offset moved off the base pair
        assert len(set(pairs)) == 5
        rep = json.loads((tmp_path / "probe_flow.json").read_text(),
                         parse_constant=reject_constant)
        assert np.isfinite(rep["slope"])

    def test_one_point_impulse_set_exits_2(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, "delay_feedback.json",
                           {"impulse_set": [0.5, 0.5]})
        assert code == 2
        assert "no offset ladder fits" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [0.0, float("nan"), float("inf")],
                             ids=["zero", "nan", "inf"])
    def test_bad_moment_exits_1(self, tmp_path, monkeypatch, capsys, bad):
        monkeypatch.setattr(cli, "flow_stability_probe",
                            lambda *args: [1.0, bad, 0.5, 0.25])
        code, _ = self.run(tmp_path, "tiny1.json", {})
        assert code == 1
        assert capsys.readouterr().err.startswith("runtime failure: ")
        assert not os.path.exists(tmp_path / "probe_flow.json")
