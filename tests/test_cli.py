"""Config validation and CLI subcommand integration."""

import csv
import hashlib
import json
import os
import shutil
import warnings
from collections import Counter

import numpy as np
import pytest

from sddeimpulse import ValidationError, cli, simulate
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
        assert cfg.regression.exploration_rate == 0.0

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

    def test_probe_flow_draws_each_path_once(self, tmp_path, monkeypatch):
        # counted at the keyed-stream kernel, which every noise row goes
        # through, whether drawn singly or as a matrix
        calls = []
        real = simulate._keyed_normal_rows

        def counting(seed, paths, grid):
            calls.extend(paths)
            return real(seed, paths, grid)

        monkeypatch.setattr(simulate, "_keyed_normal_rows", counting)
        cfg_path = os.path.join(CONFIGS, "tiny1.json")
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

    @pytest.mark.parametrize("edit,message", [
        (lambda h: dict(h, axes=[["x"] + h["axes"][0][1:]]),
         "v_top_header.axes: must be a 1-d array of numbers"),
        (lambda h: dict(h, axes="x"),
         "v_top_header.axes: must be a 1-d array of numbers"),
        (lambda h: {k: v for k, v in h.items() if k != "dt"},
         "v_top_header.dt: required"),
        (lambda h: {k: v for k, v in h.items() if k != "k_index"},
         "v_top_header.k_index: required"),
        (lambda h: {k: v for k, v in h.items() if k != "format_version"},
         "v_top_header.format_version: required"),
        (lambda h: dict(h, n_steps="2"),
         "v_top_header.n_steps: must be an integer"),
        (lambda h: dict(h, backend="bogus"),
         "v_top_header.backend: unknown backend 'bogus'"),
        (lambda h: "{", "v_top_header.json is not valid JSON"),
        (lambda h: [], "v_top_header: must be a JSON object")],
        ids=["axis-entry-string", "axes-string", "no-dt", "no-k_index",
             "no-format_version", "n_steps-string", "backend-bogus",
             "not-json", "not-an-object"])
    def test_exit_code_2_on_bad_artifact_header(self, tiny_run, tmp_path,
                                                capsys, edit, message):
        cfg_path, run = tiny_run
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

    def test_seed_override(self, tiny_run, tmp_path):
        cfg_path, _ = tiny_run
        out = str(tmp_path)
        assert main(["solve", "--config", cfg_path, "--out", out]) == 0
        assert main(["evaluate", "--config", cfg_path, "--out", out,
                     "--seed", "99"]) == 0
        with open(os.path.join(out, "evaluate.json")) as fh:
            assert json.load(fh)["seed"] == 99


class TestGridPolicyGoldenBits:
    """The grid policy's artifacts pinned byte for byte on the reduced
    config cut to 20 steps and 1,000 paths: the policy acts in each of
    them, so a decision that any shortcut gets wrong changes a digest."""

    @pytest.mark.parametrize("name,digest", [
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
