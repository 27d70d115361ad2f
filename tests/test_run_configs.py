"""tools/run_configs.py: the artifact sets that byte-identity checks compare."""

import json
import math
import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "tools")


def tool(name, *args):
    return subprocess.run([sys.executable, os.path.join(TOOLS, name),
                           *map(str, args)],
                          capture_output=True, text=True, check=False)


def test_tiny1_set_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert tool("run_configs.py", out, "--only", "tiny1").returncode == 0
        assert os.listdir(out) == ["tiny1"]
        codes = json.loads((out / "tiny1" / "exit_codes.json").read_text())
        assert len(codes) == 7 and set(codes.values()) == {0}
    same = tool("same_artifacts.py", a, b)
    assert same.returncode == 0, same.stdout


def test_mc_probe_set_is_reproducible(tmp_path):
    # the main config's noise cancels: the probe runs one noise-free path
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert tool("run_configs.py", out, "--only", "mc-probe").returncode == 0
        codes = json.loads((out / "mc-probe" / "exit_codes.json").read_text())
        assert codes == {"probe-flow": 0}
    same = tool("same_artifacts.py", a, b)
    assert same.returncode == 0, same.stdout


def test_stochastic_mc_probe_set_is_reproducible(tmp_path):
    # a fresh interpreter sees the real core count: on a multi-core box
    # the probe's 50,000 keyed noise rows and sup-distances are filled by
    # forked workers
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert tool("run_configs.py", out, "--only",
                    "mc-probe-stochastic").returncode == 0
        set_dir = out / "mc-probe-stochastic"
        codes = json.loads((set_dir / "exit_codes.json").read_text())
        assert codes == {"probe-flow": 0, "check-assumptions": 0}
        probe = json.loads((set_dir / "probe_flow.json").read_text())
        assert probe["deterministic"] is False
        assert probe["n_paths"] == 50000
        # on the box |x| <= 5 with |u| <= 2 the clamp at 10 never binds
        report = json.loads((set_dir / "assumptions.json").read_text())
        estimates = {c["name"]: c["estimate"] for c in report["checks"]}
        assert estimates["intervention_growth"] == -3.0
        assert estimates["intervention_lipschitz"] == math.sqrt(2.0)
    same = tool("same_artifacts.py", a, b)
    assert same.returncode == 0, same.stdout


def test_grid_reduced_set_is_reproducible(tmp_path):
    # on a multi-core box the policy's 4,000 evaluation paths and the
    # v_prev value table are each handled by a forked worker
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert tool("run_configs.py", out, "--only",
                    "grid-reduced").returncode == 0
        codes = json.loads((out / "grid-reduced" / "exit_codes.json")
                           .read_text())
        assert codes == {"solve": 0, "evaluate": 0, "simulate": 0,
                         "export-figures": 0}
    same = tool("same_artifacts.py", a, b)
    assert same.returncode == 0, same.stdout


def test_forked_regression_set_is_reproducible(tmp_path):
    # 4,096 paths are two FORK_PATHS ranges and more: on a multi-core
    # box the regression policy runs in forked workers
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert tool("run_configs.py", out, "--only",
                    "regression-lift6-forked").returncode == 0
        set_dir = out / "regression-lift6-forked"
        codes = json.loads((set_dir / "exit_codes.json").read_text())
        assert codes == {"solve": 0, "evaluate": 0}
        config = json.loads((set_dir / "config.json").read_text())
        assert config["evaluation"]["n_paths"] == 4096
        assert config["solver"]["backend"] == "regression"
    same = tool("same_artifacts.py", a, b)
    assert same.returncode == 0, same.stdout


def test_serial_grid_set_equals_the_grid_set(tmp_path):
    # one usable core: the grid levels, the policy's path ranges and the
    # value-table saves run in-process, and write the same files
    out = tmp_path / "out"
    for name in ("grid-reduced", "grid-reduced-serial"):
        assert tool("run_configs.py", out, "--only", name).returncode == 0
    codes = json.loads((out / "grid-reduced-serial" / "exit_codes.json")
                       .read_text())
    assert codes == {"solve": 0, "evaluate": 0, "simulate": 0,
                     "export-figures": 0}
    same = tool("same_artifacts.py", out / "grid-reduced",
                out / "grid-reduced-serial")
    assert same.returncode == 0, same.stdout
