"""tools/same_artifacts.py: byte-for-byte comparison of two run directories."""

import json
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "same_artifacts.py")


def run(a, b):
    proc = subprocess.run([sys.executable, TOOL, str(a), str(b)],
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


def test_wall_time_ignored_and_first_difference_named(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, wall in ((a, 1.5), (b, 9.0)):
        (d / "sub").mkdir(parents=True)
        (d / "summary.json").write_text(json.dumps(
            {"v": -0.5, "wall_time": wall}, indent=2))
        (d / "sub" / "values.csv").write_text("k,v\n1,0.25\n")
    assert run(a, b) == (0, "identical: 2 files\n")

    (b / "sub" / "values.csv").write_text("k,v\n1,0.250\n")
    code, out = run(a, b)
    assert code == 1 and os.path.join("sub", "values.csv") in out

    (b / "sub" / "values.csv").write_text("k,v\n1,0.25\n")
    # the same number, written differently
    (b / "summary.json").write_text(json.dumps({"v": -0.5, "wall_time": 1.5},
                                               indent=2).replace("-0.5", "-5e-1"))
    code, out = run(a, b)
    assert code == 1 and "summary.json" in out

    (b / "summary.json").write_text(json.dumps({"v": -0.5, "wall_time": 2.0},
                                               indent=2))
    assert run(a, b)[0] == 0
    (b / "extra.csv").write_text("")
    code, out = run(a, b)
    assert code == 1 and "extra.csv: only in" in out
