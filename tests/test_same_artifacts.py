"""tools/same_artifacts.py: byte-for-byte comparison of two run directories."""

import json
import os
import subprocess
import sys

import numpy as np

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


def test_every_difference_reported_in_path_order(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        (d / "sub").mkdir(parents=True)
        for name in ("a.csv", "z.csv", os.path.join("sub", "v.csv")):
            (d / name).write_text("k,v\n1,0.25\n")
        (d / "m.json").write_text(json.dumps({"v": 0.25}))
    (b / "m.json").write_text(json.dumps({"v": 0.5}))
    (b / "sub" / "v.csv").write_text("k,v\n1,0.5\n")
    proc = subprocess.run([sys.executable, TOOL, str(a), str(b)],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "differ: m.json: contents differ",
        f"differ: {os.path.join('sub', 'v.csv')}: contents differ"]
    assert proc.stderr == "identical: 2 files, 2 differ\n"

    # one-sided files, in their place in path order; with --rtol too
    (a / "b.csv").write_text("")
    (b / "n.csv").write_text("")
    for rtol, reason in ((None, "contents differ"),
                         (0.1, "1 cells beyond rtol 0.1")):
        flag = [] if rtol is None else ["--rtol", str(rtol)]
        proc = subprocess.run([sys.executable, TOOL, *flag, str(a), str(b)],
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 1
        assert [line for line in proc.stdout.splitlines()
                if line.startswith("differ: ")] == [
            f"differ: b.csv: only in {a}",
            f"differ: m.json: {reason}",
            f"differ: n.csv: only in {b}",
            f"differ: {os.path.join('sub', 'v.csv')}: {reason}"]
        assert proc.stderr == "identical: 2 files, 4 differ\n"


def run_rtol(a, b, rtol):
    proc = subprocess.run([sys.executable, TOOL, "--rtol", str(rtol), str(a),
                           str(b)], capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


def test_rtol_compares_numbers_and_reports_the_largest_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, wall, v, cell, action in ((a, 1.5, -0.5, "0.25", "CONTINUE"),
                                     (b, 9.0, -0.5000001, "0.2500001",
                                      "CONTINUE")):
        d.mkdir()
        (d / "summary.json").write_text(json.dumps(
            {"v": v, "k": 3, "backend": "grid", "wall_time": wall}, indent=2))
        (d / "values.csv").write_text(f"t,x,value\n0,1,{cell}\n0,2,{action}\n")
        (d / "notes.txt").write_text("same\n")
    assert run(a, b)[0] == 1
    code, out = run_rtol(a, b, 1e-6)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "summary.json: max abs diff 1e-07, max rel diff " \
        "2e-07, 0 cells beyond rtol"
    assert lines[1].startswith("values.csv: max abs diff 1e-07, max rel diff "
                               "4e-07, 0 cells beyond rtol")
    assert lines[2] == "within rtol 1e-06: 3 files"

    code, out = run_rtol(a, b, 1e-7)
    assert code == 1
    assert "values.csv: max abs diff 1e-07, max rel diff 4e-07, 1 cells " \
        "beyond rtol" in out
    assert "differ: summary.json: 1 cells beyond rtol 1e-07" in out

    # a flipped text cell counts, whatever the tolerance
    (b / "summary.json").write_text((a / "summary.json").read_text())
    (b / "values.csv").write_text("t,x,value\n0,1,0.25\n0,2,-1\n")
    code, out = run_rtol(a, b, 1.0)
    assert code == 1 and "values.csv: 1 cells beyond rtol" in out


def test_rtol_still_requires_the_same_shape_and_other_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "values.csv").write_text("k,v\n1,0.25\n")
        (d / "evaluate.json").write_text(json.dumps({"mean": 1.0, "n": 2}))
    (b / "values.csv").write_text("k,v\n1,0.25\n2,0.5\n")
    assert run_rtol(a, b, 1.0) == (1, "differ: values.csv: rows, cells or "
                                      "keys differ\n")
    (b / "values.csv").write_text("k,v\n1,0.25\n")
    (b / "evaluate.json").write_text(json.dumps({"mean": 1.0, "m": 2}))
    code, out = run_rtol(a, b, 1.0)
    assert code == 1 and "evaluate.json: rows, cells or keys differ" in out
    (b / "evaluate.json").write_text(json.dumps({"mean": 1.0, "n": 2}))
    (a / "manifest.txt").write_text("x")
    (b / "manifest.txt").write_text("y")
    code, out = run_rtol(a, b, 1.0)
    assert code == 1 and "manifest.txt: contents differ" in out
    assert run_rtol(a, b, -1.0)[0] == 2


def test_rtol_compares_npy_entries_and_skips_the_values_digest(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, cell, digest in ((a, "0.25", "aa"), (b, "0.2500001", "bb")):
        d.mkdir()
        (d / "v_values.csv").write_text(f"i,value\n0,{cell}\n")
        (d / "v_header.json").write_text(json.dumps(
            {"format_version": 2, "values_sha256": digest,
             "table_sha256": digest}, indent=2))
        np.save(d / "v_values.npy", np.array([[float(cell), np.nan, -0.0]]))
    # byte for byte by default: the digests and the arrays differ
    code, out = run(a, b)
    assert code == 1 and "v_header.json: contents differ" in out
    code, out = run_rtol(a, b, 1e-6)
    assert code == 0
    assert "v_values.npy: max abs diff 1e-07, max rel diff 4e-07, 0 cells " \
        "beyond rtol" in out
    assert "v_header.json: max abs diff 0, max rel diff 0, 0 cells beyond " \
        "rtol" in out
    assert out.endswith("within rtol 1e-06: 3 files\n")

    code, out = run_rtol(a, b, 1e-7)
    assert code == 1
    assert "v_values.npy: max abs diff 1e-07, max rel diff 4e-07, 1 cells " \
        "beyond rtol" in out

    # the digests are skipped, the other header keys are not
    (b / "v_header.json").write_text(json.dumps(
        {"format_version": 1, "values_sha256": "bb", "table_sha256": "bb"},
        indent=2))
    code, out = run_rtol(a, b, 1e-6)
    assert code == 1 and "v_header.json: 1 cells beyond rtol" in out

    (b / "v_header.json").write_text((a / "v_header.json").read_text())
    np.save(b / "v_values.npy", np.array([0.25, np.nan, -0.0]))
    code, out = run_rtol(a, b, 1.0)
    assert code == 1
    assert out.endswith("differ: v_values.npy: rows, cells or keys differ\n")
