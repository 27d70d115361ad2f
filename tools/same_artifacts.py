#!/usr/bin/env python3
"""Check that two run directories hold the same artifacts.

    python3 tools/same_artifacts.py [--rtol R] DIR_A DIR_B

Both trees are walked; every file must exist on both sides.  A file named
summary.json is compared without its wall_time key, the one field a run is
allowed to vary.

By default the files must hold the same bytes (summary.json without the
line that holds wall_time; the CLI writes one key per line).  Prints the
number of files compared and exits 0 when everything matches; otherwise
prints one "differ:" line per file that differs or is on one side only,
in sorted path order, then the number of identical files (on stderr), and
exits 1.

With --rtol R, .csv, .json and .npy files are compared as numbers: a CSV
cell, JSON number or array entry on one side may differ from its
counterpart by at most R times the larger magnitude of the two, and
everything else (row and cell counts, array shapes, text cells, keys,
strings) must be equal.  A JSON object's values_sha256 and table_sha256
keys are skipped: they digest a values CSV and a .npy table that are
compared entry by entry.  Other files are still compared byte for byte.
For every file that differs in its bytes the tool prints the maximum
absolute and relative difference over its numbers and the number of
cells beyond R (a text cell that differs, such as a policy action that
flipped, counts as one), before the "differ:" lines; it exits 1 if any
file has a cell beyond R or a structural difference.  Uses the standard
library, and numpy.load(..., allow_pickle=False) for .npy files.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

VARYING = {"summary.json": ("wall_time", b'"wall_time":')}


def relative_files(root):
    out = []
    for here, dirs, files in os.walk(root):
        dirs.sort()
        out.extend(os.path.relpath(os.path.join(here, f), root) for f in files)
    return sorted(out)


def content(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    varying = VARYING.get(os.path.basename(path))
    if varying is None:
        return blob
    return [line for line in blob.splitlines(keepends=True)
            if not line.lstrip().startswith(varying[1])]


class Diff:
    """Maximum absolute and relative difference over the numbers compared,
    and the count of cells beyond the tolerance."""

    def __init__(self, rtol):
        self.rtol, self.abs, self.rel, self.beyond = rtol, 0.0, 0.0, 0

    def numbers(self, a, b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        d = abs(a - b)
        rel = d / max(abs(a), abs(b)) if math.isfinite(d) else math.inf
        self.abs, self.rel = max(self.abs, d), max(self.rel, rel)
        self.beyond += not rel <= self.rtol

    def cells(self, a, b):
        try:
            self.numbers(float(a), float(b))
        except ValueError:
            self.beyond += a != b

    def arrays(self, a, b):
        """Two arrays of one shape, entry by entry; only the entries that
        differ are walked."""
        a, b = a.ravel(), b.ravel()
        differ = (a != b) & ~(np.isnan(a) & np.isnan(b))
        for x, y in zip(a[differ].tolist(), b[differ].tolist()):
            self.numbers(x, y)

    def json(self, a, b):
        """Walk two parsed JSON values; False on a structural difference."""
        number = (int, float)
        if isinstance(a, number) and isinstance(b, number) \
                and not isinstance(a, bool) and not isinstance(b, bool):
            self.numbers(float(a), float(b))
            return True
        if isinstance(a, dict) and isinstance(b, dict):
            return a.keys() == b.keys() and all(self.json(a[k], b[k]) for k in a)
        if isinstance(a, list) and isinstance(b, list):
            return len(a) == len(b) and all(map(self.json, a, b))
        return a == b


def numeric_difference(path_a, path_b, rtol):
    """A Diff of two .csv, .json or .npy files, or None if their shapes
    differ."""
    diff = Diff(rtol)
    if path_a.endswith(".npy"):
        a, b = (np.load(p, allow_pickle=False) for p in (path_a, path_b))
        if a.shape != b.shape:
            return None
        diff.arrays(a, b)
        return diff
    with open(path_a) as fa, open(path_b) as fb:
        if path_a.endswith(".json"):
            a, b = json.load(fa), json.load(fb)
            if isinstance(a, dict) and isinstance(b, dict):
                # a JSON key is never None; the digests are of a CSV and
                # a .npy that are compared entry by entry
                varying = VARYING.get(os.path.basename(path_a), (None,))
                for key in ("values_sha256", "table_sha256", varying[0]):
                    a.pop(key, None), b.pop(key, None)
            return diff if diff.json(a, b) else None
        rows_a, rows_b = fa.read().splitlines(), fb.read().splitlines()
    if len(rows_a) != len(rows_b):
        return None
    for ra, rb in zip(rows_a, rows_b):
        ca, cb = ra.split(","), rb.split(",")
        if len(ca) != len(cb):
            return None
        for a, b in zip(ca, cb):
            diff.cells(a, b)
    return diff


def compare(dir_a, dir_b, rtol=None):
    """(differences, n_identical, report): one line per file that differs
    (beyond rtol, if given) or is on one side only, in sorted path order;
    the number of files whose contents match on both sides; and, given
    rtol, one line per file compared as numbers."""
    files_a, files_b = set(relative_files(dir_a)), set(relative_files(dir_b))
    differences, identical, report = [], 0, []
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            side = dir_a if rel in files_a else dir_b
            differences.append(f"{rel}: only in {side}")
            continue
        pa, pb = os.path.join(dir_a, rel), os.path.join(dir_b, rel)
        if content(pa) == content(pb):
            identical += 1
            continue
        if rtol is None or not rel.endswith((".csv", ".json", ".npy")):
            differences.append(f"{rel}: contents differ")
            continue
        diff = numeric_difference(pa, pb, rtol)
        if diff is None:
            differences.append(f"{rel}: rows, cells or keys differ")
            continue
        report.append(f"{rel}: max abs diff {diff.abs:.3g}, max rel diff "
                      f"{diff.rel:.3g}, {diff.beyond} cells beyond rtol")
        if diff.beyond:
            differences.append(f"{rel}: {diff.beyond} cells beyond rtol "
                               f"{rtol:g}")
    return differences, identical, report


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare the artifacts of two run directories.")
    parser.add_argument("dirs", nargs="*", metavar="DIR")
    parser.add_argument("--rtol", type=float, default=None,
                        help="compare CSV cells, JSON numbers and .npy "
                             "entries within this relative tolerance "
                             "(default: byte for byte)")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if len(args.dirs) != 2 or not all(os.path.isdir(d) for d in args.dirs) \
            or (args.rtol is not None and not args.rtol >= 0):
        print("usage: same_artifacts.py [--rtol R >= 0] DIR_A DIR_B "
              "(two directories)", file=sys.stderr)
        return 2
    differences, identical, report = compare(*args.dirs, rtol=args.rtol)
    for line in report:
        print(line)
    for line in differences:
        print(f"differ: {line}")
    if differences:
        print(f"identical: {identical} files, {len(differences)} differ",
              file=sys.stderr)
        return 1
    if report:
        print(f"within rtol {args.rtol:g}: {identical + len(report)} files")
    else:
        print(f"identical: {identical} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
