#!/usr/bin/env python3
"""Check that two run directories hold the same artifacts, byte for byte.

    python3 tools/same_artifacts.py DIR_A DIR_B

Both trees are walked; every file must exist on both sides with the same
bytes.  A file named summary.json is compared without the line that holds
its wall_time key (the CLI writes one key per line), the one field a run is
allowed to vary.  Prints the number of files
compared and exits 0 when everything matches; otherwise prints the first
difference (in sorted path order) and exits 1.  Uses the standard library
only.
"""

import os
import sys

VARYING = {"summary.json": b'"wall_time":'}


def relative_files(root):
    out = []
    for here, dirs, files in os.walk(root):
        dirs.sort()
        out.extend(os.path.relpath(os.path.join(here, f), root) for f in files)
    return sorted(out)


def content(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    key = VARYING.get(os.path.basename(path))
    if key is None:
        return blob
    return [line for line in blob.splitlines(keepends=True)
            if not line.lstrip().startswith(key)]


def first_difference(dir_a, dir_b):
    """(message, n_files): message is None when the trees match."""
    files_a, files_b = relative_files(dir_a), relative_files(dir_b)
    only = sorted(set(files_a) ^ set(files_b))
    if only:
        side = dir_a if only[0] in files_a else dir_b
        return f"{only[0]}: only in {side}", len(files_a)
    for rel in files_a:
        if content(os.path.join(dir_a, rel)) != content(os.path.join(dir_b, rel)):
            return f"{rel}: contents differ", len(files_a)
    return None, len(files_a)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(d) for d in args):
        print("usage: same_artifacts.py DIR_A DIR_B (two directories)",
              file=sys.stderr)
        return 2
    message, n = first_difference(*args)
    if message is not None:
        print(f"differ: {message}")
        return 1
    print(f"identical: {n} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
