"""Every program attribute the traced benchmark patches still exists.

bench/layers.py lists (owner, attr) targets that the tracer reads with
vars(owner)[attr]; a deleted or renamed name would break a `--trace 1` run,
so it fails here instead.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench")


def test_every_traced_target_exists():
    sys.path.insert(0, BENCH)
    try:
        import layers
    finally:
        sys.path.remove(BENCH)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in layers.TARGETS
               if attr not in vars(owner)]
    assert not missing, f"bench/layers.py patches missing names: {missing}"
