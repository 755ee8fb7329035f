#!/usr/bin/env python3
"""Time the free construction on the F_2 point tower.

The point tower is the level-N tower of identities on the one-dimensional
complex in degree 0.  The script runs `gamma_na` and then
`universal_extension` of its unit, as a caller of the pair does, and prints
the seconds of each and the peak resident set size of the process.

    python3 scripts/free_timing.py --level 4
"""

import argparse
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cosegal.chain import ChainMap, single_complex
from cosegal.field_linalg import GF2
from cosegal.free_gamma import gamma_na, universal_extension
from cosegal.sampling import tower_diagram


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--level", type=int, default=3, help="tower level N >= 2 (4 takes seconds)")
    args = ap.parse_args()
    if args.level < 2:
        ap.error("--level must be at least 2")
    point = single_complex(GF2, 0, 1)
    f = tower_diagram([ChainMap.identity(point)] * (args.level - 1))
    t0 = time.perf_counter()
    g, eta = gamma_na(f)
    t1 = time.perf_counter()
    universal_extension(f, g, eta)
    t2 = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"point tower over F_2, level {args.level}")
    print(f"gamma_na             {t1 - t0:8.2f} s")
    print(f"universal_extension  {t2 - t1:8.2f} s")
    print(f"peak RSS             {peak_mb:8.1f} MB")


if __name__ == "__main__":
    main()
