#!/usr/bin/env python3
"""Time the free construction on an F_2 tower.

By default the tower is the point tower: the level-N tower of identities on
the one-dimensional complex in degree 0.  With `--dims A,B` it is a seeded
random tower whose complexes have dimension A in degree 0 and B in degree 1
at every level, joined by random chain maps (`--dims 1,1` is the shape of
the benchmark's `free` workload).  The script runs `gamma_na` and then
`universal_extension` of its unit, as a caller of the pair does, and prints
the seconds of each and the peak resident set size of the process.

    python3 scripts/free_timing.py --level 4
    python3 scripts/free_timing.py --level 4 --dims 1,1
"""

import argparse
import pathlib
import resource
import sys
import time
from random import Random

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cosegal.chain import ChainMap, single_complex
from cosegal.field_linalg import GF2
from cosegal.free_gamma import gamma_na, universal_extension
from cosegal.sampling import random_chain_map, random_complex, tower_diagram

SEED = 0  # of the random tower drawn for --dims


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--level", type=int, default=3, help="tower level N >= 2 (4 takes seconds)")
    ap.add_argument("--dims", help="A,B: a random tower with dims {0: A, 1: B} at every level")
    args = ap.parse_args()
    if args.level < 2:
        ap.error("--level must be at least 2")
    if args.dims is None:
        point = single_complex(GF2, 0, 1)
        f = tower_diagram([ChainMap.identity(point)] * (args.level - 1))
        name = "point tower"
    else:
        try:
            a, b = (int(x) for x in args.dims.split(","))
        except ValueError:
            ap.error("--dims takes two integers A,B")
        if min(a, b) < 0:
            ap.error("--dims must not be negative")
        f = random_tower(Random(SEED), args.level, {0: a, 1: b})
        name = f"random tower with dims {{0: {a}, 1: {b}}}"
    t0 = time.perf_counter()
    g, eta = gamma_na(f)
    t1 = time.perf_counter()
    universal_extension(f, g, eta)
    t2 = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{name} over F_2, level {args.level}")
    print(f"gamma_na             {t1 - t0:8.2f} s")
    print(f"universal_extension  {t2 - t1:8.2f} s")
    print(f"peak RSS             {peak_mb:8.1f} MB")


def random_tower(rng: Random, level: int, dims: dict):
    """A random F_2 tower whose complexes all have the given dims: each is
    drawn until its dims match, then consecutive levels get random maps."""
    dims = {n: k for n, k in dims.items() if k}
    objs = []
    while len(objs) < level:
        c = random_complex(rng, GF2, 0, 1, max(dims.values(), default=0))
        if c.dims == dims:
            objs.append(c)
    return tower_diagram([random_chain_map(rng, s, t) for s, t in zip(objs, objs[1:])])


if __name__ == "__main__":
    main()
