#!/usr/bin/env python3
"""Time the Hom-space systems: lifting sweeps and one large random chain map.

First the script sweeps `has_rlp` against every generating cofibration in
the window of each of the first 12 inputs of the benchmark's `lifting`
workload (seed 0).  Then it draws `random_chain_map` between the ends of the
(1, 2) laxity map of `gamma_na` on the level-3 F_2 tower
`random_tower_diagram(Random(20), GF2, 3, 0, 1, 2)`, whose Hom space has
34,036 coordinates.  It prints the seconds of each and the peak resident
set size of the process after each.

    python3 scripts/hom_timing.py
"""

import pathlib
import resource
import sys
import time
from random import Random

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from cosegal.chain import generating_cofibrations, has_rlp, rlp_window
from cosegal.field_linalg import GF2
from cosegal.free_gamma import gamma_na
from cosegal.sampling import random_chain_map, random_tower_diagram
from workloads import make_inputs


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    maps = [g for g, _ in make_inputs("lifting", 0, 12).items]
    t0 = time.perf_counter()
    calls = 0
    for g in maps:
        for gen in generating_cofibrations(g.field, *rlp_window(g)):
            has_rlp(gen.inclusion, g)
            calls += 1
    t1 = time.perf_counter()
    print(f"has_rlp on {len(maps)} lifting inputs ({calls} calls)")
    print(f"  seconds            {t1 - t0:8.2f} s")
    print(f"  peak RSS           {peak_mb():8.1f} MB")

    lax = gamma_na(random_tower_diagram(Random(20), GF2, 3, 0, 1, 2))[0].laxity_map(1, 2)
    t0 = time.perf_counter()
    random_chain_map(Random(0), lax.source, lax.target)
    t1 = time.perf_counter()
    print(f"random_chain_map {dict(lax.source.dims)} -> {dict(lax.target.dims)}")
    print(f"  seconds            {t1 - t0:8.2f} s")
    print(f"  peak RSS           {peak_mb():8.1f} MB")


if __name__ == "__main__":
    main()
