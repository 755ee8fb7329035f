#!/usr/bin/env python3
"""Print the growth of the latching shapes feeding the free construction.

For each level n this reports the number of decomposition objects, the
number of single-level objects, the number of shape arrows, the number of
classical objects, and the seconds to build the lax shape.  This is the
table cited in the README: the free construction is practical at n <= 3 and
only feasible for very small objects at n = 4.
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from cosegal.phi_epi import PairObject, PlusObject, latching_shape


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max", type=int, default=4, help="deepest level (5 takes about 5 s)")
    args = ap.parse_args()
    print(f"{'n':>2} {'pair objs':>10} {'plus objs':>10} {'arrows':>8} "
          f"{'classical':>10} {'build time':>11}")
    for n in range(2, args.max + 1):
        t0 = time.monotonic()
        sh = latching_shape(n)
        dt = time.monotonic() - t0
        pairs = sum(1 for o in sh.objects if isinstance(o, PairObject))
        plus = sum(1 for o in sh.objects if isinstance(o, PlusObject))
        cla = len(latching_shape(n, classical=True).objects)
        print(f"{n:>2} {pairs:>10} {plus:>10} {len(sh.arrows):>8} "
              f"{cla:>10} {dt:>10.2f}s")


if __name__ == "__main__":
    main()
