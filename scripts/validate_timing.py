#!/usr/bin/env python3
"""Time `validate` on four premonoids.

  1. Over Q, level 3: the expansion of the cylinder replacement
     (`cosegalify_two_constant`) of `random_two_constant(Random(0), QQ,
     surjective_h=False)`.
  2. Over F_2, level 4, shaped like the inputs of the benchmark's
     `cosegalify` workload: a base monoid with dims {0: 2} and an apex with
     dims {0: 3, 1: 1}, drawn from `Random(0)` until they have those shapes.
  3. Over F_2, level 3: the constant premonoid of the group algebra of
     Z/24, whose pair products are 576-dimensional and triple products
     13,824-dimensional (`validate` forms neither the triple products nor
     their associators).
  4. Over F_2, level 4: the free diagram of the random tower of
     `free_timing.py --level 4 --dims 1,1` (`free_timing.random_tower`,
     seed 0), whose level-4 complex has dimensions up to 950.

For each it runs `validate` once and prints its seconds and the peak
resident set size of the process so far, so the last case's peak is its
own.  It exits 1 if any report is non-empty.

    python3 scripts/validate_timing.py
"""

import pathlib
import resource
import sys
import time
from random import Random

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cosegal.field_linalg import GF2, QQ
from cosegal.free_gamma import gamma_na
from cosegal.premonoid import from_strict, validate
from cosegal.sampling import monoid_algebra, random_strict_monoid, random_two_constant
from cosegal.two_constant import cosegalify_two_constant, expand_to_premonoid
from free_timing import random_tower  # the sibling script


def cylinder_over_q():
    f = random_two_constant(Random(0), QQ, surjective_h=False)
    return expand_to_premonoid(cosegalify_two_constant(f)[0], 3)


def benchmark_shaped():
    rng = Random(0)
    base = random_strict_monoid(rng, GF2)
    while dict(base.obj.dims) != {0: 2}:
        base = random_strict_monoid(rng, GF2)
    f = random_two_constant(rng, GF2, surjective_h=True, base=base)
    while dict(f.apex.dims) != {0: 3, 1: 1}:
        f = random_two_constant(rng, GF2, surjective_h=True, base=base)
    return expand_to_premonoid(f, 4)


def group_algebra_z24():
    table = [[(i + j) % 24 for j in range(24)] for i in range(24)]
    return from_strict(monoid_algebra(GF2, table), 3)


def free_diagram():
    return gamma_na(random_tower(Random(0), 4, {0: 1, 1: 1}))[0]


def main() -> int:
    cases = [
        ("cylinder replacement over Q, level 3", cylinder_over_q),
        ("benchmark-shaped premonoid over F_2, level 4", benchmark_shaped),
        ("group algebra of Z/24 over F_2, level 3", group_algebra_z24),
        ("free diagram of the {0: 1, 1: 1} tower over F_2, level 4", free_diagram),
    ]
    failed = False
    for name, build in cases:
        g = build()
        t0 = time.perf_counter()
        report = validate(g)
        t1 = time.perf_counter()
        del g
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(name)
        print(f"  validate           {t1 - t0:8.3f} s")
        print(f"  peak RSS           {peak_mb:8.1f} MB")
        if report:
            print(f"  {len(report)} violations, the first: {report[0]}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
