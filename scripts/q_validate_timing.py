#!/usr/bin/env python3
"""Time `validate` on a level-3 premonoid over Q.

The premonoid is the level-3 expansion of the cylinder replacement
(`cosegalify_two_constant`) of `random_two_constant(Random(0), QQ,
surjective_h=False)`.  The script builds it, runs `validate` once, and
prints the seconds of `validate` and the peak resident set size of the
process.

    python3 scripts/q_validate_timing.py
"""

import pathlib
import resource
import sys
import time
from random import Random

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cosegal.field_linalg import QQ
from cosegal.premonoid import validate
from cosegal.sampling import random_two_constant
from cosegal.two_constant import cosegalify_two_constant, expand_to_premonoid


def main():
    f = random_two_constant(Random(0), QQ, surjective_h=False)
    s, _ = cosegalify_two_constant(f)
    g = expand_to_premonoid(s, 3)
    t0 = time.perf_counter()
    violations = validate(g)
    t1 = time.perf_counter()
    if violations:
        sys.exit(f"validate found {len(violations)} violations")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("cylinder replacement over Q, level 3")
    print(f"validate             {t1 - t0:8.2f} s")
    print(f"peak RSS             {peak_mb:8.1f} MB")


if __name__ == "__main__":
    main()
