#!/usr/bin/env python3
"""Time a level-4 document round trip.

The document is the free diagram of the seeded level-4 random tower with
dims {0: 1, 1: 1} (`free_timing.random_tower`, seed 0, the tower of
`free_timing.py --level 4 --dims 1,1`), written as an `na_diagram`.  The
script dumps it, reads it back, and prints the seconds of `dump_document`
and of `load_document`, the bytes and sha256 of the document, and the peak
resident set size of the process after each step.  It exits 1 unless the
reloaded diagram equals the original and dumps to the same bytes.

    python3 scripts/doc_timing.py
"""

import hashlib
import json
import pathlib
import resource
import sys
import time
from random import Random

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cosegal.documents import dump_document, load_document
from cosegal.free_gamma import gamma_na
from free_timing import random_tower  # the sibling script


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    g, _ = gamma_na(random_tower(Random(0), 4, {0: 1, 1: 1}))
    t0 = time.perf_counter()
    text = dump_document(g, "na_diagram")
    t1 = time.perf_counter()
    write_peak = _peak_mb()
    payload = json.loads(text)
    t2 = time.perf_counter()
    kind, back = load_document(payload)
    t3 = time.perf_counter()
    read_peak = _peak_mb()
    data = text.encode()
    print("level-4 random tower with dims {0: 1, 1: 1} over F_2, as an na_diagram")
    print(f"dump_document        {t1 - t0:8.2f} s")
    print(f"load_document        {t3 - t2:8.2f} s")
    print(f"bytes                {len(data):,}")
    print(f"sha256               {hashlib.sha256(data).hexdigest()}")
    print(f"peak RSS after write {write_peak:8.1f} MB")
    print(f"peak RSS after read  {read_peak:8.1f} MB")
    if kind != "na_diagram" or back != g or dump_document(back, "na_diagram") != text:
        print("the reloaded diagram differs from the original")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
