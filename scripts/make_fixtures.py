#!/usr/bin/env python3
"""Write a small set of example documents into ./fixtures (or the directory
given as the first argument) for exercising the CLI.  Everything is seeded,
so repeated runs reproduce the same files byte for byte.

    python3 scripts/make_fixtures.py [OUT_DIR]
"""

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cosegal import documents as docs
from cosegal.chain import ChainMap, single_complex
from cosegal.field_linalg import GF2, GF3
from cosegal.premonoid import from_strict
from cosegal.sampling import (
    random_k2_instruction,
    random_strict_monoid,
    random_two_constant,
    tower_diagram,
)
from cosegal.two_constant import expand_to_premonoid


def main(out="fixtures"):
    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(12345)

    # the one-point fixture whose free construction has dimension 3 at level 2
    s0 = single_complex(GF2, 0, 1)
    diagram = tower_diagram([ChainMap.identity(s0)])
    (out / "point_diagram.json").write_text(docs.dump_document(diagram, "diagram"))

    # a 2-constant premonoid with surjective comparison, plus an instruction
    f = random_two_constant(rng, GF2, surjective_h=True)
    (out / "two_constant.json").write_text(docs.dump_document(f, "two_constant"))
    ins = random_k2_instruction(rng, f, 1)
    (out / "instruction.json").write_text(docs.dump_document(ins, "instruction"))

    # the same premonoid expanded to level 4, as a premonoid document
    (out / "premonoid_level4.json").write_text(
        docs.dump_document(expand_to_premonoid(f, 4), "premonoid")
    )

    # a constant premonoid over F_3
    m = random_strict_monoid(rng, GF3, allow_graded=False)
    (out / "constant_premonoid.json").write_text(
        docs.dump_document(from_strict(m, 3), "premonoid")
    )

    for p in sorted(out.iterdir()):
        print(p)


if __name__ == "__main__":
    main(*sys.argv[1:2])
