"""Hom-space systems as sparse rows, against the dense Kronecker oracle.

`chain._Hom` gives the chain-map condition, pre- and post-composition and
coordinate columns as sparse blocks read off the factors' nonzeros, and
`field_linalg._block_rows` hands them to the elimination as rows.
`tests/oracles.py` keeps the dense systems the library built before: every
block a Kronecker product, placed and stacked as a dense matrix.  The
reduced row echelon form of a row space is unique, so chain-map bases,
commuting-square bases, lifts and random draws must be identical, on
complexes with empty degrees and zero differentials, over F_2, F_3, F_5 and
Q (whose maps have denominators).  A Hom space the dense blocks could not
hold is solved under a memory limit.
"""

import os
import resource
import subprocess
import sys
from random import Random

from hypothesis import given, seed, settings, strategies as st

import cosegal
from cosegal.chain import (
    ChainComplex,
    _square_space_basis,
    chain_map_basis,
    generating_cofibrations,
    has_rlp,
    rlp_window,
    solve_lifting,
)
from cosegal.field_linalg import GF2, GF3, GF5, QQ
from cosegal.sampling import (
    random_chain_map,
    random_complex,
    random_diagram_morphism,
    random_tower_diagram,
)

from oracles import (
    dense_chain_map_basis,
    dense_lifts,
    dense_random_chain_map,
    dense_random_diagram_morphism,
    dense_square_space_basis,
)

FIELDS = (GF2, GF3, GF5, QQ)


def _complex(rng, field, flat):
    """A random complex on [-1, 2] (some degrees empty), with its
    differentials dropped when `flat`."""
    c = random_complex(rng, field, -1, 2, 2)
    return ChainComplex(field, c.dims, {}) if flat else c


def _twin(rng):
    """A generator in rng's state, for drawing the same stream twice."""
    twin = Random()
    twin.setstate(rng.getstate())
    return twin


@given(st.sampled_from(FIELDS), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
@seed(18)
@settings(max_examples=100, deadline=None)
def test_hom_systems_match_the_dense_kronecker_oracle(field, draw, flat_x, flat_y):
    rng = Random(draw)
    x, y = _complex(rng, field, flat_x), _complex(rng, field, flat_y)
    assert chain_map_basis(x, y) == dense_chain_map_basis(x, y)
    twin = _twin(rng)
    g = random_chain_map(rng, x, y)
    assert g == dense_random_chain_map(twin, x, y)
    assert rng.getstate() == twin.getstate()

    u = random_complex(rng, field, 0, 1, 1)
    alpha = random_chain_map(rng, u, _complex(rng, field, False))
    gens = [gen.inclusion for gen in generating_cofibrations(field, *rlp_window(g))]
    for a in [alpha] + gens:
        squares = _square_space_basis(a, g)
        assert squares == dense_square_space_basis(a, g)
        lifts = dense_lifts(a, g, squares) if squares else []
        assert has_rlp(a, g) == (lifts is not None)
        for top, bottom in squares:
            lift = dense_lifts(a, g, [(top, bottom)])
            assert solve_lifting(a, g, top, bottom) == (None if lift is None else lift[0])


@given(st.sampled_from(FIELDS), st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
@seed(19)
@settings(max_examples=40, deadline=None)
def test_diagram_morphisms_match_the_dense_kronecker_oracle(field, draw, level):
    rng = Random(draw)
    f = random_tower_diagram(rng, field, level, 0, 1, 2)
    g = random_tower_diagram(rng, field, level, 0, 1, 2)
    twin = _twin(rng)
    eta = random_diagram_morphism(rng, f, g)
    assert eta.components == dense_random_diagram_morphism(twin, f, g).components
    assert rng.getstate() == twin.getstate()


_LAXITY_REPLACEMENT = r"""
from random import Random

from cosegal.field_linalg import GF2
from cosegal.free_gamma import gamma_na
from cosegal.sampling import random_chain_map, random_tower_diagram

g, _ = gamma_na(random_tower_diagram(Random(20), GF2, 3, 0, 1, 2))
lax = g.laxity_map(1, 2)
h = random_chain_map(Random(0), lax.source, lax.target)
print(dict(lax.source.dims), dict(lax.target.dims), sorted(h.components))
"""


def test_a_random_map_between_large_complexes_stays_small():
    # the (1, 2) laxity map of a level-3 F_2 tower's free construction: its
    # Hom space has 34,036 coordinates, and one dense Kronecker block of the
    # chain-map condition alone needs 1.42 GiB
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(cosegal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", _LAXITY_REPLACEMENT],
        capture_output=True, text=True, env=env, timeout=30, preexec_fn=limit,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (
        "{0: 20, 1: 52, 2: 48, 3: 16} {0: 120, 1: 313, 2: 288, 3: 96} [0, 1, 2, 3]\n"
    )
