"""Tensor products, tensor maps, cones and cylinders write each block in
place (`chain._written`).  Each must equal its Kronecker oracle in
`oracles.py`, which forms every block with `Matrix.kron` and sums it into
place, on seeded complexes with dims <= 3 on degrees -1..2 over F_2, F_3,
F_5 and Q.  Over Q the complexes and maps are scaled so that the blocks
carry different denominators and numerators whose products pass 2^63: the
written matrices must widen to Python ints, not wrap."""

from fractions import Fraction
from random import Random

import pytest

from cosegal.chain import ChainComplex, ChainMap, cone, cylinder_factorization, tensor, tensor_map
from cosegal.field_linalg import GF2, GF3, GF5, QQ
from cosegal.sampling import random_chain_map, random_complex

from oracles import kron_cone, kron_cylinder, kron_tensor, kron_tensor_map

FIELDS = [GF2, GF3, GF5, QQ]
SEEDS = range(8)
# over Q: scales of the differentials (S) and of the maps (T); each product
# of a scaled numerator with another, or with a common-denominator factor,
# passes 2^63
S = (Fraction(2**62 + 1, 3), Fraction(2**61 + 3, 7))
T = (Fraction(2**40 + 1, 5), Fraction(2**35 - 1, 11))


def _scaled(c, s):
    """c with every differential times s (over Q; other fields keep c)."""
    if c.field is not QQ:
        return c
    return ChainComplex(QQ, dict(c.dims), {n: m.scale(s) for n, m in c.diff.items()})


def _complex(rng, field, s):
    return _scaled(random_complex(rng, field, -1, 2, 3), s)


def _pair(rng, field, s, t):
    """A random map between two complexes whose differentials share the
    scale s, so it stays a chain map, times t (over Q)."""
    x, y = _complex(rng, field, 1), _complex(rng, field, 1)
    f = random_chain_map(rng, x, y)
    if field is not QQ:
        return f
    return ChainMap(_scaled(x, s), _scaled(y, s), {n: m.scale(t) for n, m in f.components.items()})


def _wide(matrices) -> bool:
    return any(m.num.dtype == object for m in matrices)


def _diffs(c, degrees):
    return {n: c.d(n) for n in degrees}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_tensor_matches_the_kronecker_oracle(field):
    wide = []
    for seed in SEEDS:
        rng = Random(seed)
        c, d = _complex(rng, field, S[0]), _complex(rng, field, S[1])
        expected = kron_tensor(c, d)
        t = tensor(c, d)
        assert _diffs(t, expected) == expected
        assert set(t.dims) <= set(expected)
        wide.append(_wide(t.diff.values()))
    assert any(wide) == (field is QQ)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_tensor_map_matches_the_kronecker_oracle(field):
    wide = []
    for seed in SEEDS:
        rng = Random(seed)
        f, g = _pair(rng, field, S[0], T[0]), _pair(rng, field, S[1], T[1])
        expected = kron_tensor_map(f, g)
        fg = tensor_map(f, g)
        assert {n: fg.component(n) for n in expected} == expected
        wide.append(_wide(fg.components.values()))
    assert any(wide) == (field is QQ)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cone_and_cylinder_match_the_kronecker_oracle(field):
    wide = []
    for seed in SEEDS:
        f = _pair(Random(seed), field, S[0], T[1])
        expected = kron_cone(f)
        assert _diffs(cone(f), expected) == expected
        diff, inc, proj = kron_cylinder(f)
        i, p = cylinder_factorization(f)
        assert _diffs(i.target, diff) == diff
        assert {n: i.component(n) for n in inc} == inc
        assert {n: p.component(n) for n in proj} == proj
        wide.append(_wide(list(cone(f).diff.values()) + list(i.target.diff.values())))
    assert any(wide) == (field is QQ)
