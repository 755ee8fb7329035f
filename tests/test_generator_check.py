"""Functoriality and laxity naturality are decided on generating squares;
the verdict and every invalid report must match an exhaustive oracle that
tries every square on plain lists."""

import random
from fractions import Fraction

import numpy as np
import pytest

from cosegal.chain import ChainMap, cylinder_factorization, tensor_map
from cosegal.field_linalg import GF2, GF3, GF5, QQ, Field, Matrix
from cosegal.free_gamma import gamma_na
from cosegal.phi_epi import compose, enumerate_surjections, generating_surjections
from cosegal.premonoid import LaxDiagram, from_strict, h_star, validate
from cosegal.sampling import (
    exterior_monoid,
    random_chain_map,
    random_strict_monoid,
    random_tower_diagram,
    random_two_constant,
)
from cosegal.two_constant import expand_to_premonoid

from oracles import oracle_lax_functor_failures, oracle_surjections

SQUARE_AXIOMS = ("functoriality", "laxity-naturality")


def _rows(m):
    conv = Fraction if m.field.is_rational else int
    return [[conv(x) for x in row] for row in m.tolist()]


def _oracle(d, laxity: bool):
    return oracle_lax_functor_failures(
        d.level,
        {n: dict(c.dims) for n, c in d.objects.items()},
        {
            tuple(v.map): {deg: _rows(m) for deg, m in f.components.items()}
            for v, f in d.structure.items()
        },
        {
            pq: {deg: _rows(m) for deg, m in f.components.items()}
            for pq, f in d.laxity.items()
        }
        if laxity
        else None,
        d.field.characteristic,
    )


def _squares(report):
    return [(v.axiom, v.where) for v in report if v.axiom in SQUARE_AXIOMS]


def _other_map(rng, d, v, f: ChainMap) -> ChainMap:
    """Another chain map with the endpoints of f."""
    kind = rng.randrange(4)
    if kind == 0:
        return ChainMap.zero(f.source, f.target)
    if kind == 1:
        # the map of another surjection between the same two levels
        peers = [
            w
            for w in enumerate_surjections(v.source_size, v.target_size)
            if w != v
        ]
        if peers:
            return d.structure_map(rng.choice(peers))
    if kind == 2 and f.field == GF3:
        return ChainMap(f.source, f.target, {n: m.scale(2) for n, m in f.components.items()})
    return random_chain_map(rng, f.source, f.target)


def _perturb(rng, d, where: str):
    """d with structure or laxity maps replaced: `where` is "generator",
    "other" (surjections outside the generating set), "several" (any
    surjections) or "laxity"."""
    gens = set(generating_surjections(d.level))
    structure = dict(d.structure)
    laxity = dict(d.laxity)
    keys = sorted(structure)
    if where == "generator":
        picks = rng.sample(sorted(v for v in keys if v in gens), 1)
    elif where == "other":
        picks = rng.sample(sorted(v for v in keys if v not in gens), 1)
    elif where == "several":
        picks = rng.sample(keys, rng.randint(2, 4))
    else:
        picks = []
        pq = rng.choice(sorted(laxity))
        laxity[pq] = random_chain_map(rng, laxity[pq].source, laxity[pq].target)
    for v in picks:
        structure[v] = _other_map(rng, d, v, structure[v])
    return LaxDiagram(d.level, d.objects, structure, laxity, d.unit)


def _premonoid(rng, field, level: int, kind: int):
    if kind == 0:
        return from_strict(random_strict_monoid(rng, field, allow_graded=False), level)
    if kind == 1:
        return expand_to_premonoid(random_two_constant(rng, field), level)
    m = random_strict_monoid(rng, field, allow_graded=False)
    i, p = cylinder_factorization(ChainMap.identity(m.obj))
    return h_star(from_strict(m, level), p, i @ m.e)[0]


def test_generators_generate():
    # closing the generators under composition gives every surjection
    for n in range(1, 5):
        everything = {
            tuple(v)
            for m in range(1, n + 1)
            for k in range(1, m + 1)
            for v in oracle_surjections(m, k)
        }
        reached = {tuple(range(m)) for m in range(1, n + 1)}
        gens = generating_surjections(n)
        frontier = set(reached)
        while frontier:
            step = set()
            for w in frontier:
                for g in gens:
                    if g.target_size == len(w):
                        x = tuple(w[i] for i in g.map)  # w after g
                        if x not in reached:
                            step.add(x)
            reached |= step
            frontier = step
        assert reached == everything
    assert len(generating_surjections(4)) == 9
    assert generating_surjections(4) is generating_surjections(4)


def test_generator_square_count_at_level_four():
    gens = generating_surjections(4)
    count = sum(
        1
        for g in gens
        for k in range(1, g.target_size + 1)
        for u in enumerate_surjections(g.target_size, k)
        if not u.is_identity()
    )
    assert count == 262
    # the exhaustive check composes every composable pair
    pairs = sum(
        1
        for n in range(1, 5)
        for m in range(1, n + 1)
        for v in enumerate_surjections(n, m)
        if not v.is_identity()
        for k in range(1, m + 1)
        for u in enumerate_surjections(m, k)
        if not u.is_identity()
    )
    assert pairs == 2236
    assert compose(gens[0], gens[0]).is_identity()


@pytest.mark.parametrize("field", [GF2, GF3, GF5, Field(2**31 - 1)], ids=str)
@pytest.mark.parametrize("level", [3, 4])
def test_perturbed_premonoids_match_exhaustive_oracle(field, level):
    rng = random.Random(1000 * level + field.characteristic)
    seen_invalid = seen_valid = 0
    for trial in range(12):
        base = _premonoid(rng, field, level, trial % 3)
        assert validate(base) == []
        assert _oracle(base, True) == []
        where = ("generator", "other", "several", "laxity")[trial % 4]
        d = _perturb(rng, base, where)
        expected = _oracle(d, True)
        got = _squares(validate(d))
        assert got == expected, (where, trial)
        seen_invalid += bool(expected)
        seen_valid += not expected
    assert seen_invalid >= 6 and seen_valid >= 1


@pytest.mark.parametrize("field", [GF2, GF3], ids=str)
def test_gamma_na_outputs_match_exhaustive_oracle(field):
    rng = random.Random(7 + field.characteristic)
    frees = []
    while len(frees) < 3:
        # small enough for the dense oracle, large enough to carry a square
        g, _ = gamma_na(random_tower_diagram(rng, field, 3, 0, 1, 1))
        if 4 <= g.objects[3].total_dim() <= 30:
            frees.append(g)
    for g in frees:
        assert validate(g) == [] == _oracle(g, True)
        assert validate(LaxDiagram(g.level, g.objects, g.structure)) == [] == _oracle(g, False)
        for where in ("generator", "other", "several", "laxity"):
            bad = _perturb(rng, g, where)
            assert _squares(validate(bad)) == _oracle(bad, True), where
            plain = LaxDiagram(bad.level, bad.objects, bad.structure)
            assert _squares(validate(plain)) == _oracle(bad, False), where


def test_rational_premonoid_matches_oracle():
    rng = random.Random(31)
    base = from_strict(random_strict_monoid(rng, QQ, allow_graded=False), 3)
    for where in ("generator", "other", "several", "laxity"):
        d = _perturb(rng, base, where)
        assert _squares(validate(d)) == _oracle(d, True), where


def _transported(d, g):
    """d carried along chain automorphisms (g[n], its inverse) of its levels:
    F(v) becomes g_n.F(v).g_m^-1 for v : n ->> m, phi_{p,q} becomes
    g_{p+q}.phi_{p,q}.(g_p^-1 (x) g_q^-1) and the unit g_1.e; an isomorphic
    premonoid, so valid exactly when d is."""
    structure = {
        v: g[v.source_size][0] @ f @ g[v.target_size][1] for v, f in d.structure.items()
    }
    laxity = {
        (p, q): g[p + q][0] @ f @ tensor_map(g[p][1], g[q][1]) for (p, q), f in d.laxity.items()
    }
    return LaxDiagram(d.level, d.objects, structure, laxity, g[1][0] @ d.unit)


def test_rational_premonoid_with_huge_entries_matches_oracle():
    # g_n = c_n (1 + a_n x_n) on a base concentrated in degree 0, with x_n
    # the matrix unit e_01 at odd n and e_10 at even n (so x_n^2 = 0): then
    # F(v) = (c_n / c_m)(1 + a_n x_n)(1 - a_m x_m) for v : n ->> m.  With a_n
    # near 2^40 and denominators up to 3^25 the numerators reach 2^113, and
    # the stacked products' bounds cross 2^52 and 2^63 (a float or int64
    # product, or an unwidened side, would be wrong)
    rng = random.Random(41)
    m = random_strict_monoid(rng, QQ, allow_graded=False)
    while m.obj.dims[0] < 2:
        m = random_strict_monoid(rng, QQ, allow_graded=False)
    a, k = m.obj, m.obj.dims[0]
    upper, lower = np.zeros((k, k), dtype=np.int64), np.zeros((k, k), dtype=np.int64)
    upper[0, 1] = lower[1, 0] = 1
    x = {n: Matrix(QQ, upper if n % 2 else lower) for n in range(1, 5)}
    one = Matrix.identity(QQ, k)
    shifts = {1: 0, 2: 2**20 + 3, 3: 2**40 + 5, 4: 2**30 + 7}
    scales = {1: Fraction(1), 2: Fraction(3, 2), 3: Fraction(5, 7**12), 4: Fraction(2**9, 3**25)}
    g = {
        n: (
            ChainMap(a, a, {0: (one + x[n].scale(shifts[n])).scale(scales[n])}),
            ChainMap(a, a, {0: (one - x[n].scale(shifts[n])).scale(1 / scales[n])}),
        )
        for n in range(1, 5)
    }
    base = _transported(from_strict(m, 4), g)
    heights = {
        (v.source_size, v.target_size): max(abs(int(e)) for e in f.component(0).num.flat)
        for v, f in base.structure.items()
    }
    bounds = {
        heights[n, mm] * heights[mm, kk] * k
        for (n, mm) in heights for (m2, kk) in heights if m2 == mm
    }
    assert any(2**52 <= b < 2**63 for b in bounds) and max(bounds) >= 2**63
    assert validate(base) == [] == _oracle(base, True)
    for where in ("generator", "other", "several", "laxity"):
        d = _perturb(rng, base, where)
        assert _squares(validate(d)) == _oracle(d, True), where


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_absent_components_match_oracle(field):
    # the exterior monoid k[x]/(x^2), x in degree 1, rebased along the
    # projection h killing x: every F(v) into level 1 has no degree-1 block
    rng = random.Random(43 + field.characteristic)
    m = exterior_monoid(field)
    h = ChainMap(m.obj, m.obj, {0: Matrix.identity(field, 1)})
    base = h_star(from_strict(m, 4), h, m.e)[0]
    assert any(1 not in f.components for f in base.structure.values())
    assert validate(base) == [] == _oracle(base, True)
    # a generator's map with its degree-1 block dropped, then three maps at
    # random (a map into level 1 has none to drop)
    gens = generating_surjections(4)  # [2] a bijection of 3, [4] the codegeneracy 3 ->> 2
    picks = [[gens[2]], [gens[4]], rng.sample(sorted(base.structure), 3)]
    for vs in picks:
        structure = dict(base.structure)
        for v in vs:
            f = structure[v]
            structure[v] = ChainMap(f.source, f.target, {0: f.component(0)})
        d = LaxDiagram(base.level, base.objects, structure, base.laxity, base.unit)
        expected = _oracle(d, True)
        assert expected and _squares(validate(d)) == expected, vs
