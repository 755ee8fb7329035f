"""Functoriality and laxity naturality are decided on generating squares,
and the monoidal axioms block by block; the verdict and every invalid report
must match exhaustive oracles that try every square, and build every
associator, braiding and Kronecker product, on plain lists."""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cosegal.chain import ChainMap, cylinder_factorization, tensor_map
from cosegal.field_linalg import GF2, GF3, GF5, QQ, Field, Matrix
from cosegal.free_gamma import gamma_na
from cosegal.phi_epi import compose, enumerate_surjections, generating_surjections
from cosegal.premonoid import (
    DiagramMorphism,
    LaxDiagram,
    StrictMonoid,
    from_strict,
    h_star,
    validate,
    validate_morphism,
    validate_strict,
)
from cosegal.sampling import (
    exterior_monoid,
    monoid_tensor,
    random_chain_map,
    random_strict_monoid,
    random_tower_diagram,
    random_two_constant,
)
from cosegal.two_constant import expand_to_premonoid

from oracles import (
    oracle_lax_functor_failures,
    oracle_monoidal_failures,
    oracle_morphism_failures,
    oracle_strict_failures,
    oracle_surjections,
)

FIELDS = [GF2, GF3, GF5, Field(2**31 - 1), QQ]


def _rows(m):
    conv = Fraction if m.field.is_rational else int
    return [[conv(x) for x in row] for row in m.tolist()]


def _maps(f):
    return {deg: _rows(m) for deg, m in f.components.items()}


def _lists(d):
    """d's dims, structure, laxity and unit as the oracles take them."""
    return (
        {n: dict(c.dims) for n, c in d.objects.items()},
        {tuple(v.map): _maps(f) for v, f in d.structure.items()},
        None if d.laxity is None else {pq: _maps(f) for pq, f in d.laxity.items()},
        None if d.unit is None else _maps(d.unit),
    )


def _oracle(d, laxity: bool):
    """The oracles' full report for d, read without its laxity maps unless
    `laxity`."""
    dims, structure, lax, unit = _lists(d)
    p = d.field.characteristic
    out = oracle_lax_functor_failures(d.level, dims, structure, lax if laxity else None, p)
    if laxity and unit is not None:
        out += oracle_monoidal_failures(d.level, dims, structure, lax, unit, p)
    return out


def _report(report):
    return [(v.axiom, v.where) for v in report]


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


def _scaled(f: ChainMap, c) -> ChainMap:
    return ChainMap(f.source, f.target, {n: m.scale(c) for n, m in f.components.items()})


def _perturb(rng, d, where: str):
    """d with structure or laxity maps or its unit replaced: `where` is
    "generator", "other" (surjections outside the generating set), "several"
    (any surjections), "laxity" (one laxity map), "unit", or "scaled" (every
    laxity map times one scalar other than 1: 0 over F_2, 2 over F_p, 3/2
    over Q, which keeps every axiom but diag-unitality)."""
    gens = set(generating_surjections(d.level))
    structure = dict(d.structure)
    laxity = dict(d.laxity)
    unit = d.unit
    keys = sorted(structure)
    picks = []
    if where == "generator":
        picks = rng.sample(sorted(v for v in keys if v in gens), 1)
    elif where == "other":
        picks = rng.sample(sorted(v for v in keys if v not in gens), 1)
    elif where == "several":
        picks = rng.sample(keys, rng.randint(2, 4))
    elif where == "laxity":
        pq = rng.choice(sorted(laxity))
        laxity[pq] = random_chain_map(rng, laxity[pq].source, laxity[pq].target)
    elif where == "unit":
        unit = random_chain_map(rng, unit.source, unit.target)
    else:
        c = {GF2: 0, QQ: Fraction(3, 2)}.get(d.field, 2)
        laxity = {pq: _scaled(f, c) for pq, f in laxity.items()}
    for v in picks:
        structure[v] = _other_map(rng, d, v, structure[v])
    return LaxDiagram(d.level, d.objects, structure, laxity, unit)


def _premonoid(rng, field, level: int, kind: int, graded: bool = False):
    if kind == 0:
        return from_strict(random_strict_monoid(rng, field, allow_graded=graded), level)
    if kind == 1:
        return expand_to_premonoid(random_two_constant(rng, field), level)
    m = random_strict_monoid(rng, field, allow_graded=graded)
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
        got = _report(validate(d))
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
            assert _report(validate(bad)) == _oracle(bad, True), where
            plain = LaxDiagram(bad.level, bad.objects, bad.structure)
            assert _report(validate(plain)) == _oracle(bad, False), where


def test_rational_premonoid_matches_oracle():
    rng = random.Random(31)
    base = from_strict(random_strict_monoid(rng, QQ, allow_graded=False), 3)
    for where in ("generator", "other", "several", "laxity"):
        d = _perturb(rng, base, where)
        assert _report(validate(d)) == _oracle(d, True), where


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_monoidal_perturbations_match_the_whole_map_oracle(field):
    rng = random.Random(500 + field.characteristic % 997)
    wheres = ("laxity", "unit", "scaled", "multiplication")
    seen = Counter()
    for trial in range(12):
        where, level = wheres[trial % 4], 3 + trial // 4 % 2
        if where == "multiplication":
            # a constant premonoid with one random mu' at every laxity entry; at
            # level 3 on Lambda(x, y), whose odd generators anticommute, so that
            # the braiding's Koszul sign decides symmetry
            m = (monoid_tensor(exterior_monoid(field), exterior_monoid(field)) if level == 3
                 else random_strict_monoid(rng, field, allow_graded=False))
            base = from_strict(m, level)
            mu = random_chain_map(rng, m.mu.source, m.mu.target)
            d = LaxDiagram(level, base.objects, base.structure, dict.fromkeys(base.laxity, mu),
                           base.unit)
        else:
            # the apex and the cylinder of a graded monoid are large, so those
            # kinds are drawn at level 4 only
            base = _premonoid(rng, field, level, trial % 3 if level == 4 else 0, graded=level == 3)
            d = _perturb(rng, base, where)
        assert validate(base) == [] == _oracle(base, True)
        expected = _oracle(d, True)
        assert _report(validate(d)) == expected, (where, trial)
        seen.update({axiom for axiom, _ in expected})
    assert seen["laxity-associativity"] and seen["laxity-symmetry"], seen
    assert seen["diag-unitality"] >= 6, seen


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
    for where in ("generator", "other", "several", "laxity", "unit", "scaled"):
        d = _perturb(rng, base, where)
        expected = _oracle(d, True)
        assert _report(validate(d)) == expected, where
        if where in ("laxity", "unit", "scaled"):
            assert {"laxity-associativity", "diag-unitality"} & {a for a, _ in expected}, where


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
        assert expected and _report(validate(d)) == expected, vs


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_strict_monoid_checks_match_the_whole_map_oracle(field):
    rng = random.Random(600 + field.characteristic % 997)
    seen = Counter()
    for trial in range(12):
        m = random_strict_monoid(rng, field)
        mu, e = m.mu, m.e
        kind = trial % 4
        if kind == 1:
            mu = random_chain_map(rng, mu.source, mu.target)
        elif kind == 2:
            e = random_chain_map(rng, e.source, e.target)
        elif kind == 3:
            mu = _scaled(mu, {GF2: 0, QQ: Fraction(3, 2)}.get(field, 2))
        expected = oracle_strict_failures(dict(m.obj.dims), _maps(mu), _maps(e),
                                          field.characteristic)
        assert _report(validate_strict(StrictMonoid(m.obj, mu, e))) == expected, trial
        assert kind or not expected
        seen.update(a for a, _ in expected)
    assert seen["left-unit"] and seen["right-unit"] and seen["associativity"], seen


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_morphism_checks_match_the_whole_map_oracle(field):
    # the canonical morphism of a rebasing along a cylinder projection, then
    # a component, a laxity map or a unit of either end replaced
    rng = random.Random(700 + field.characteristic % 997)
    seen = Counter()
    for trial in range(12):
        m = random_strict_monoid(rng, field)
        i, p = cylinder_factorization(ChainMap.identity(m.obj))
        f = from_strict(m, 3 + trial % 2)
        _, s = h_star(f, p, i @ m.e)
        kind = trial % 4
        if kind == 0:
            comps = dict(s.components)
            n = rng.randrange(1, f.level + 1)
            comps[n] = random_chain_map(rng, comps[n].source, comps[n].target)
            s = DiagramMorphism(s.source, s.target, comps)
        elif kind in (1, 2):
            where = ("laxity", "unit")[trial // 4 % 2]
            if kind == 1:
                s = DiagramMorphism(s.source, _perturb(rng, s.target, where), s.components)
            else:
                s = DiagramMorphism(_perturb(rng, s.source, where), s.target, s.components)
        expected = oracle_morphism_failures(
            f.level, _lists(s.source), _lists(s.target),
            {n: _maps(c) for n, c in s.components.items()}, field.characteristic,
        )
        assert _report(validate_morphism(s)) == expected, trial
        seen.update(a for a, _ in expected)
    assert seen["multiplicativity"] and seen["naturality"] and seen["unit-triangle"], seen
