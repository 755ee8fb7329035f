import random

import pytest

from cosegal.chain import (
    ChainMap,
    homology_dims,
    is_cofibration,
    is_trivial_fibration,
    unit_complex,
)
from cosegal.field_linalg import GF2, GF3, QQ, Matrix
from cosegal.phi_epi import unique_to_one
from cosegal.premonoid import (
    from_strict,
    is_cosegal,
    is_easy_weq,
    to_strict,
    validate,
    validate_morphism,
)
from cosegal.sampling import (
    monoid_algebra,
    random_k2_instruction,
    random_strict_monoid,
    random_two_constant,
)
from cosegal.two_constant import (
    K2Instruction,
    TwoConstantPremonoid,
    cosegalify_two_constant,
    expand_to_premonoid,
    fundamental_factorization,
    is_k_injective,
    localizing_set,
    package_two_constant,
    push_instruction_forward,
    pushout_k2,
    reflect,
    upsilon_morphism,
    wide_pushout_two_constant,
)

from oracles import lifts_against_generators, pushout_universal


def test_localizing_set_counts():
    ts = localizing_set((0, 1), 2)
    assert len(ts) == 3
    assert {t.degree for t in ts} == {0, 1, 2}
    assert all(t.level == 2 for t in ts)
    ts3 = localizing_set((0, 1), 3)
    assert len(ts3) == 6
    assert {t.level for t in ts3} == {2, 3}
    # degenerate window: only the discs meeting the single degree
    t0 = localizing_set((0, 0), 2)
    assert {t.degree for t in t0} == {0, 1}


def test_expand_constant_case():
    m = random_strict_monoid(random.Random(1), GF2, allow_graded=False)
    f = TwoConstantPremonoid(m, m.obj, ChainMap.identity(m.obj), m.e)
    g = expand_to_premonoid(f, 3)
    assert validate(g) == []
    assert to_strict(g) == m


def test_expand_validates_with_weak_unit():
    rng = random.Random(2)
    for surj in (True, False):
        f = random_two_constant(rng, GF2, surjective_h=surj)
        g = expand_to_premonoid(f, 3)
        assert validate(g) == []
        if not (f.h.component(0).is_injective() and f.h.component(0).is_surjective()):
            assert to_strict(g) is None


def test_expansion_checks_the_base_once(monkeypatch):
    from cosegal import premonoid, two_constant

    original, calls = premonoid.validate_strict, []

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(premonoid, "validate_strict", counting)
    monkeypatch.setattr(two_constant, "validate_strict", counting)
    f = random_two_constant(random.Random(6), GF3)
    for level in (2, 3):
        calls.clear()
        expand_to_premonoid(f, level)
        assert calls == [f.base]
    calls.clear()
    from_strict(f.base, 2)
    assert calls == [f.base]


def test_reflect_cases():
    m = random_strict_monoid(random.Random(3), GF3, allow_graded=False)
    assert reflect(from_strict(m, 2)) == m
    f = random_two_constant(random.Random(4), GF3)
    assert reflect(f) == f.base
    # free-shaped input: unsupported
    g = expand_to_premonoid(f, 2)
    if to_strict(g) is None:
        with pytest.raises(ValueError):
            reflect(g)


def test_package_two_constant_roundtrip():
    f = random_two_constant(random.Random(5), GF2)
    g = expand_to_premonoid(f, 4)
    packed = package_two_constant(g)
    assert packed.base == f.base
    assert packed.apex == f.apex
    assert packed.h == f.h
    assert packed.unit_map == f.unit_map


def test_package_two_constant_needs_level_four():
    f = random_two_constant(random.Random(6), GF2)
    with pytest.raises(ValueError):
        package_two_constant(expand_to_premonoid(f, 3))


def test_fundamental_factorization():
    rng = random.Random(7)
    f = random_two_constant(rng, GF2)
    rho, eps = fundamental_factorization(f, 3)
    # rho is the identity morphism into the associated 2-constant premonoid
    assert is_easy_weq(rho)
    assert eps.component(1) == f.h
    for n in (2, 3):
        assert eps.component(n) == ChainMap.identity(f.base.obj)
    assert validate_morphism(eps) == []
    # eps . rho is the unit into the reflection
    composite = eps.compose(rho)
    assert composite.components == eps.components
    # constant input: both maps are identities
    m = f.base
    fc = TwoConstantPremonoid(m, m.obj, ChainMap.identity(m.obj), m.e)
    rho_c, eps_c = fundamental_factorization(fc, 2)
    assert all(
        eps_c.component(n) == ChainMap.identity(m.obj) for n in (1, 2)
    )


def test_pushout_k2_identity_shaped_attachment():
    # alpha glued along its own boundary inside the apex: if q factors the
    # disc is absorbed; use a surjective-h premonoid so sampling succeeds
    rng = random.Random(8)
    f = random_two_constant(rng, GF2, surjective_h=True)
    ins = random_k2_instruction(rng, f, 1)
    e, eps, i_v = pushout_k2(f, ins)
    assert reflect(e) == reflect(f)
    assert is_cofibration(eps)
    ups = upsilon_morphism(f, e, eps, 2)
    assert validate_morphism(ups) == []
    assert ups.component(2) == ChainMap.identity(f.base.obj)


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_upsilon_cuts_expansions_down_like_expanding_at_its_level(field):
    # a premonoid's truncation is the expansion at the lower level, so
    # upsilon built from level-4 expansions equals the one it expands itself
    rng = random.Random(10 + field.characteristic)
    f = random_two_constant(rng, field, surjective_h=True)
    e, eps, _ = pushout_k2(f, random_k2_instruction(rng, f, 1))
    for level in (2, 3, 4):
        assert expand_to_premonoid(f, 4).truncated(level) == expand_to_premonoid(f, level)
        ups = upsilon_morphism(expand_to_premonoid(f, 4), expand_to_premonoid(e, 4), eps, level)
        want = upsilon_morphism(f, e, eps, level)
        assert (ups.source, ups.target, ups) == (want.source, want.target, want)
        assert validate_morphism(ups) == []


def test_pushout_k2_dimension_oracle():
    rng = random.Random(9)
    f = random_two_constant(rng, GF2, surjective_h=True)
    ins = random_k2_instruction(rng, f, 1)
    e, eps, i_v = pushout_k2(f, ins)
    # pushout dimension: apex + disc - sphere when the gluing relation has
    # full rank (the sphere embeds); in general total - rank(relations)
    d = ins.alpha.degree
    from oracles import gauss_rank

    for deg in set(e.apex.dims) | set(f.apex.dims):
        total = f.apex.dim(deg) + ins.alpha.disc.dim(deg)
        rels = []
        if deg == d - 1:
            q0 = ins.q.component(deg)
            row = [int(x) for x in q0.data[:, 0]] + [-1]
            rels.append(row)
            assert e.apex.dim(deg) == total - gauss_rank(rels, 2)
        else:
            assert e.apex.dim(deg) == total


def test_pushout_k2_rejects_noncommuting_square():
    rng = random.Random(10)
    f = random_two_constant(rng, GF2, surjective_h=True)
    ins = random_k2_instruction(rng, f, 1)
    # corrupt p so the square breaks while staying a chain map: flip p by a
    # nonzero cycle-to-boundary... simplest: replace p with 0 when p != 0
    if not ins.p.is_zero():
        from cosegal.chain import GeneratingCofibration

        bad = K2Instruction(ins.alpha, ins.q, ChainMap.zero(ins.alpha.disc, f.base.obj))
        with pytest.raises(ValueError):
            pushout_k2(f, bad)


def test_pushout_k2_universal_property_sampled_cocones():
    rng = random.Random(11)
    for trial in range(6):
        f = random_two_constant(rng, GF2, surjective_h=True)
        ins = random_k2_instruction(rng, f, rng.choice([0, 1, 2]))
        e, eps, i_v = pushout_k2(f, ins)
        # cocone 1: the pushout itself; zeta must be the identity
        assert pushout_universal(eps, i_v, eps, i_v) == ChainMap.identity(e.apex)
        # cocone 2: the reflection cocone (h, p); zeta must be the new h
        assert pushout_universal(eps, i_v, f.h, ins.p) == e.h
        # cocone 3: iterate the same instruction; zeta exists and satisfies
        # the two factorizations that characterise it
        ins2 = push_instruction_forward(ins, eps)
        e2, eps2, i_v2 = pushout_k2(e, ins2)
        zeta = pushout_universal(eps, i_v, eps2 @ eps, i_v2)
        assert zeta @ eps == eps2 @ eps
        assert zeta @ i_v == i_v2
        # uniqueness on generators: the stacked legs span the pushout
        for deg in e.apex.dims:
            stacked = Matrix.hstack(
                GF2, [eps.component(deg), i_v.component(deg)]
            )
            assert stacked.rank() == e.apex.dim(deg)


def test_wide_pushout_routes_agree():
    rng = random.Random(12)
    for count in (1, 2, 3):
        f = random_two_constant(rng, GF2, surjective_h=True)
        instructions = [
            random_k2_instruction(rng, f, rng.choice([0, 1])) for _ in range(count)
        ]
        e_wide, src_leg, legs = wide_pushout_two_constant(f, instructions)
        # iterated route
        cur, carry = f, ChainMap.identity(f.apex)
        for ins in instructions:
            ins_f = push_instruction_forward(ins, carry)
            cur, leg, _ = pushout_k2(cur, ins_f)
            carry = leg @ carry
        assert {n: e_wide.apex.dim(n) for n in e_wide.apex.dims} == {
            n: cur.apex.dim(n) for n in cur.apex.dims
        }
        assert homology_dims(e_wide.apex) == homology_dims(cur.apex)
        # comparison iso constructed by the universal property
        comps = {}
        for deg in e_wide.apex.dims:
            through = Matrix.hstack(
                GF2,
                [src_leg.component(deg)] + [l.component(deg) for l in legs],
            )
            # cocone into the iterated pushout: carry on the apex and the
            # induced maps on each piece
            cocone = [carry.component(deg)]
            c2 = ChainMap.identity(f.apex)
            # rebuild the per-piece comparison: piece k attaches ins_k to f,
            # and its image in the iterated object is determined by carry
            for k, ins in enumerate(instructions):
                piece, eps_k, iv_k = pushout_k2(f, ins)
                # universal map piece -> iterated: glue carry with the disc leg
                ins_fwd = push_instruction_forward(ins, carry)
                # the iterated object also received this disc: find its leg by
                # re-running the pushout sequence and tracking the map
                cocone_k = pushout_universal(
                    eps_k, iv_k, carry, _disc_leg(f, instructions, k)
                )
                cocone.append(cocone_k.component(deg))
            from cosegal.chain import induced_matrix

            comps[deg] = induced_matrix(through, Matrix.hstack(GF2, cocone))
        comparison = ChainMap(e_wide.apex, cur.apex, comps)
        for deg in set(e_wide.apex.dims) | set(cur.apex.dims):
            m = comparison.component(deg)
            assert m.rank() == m.rows == m.cols


def _disc_leg(f, instructions, k):
    """The disc leg of instruction k inside the iterated pushout."""
    cur, carry = f, ChainMap.identity(f.apex)
    disc_legs = []
    for ins in instructions:
        ins_f = push_instruction_forward(ins, carry)
        cur, leg, iv = pushout_k2(cur, ins_f)
        disc_legs = [leg @ dl for dl in disc_legs]
        disc_legs.append(iv)
        carry = leg @ carry
    return disc_legs[k]


def test_cosegalify_properties():
    rng = random.Random(13)
    for surj in (True, False):
        f = random_two_constant(rng, GF2, surjective_h=surj)
        s, i = cosegalify_two_constant(f)
        tau = upsilon_morphism(f, s, i, 3)
        assert is_trivial_fibration(s.h)
        assert is_cosegal(expand_to_premonoid(s, 3))
        assert is_k_injective(s, 3)
        assert is_cofibration(tau.component(1))
        assert reflect(s) == reflect(f)
        assert validate_morphism(tau) == []
        assert s.h @ tau.component(1) == f.h


def test_cosegalify_idempotent_shape():
    # input whose h is already a trivial fibration: the factorization is
    # still applied and p remains a trivial fibration
    rng = random.Random(14)
    f = random_two_constant(rng, GF2, surjective_h=True)
    s1, _ = cosegalify_two_constant(f)
    s2, _ = cosegalify_two_constant(s1)
    assert is_trivial_fibration(s2.h)
    assert reflect(s2) == reflect(f)


def test_cosegalify_non_quasi_iso_h():
    # h = 0 into a 1-dim monoid from a sphere apex: not a quasi-iso; the
    # cylinder replacement must still produce a trivial fibration onto A
    field = GF2
    m = monoid_algebra(field, [[0]])
    from cosegal.chain import single_complex

    apex = unit_complex(field)
    f = TwoConstantPremonoid(m, apex, m.e @ ChainMap.identity(apex), ChainMap.identity(apex))
    s, i = cosegalify_two_constant(f)
    assert is_trivial_fibration(s.h)
    assert is_k_injective(s, 2)
    assert homology_dims(s.apex) == homology_dims(m.obj)


def test_is_k_injective_cases():
    field = GF2
    m = monoid_algebra(field, [[0, 1], [1, 0]])
    # strict monoids are injective against the whole localizing family
    strict = from_strict(m, 3)
    assert is_k_injective(strict)
    assert all(lifts_against_generators(strict.structure_map(unique_to_one(n))) for n in (2, 3))
    # non-surjective level map: not injective
    bad = TwoConstantPremonoid(m, unit_complex(field), m.e, ChainMap.identity(unit_complex(field)))
    assert not is_k_injective(bad, 2)
    assert not lifts_against_generators(bad.h)
    # cosegalify output: injective (also via the lifting route)
    s, _ = cosegalify_two_constant(bad)
    assert is_k_injective(s, 2)
    assert lifts_against_generators(s.h)


def test_is_k_injective_refuses_a_level_below_two():
    f = random_two_constant(random.Random(16), GF2)
    with pytest.raises(ValueError, match="truncation level must be at least 2"):
        is_k_injective(f, 1)
    with pytest.raises(ValueError, match="truncation level must be at least 2"):
        f.is_cosegal(1)


# every field checks the answers on the input packages and on their
# cylinder replacements, up to the listed levels
ORACLE_LEVELS = [(GF2, 4, 4), (GF3, 4, 4), (QQ, 3, 3)]


def test_package_answers_match_the_expansion():
    """The co-Segal and K-injectivity answers read off the package equal
    the answers on its expansion, which is a valid premonoid."""
    answers = {"is_cosegal": set(), "is_k_injective": set()}
    for field, input_max, output_max in ORACLE_LEVELS:
        for surj in (True, False):
            f = random_two_constant(random.Random(31), field, surjective_h=surj)
            s, i = cosegalify_two_constant(f)
            for level in range(2, input_max + 1):
                for pkg in (f, s) if level <= output_max else (f,):
                    g = expand_to_premonoid(pkg, level)
                    assert validate(g) == []
                    cosegal = pkg.is_cosegal(level)
                    injective = is_k_injective(pkg, level)
                    assert cosegal == is_cosegal(g)
                    assert injective == is_k_injective(g) == lifts_against_generators(pkg.h)
                    answers["is_cosegal"].add(cosegal)
                    answers["is_k_injective"].add(injective)
                if level <= output_max:
                    assert validate_morphism(upsilon_morphism(f, s, i, level)) == []
    assert answers == {"is_cosegal": {True, False}, "is_k_injective": {True, False}}


def test_cosegalify_tau_not_easy_weq_in_general():
    # two spheres over a 1-dim base: the cylinder inclusion changes homology
    field = GF2
    m = monoid_algebra(field, [[0]])
    from cosegal.chain import single_complex, direct_sum

    apex, incls, _ = direct_sum([unit_complex(field), single_complex(field, 0, 1)])
    h_comp = Matrix.from_rows(field, [[1, 0]])
    h = ChainMap(apex, m.obj, {0: h_comp})
    f = TwoConstantPremonoid(m, apex, h, incls[0])
    s, i = cosegalify_two_constant(f)
    tau = upsilon_morphism(f, s, i, 2)
    assert not is_easy_weq(tau)
    assert is_cofibration(tau.component(1))


def test_upsilon_composite_recovers_unit_factor_by_factor():
    # the chain rho (identity at level 1), tau (cofibration at level 1), and
    # the trivial fibration onto the base compose to the unit entrywise
    rng = random.Random(15)
    f = random_two_constant(rng, GF2)
    rho, eps = fundamental_factorization(f, 2)
    s, i = cosegalify_two_constant(f)
    tau = upsilon_morphism(f, s, i, 2)
    # entry 1: p . i = h, and rho's entry is the identity
    assert s.h @ tau.component(1) @ rho.component(1) == f.h
    assert is_cofibration(tau.component(1))
    assert is_trivial_fibration(s.h)
