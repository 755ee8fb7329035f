import gc
import random

import pytest

from cosegal.chain import (
    ChainMap,
    homology_dims,
    single_complex,
    tensor,
    wide_pushout,
    zero_complex,
)
from cosegal.field_linalg import GF2, GF3, QQ
from cosegal.free_gamma import (
    classical_latching,
    delta_map,
    gamma_na,
    lan_entry,
    lax_latching,
    universal_extension,
)
from cosegal.phi_epi import (
    PairObject,
    enumerate_surjections,
    latching_shape,
    unique_to_one,
)
from cosegal.premonoid import DiagramMorphism, LaxDiagram, validate, validate_morphism
from cosegal.sampling import (
    random_chain_map,
    random_complex,
    random_diagram_morphism,
    random_strict_monoid,
    random_tower_diagram,
    tower_diagram,
)

from oracles import classical_joint, colimit_dim


def s0_fixture(field=GF2):
    s0 = single_complex(field, 0, 1)
    u2 = unique_to_one(2)
    swap = [v for v in enumerate_surjections(2, 2) if not v.is_identity()][0]
    f = LaxDiagram(
        2, {1: s0, 2: s0}, {u2: ChainMap.identity(s0), swap: ChainMap.identity(s0)}
    )
    assert validate(f) == []
    return f


def na_from_level1(a, field):
    """Degenerate lax diagram with only a level-1 object, enough to feed the
    level-2 latching construction."""
    z = zero_complex(field)
    u2 = unique_to_one(2)
    swap = [v for v in enumerate_surjections(2, 2) if not v.is_identity()][0]
    return LaxDiagram(
        2,
        {1: a, 2: z},
        {u2: ChainMap.zero(a, z), swap: ChainMap.zero(z, z)},
        laxity={(1, 1): ChainMap.zero(tensor(a, a), z)},
    )


def test_lax_latching_level2_shape():
    rng = random.Random(3)
    a = random_complex(rng, GF2, 0, 1, 2)
    latching = lax_latching(na_from_level1(a, GF2), 2)
    lat, legs = latching.obj, latching.legs
    aa = tensor(a, a)
    for n in set(lat.dims) | set(aa.dims) | set(a.dims):
        assert lat.dim(n) == 2 * aa.dim(n) + a.dim(n)
    # no connecting arrows at level 2: the legs are direct-sum inclusions
    shape = latching_shape(2)
    assert len(legs) == 3
    for leg in legs:
        for n in leg.source.dims:
            assert leg.component(n).is_injective()


def test_lax_latching_zero_diagram():
    lat = lax_latching(na_from_level1(zero_complex(GF2), GF2), 2).obj
    assert lat.is_zero_complex()


def test_lax_latching_level3_dimension_matches_colimit_oracle():
    rng = random.Random(5)
    f = random_tower_diagram(rng, GF2, 3, 0, 1, 2)
    g, eta = gamma_na(f)
    # recompute the level-3 lax latching of the partial diagram with the
    # plain-list colimit oracle
    partial = LaxDiagram(
        2,
        {1: g.objects[1], 2: g.objects[2]},
        {v: m for v, m in g.structure.items() if v.source_size <= 2},
        laxity={(1, 1): g.laxity[(1, 1)]},
    )
    lat = lax_latching(partial, 3).obj
    shape = latching_shape(3)
    values = []
    for ob in shape.objects:
        if isinstance(ob, PairObject):
            values.append(tensor(partial.objects[ob.p], partial.objects[ob.q]))
        else:
            values.append(partial.objects[ob.p])
    from cosegal.free_gamma import _shape_arrow_map

    degrees = sorted({n for v in values for n in v.dims})
    for deg in degrees:
        node_dims = [v.dim(deg) for v in values]
        arrows = []
        for arr in shape.arrows:
            m = _shape_arrow_map(partial, shape, arr)
            arrows.append((arr.src, arr.tgt, m.component(deg).tolist()))
        assert lat.dim(deg) == colimit_dim(node_dims, arrows, 2), deg


def test_classical_latching_level2_is_level1_object():
    f = s0_fixture()
    latching = classical_latching(f, 2)
    lat, legs = latching.obj, latching.legs
    assert lat == f.objects[1]
    assert len(legs) == 1


def test_delta_map_level2_is_summand_inclusion():
    f = s0_fixture()
    h = na_from_level1(f.objects[1], GF2)
    d = delta_map(f, h, 2)
    # classical latching at 2 is F(1); the image lands in the single-level
    # summand of the lax latching
    assert d.source == f.objects[1]
    assert d.component(0).is_injective()


def test_delta_map_zero_diagram():
    z = zero_complex(GF2)
    u2 = unique_to_one(2)
    swap = [v for v in enumerate_surjections(2, 2) if not v.is_identity()][0]
    f = LaxDiagram(2, {1: z, 2: z}, {u2: ChainMap.zero(z, z), swap: ChainMap.zero(z, z)})
    d = delta_map(f, na_from_level1(z, GF2), 2)
    assert d.is_zero()


def test_gamma_s0_fixture_dimension_three():
    f = s0_fixture()
    g, eta = gamma_na(f)
    assert g.objects[1] == f.objects[1]
    assert g.objects[2].dims == {0: 3}
    assert validate(g) == []
    assert validate_morphism(eta) == []
    # oracle: joint colimit dimension = 2 pair nodes + 1 plus node +
    # 1 classical node + the level-2 object, glued along 2 relations
    node_dims = [1, 1, 1, 1, 1]
    arrows = [(3, 4, [[1]]), (3, 1, [[1]])]
    # classical node index 3 maps to the level-2 node (4) and one lax plus
    # node; which plus node it is does not change the dimension
    assert colimit_dim(node_dims, arrows, 2) == 3


def test_gamma_zero_diagram():
    z = zero_complex(GF2)
    u2 = unique_to_one(2)
    swap = [v for v in enumerate_surjections(2, 2) if not v.is_identity()][0]
    f = LaxDiagram(2, {1: z, 2: z}, {u2: ChainMap.zero(z, z), swap: ChainMap.zero(z, z)})
    g, eta = gamma_na(f)
    assert g.objects[1].is_zero_complex()
    assert g.objects[2].is_zero_complex()


def test_gamma_eta_level1_identity_always():
    rng = random.Random(7)
    for _ in range(5):
        f = random_tower_diagram(rng, GF2, 2, 0, 1, 2)
        g, eta = gamma_na(f)
        assert eta.components[1] == ChainMap.identity(f.objects[1])
        assert g.objects[1] == f.objects[1]


@pytest.mark.parametrize("field", [GF2, GF3], ids=str)
def test_triangle_identity_random(field):
    rng = random.Random(11 if field is GF2 else 13)
    for _ in range(4):
        f = random_tower_diagram(rng, field, 3, 0, 1, 2)
        g, eta = gamma_na(f)
        ext = universal_extension(f, g, eta)
        for n in range(1, 4):
            assert ext.components[n] == ChainMap.identity(g.objects[n])


def test_universal_extension_to_strict_monoid_diagram():
    # target: the lax diagram underlying a constant strict monoid
    rng = random.Random(17)
    m = random_strict_monoid(rng, GF2, allow_graded=False)
    from cosegal.premonoid import from_strict

    fm = from_strict(m, 2)
    g = LaxDiagram(
        2, dict(fm.objects), dict(fm.structure), laxity=dict(fm.laxity)
    )
    f = random_tower_diagram(rng, GF2, 2, 0, 0, 2)
    phi = random_diagram_morphism(rng, f, g)
    assert validate_morphism(phi) == []
    ext = universal_extension(f, g, phi)
    assert validate_morphism(ext) == []
    free, eta = gamma_na(f)
    # restriction along the unit recovers phi
    for n in (1, 2):
        assert ext.components[n] @ eta.components[n] == phi.components[n]


def test_adjunction_injective_on_morphisms():
    rng = random.Random(19)
    f = random_tower_diagram(rng, GF2, 2, 0, 0, 2)
    m = random_strict_monoid(rng, GF2, allow_graded=False)
    from cosegal.premonoid import from_strict

    fm = from_strict(m, 2)
    g = LaxDiagram(2, dict(fm.objects), dict(fm.structure), laxity=dict(fm.laxity))
    seen = {}
    for _ in range(12):
        phi = random_diagram_morphism(rng, f, g)
        ext = universal_extension(f, g, phi)
        key = tuple(
            sorted(
                (n, deg, tuple(map(tuple, mat.tolist())))
                for n, cm in ext.components.items()
                for deg, mat in cm.components.items()
            )
        )
        if key in seen:
            assert seen[key] == phi.components, "distinct morphisms, equal extensions"
        seen[key] = phi.components


def test_extension_refuses_a_target_without_laxity():
    f = s0_fixture()
    with pytest.raises(ValueError, match="needs laxity"):
        universal_extension(f, f, DiagramMorphism.identity(f))


def test_extension_refuses_a_phi_that_is_not_natural():
    # eta with a zero level-2 component: the middle node f(1) is sent by
    # g(v) . phi_1, which is not zero, but through f(2) by phi_2 . f(v) = 0,
    # so the level-2 cocone does not descend
    s0 = single_complex(GF2, 0, 1)
    f = tower_diagram([ChainMap.identity(s0)])
    g, eta = gamma_na(f)
    phi = DiagramMorphism(f, g, {1: eta.component(1), 2: ChainMap.zero(s0, g.objects[2])})
    assert validate_morphism(phi) != []
    with pytest.raises(ValueError, match="does not descend"):
        universal_extension(f, g, phi)


def test_latching_refuses_a_level_beyond_the_diagram():
    f = random_tower_diagram(random.Random(31), GF2, 2, 0, 1, 2)
    for build in (
        lambda: lax_latching(f, 4),
        lambda: classical_latching(f, 4),
        lambda: delta_map(f, f, 4),
    ):
        with pytest.raises(ValueError, match="level out of range"):
            build()


def test_free_construction_builds_each_joint_colimit_once(monkeypatch):
    import cosegal.free_gamma as free_gamma

    calls = []
    real = free_gamma.colimit

    def counting(nodes, arrows):
        calls.append(len(nodes))
        return real(nodes, arrows)

    monkeypatch.setattr(free_gamma, "colimit", counting)
    f = random_tower_diagram(random.Random(47), GF3, 3, 0, 1, 1)
    g, eta = gamma_na(f)
    ext = universal_extension(f, g, eta)
    # the extension reads the joints of the live gamma_na(f) result
    assert len(calls) == 2
    assert ext.source is g


def _below(g, n):
    """g truncated to the levels below n, as the free construction sees it
    when it glues level n."""
    return LaxDiagram(
        n - 1,
        {p: g.objects[p] for p in range(1, n)},
        {v: m for v, m in g.structure.items() if v.source_size < n},
        laxity={pq: m for pq, m in g.laxity.items() if sum(pq) < n},
    )


def test_joint_colimits_match_the_classical_latching_oracle(monkeypatch):
    # each level is glued along one span f(n) <- f(p) -> free(p) per plus
    # object; the classical latching arrows it leaves out add no relation,
    # so the object, legs (side by side, the projection) and free columns in
    # every degree equal those of the gluing along the whole classical shape,
    # which the oracle builds from its own crawl of the shapes
    import cosegal.free_gamma as free_gamma

    arrow_counts, classical_shapes = [], []
    real_colimit, real_shape = free_gamma.colimit, free_gamma.latching_shape

    def counting_colimit(nodes, arrows):
        arrow_counts.append(len(arrows))
        return real_colimit(nodes, arrows)

    def watched_shape(n, classical=False):
        classical_shapes.append(classical)
        return real_shape(n, classical=classical)

    monkeypatch.setattr(free_gamma, "colimit", counting_colimit)
    monkeypatch.setattr(free_gamma, "latching_shape", watched_shape)
    rng = random.Random(59)
    towers = [
        random_tower_diagram(rng, field, level, 0, 1, 2)
        for field in (GF2, GF3, QQ)
        for level in (2, 3, 3, 3)
    ]
    s0 = single_complex(GF2, 0, 1)
    towers.append(tower_diagram([ChainMap.identity(s0)] * 3))
    for f in towers:
        arrow_counts.clear()
        classical_shapes.clear()
        g, eta = gamma_na(f)
        assert not any(classical_shapes)
        # 2, 62 and 2,150 arrows against the classical gluing's 2, 74, 2,610
        assert arrow_counts == [2, 62, 2150][: f.level - 1]
        for n, (_, joint) in g._free_joints.items():
            want, count = classical_joint(f, _below(g, n), eta.components, n)
            assert count == [2, 74, 2610][n - 2]
            assert joint.obj == want.obj
            assert joint.legs == want.legs
            assert joint.by_node == want.by_node


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=["F_2", "F_3", "Q"])
def test_extension_is_the_same_with_or_without_a_live_free_construction(field):
    import cosegal.free_gamma as free_gamma

    rng = random.Random(53)
    for level in (2, 3, 2, 3):
        f1 = random_tower_diagram(rng, field, level, 0, 1, 2)
        f2 = random_tower_diagram(rng, field, level, 0, 1, 2)
        sigma = random_diagram_morphism(rng, f1, f2)
        g2, eta2 = gamma_na(f2)
        phi = DiagramMorphism(f1, g2, {n: eta2.components[n] @ sigma.components[n] for n in sigma.components})
        g1, eta1 = gamma_na(f1)
        ext = universal_extension(f1, g2, phi)
        assert ext.source is g1
        alive = ext.components
        del g1, eta1, ext
        gc.collect()
        assert (id(f1),) not in free_gamma._FREE_MEMO
        rebuilt = universal_extension(f1, g2, phi).components
        assert alive.keys() == rebuilt.keys()
        for n in alive:
            assert alive[n] == rebuilt[n]


def test_extension_deterministic():
    rng = random.Random(23)
    f = random_tower_diagram(rng, GF2, 2, 0, 1, 2)
    g, eta = gamma_na(f)
    e1 = universal_extension(f, g, eta)
    e2 = universal_extension(f, g, eta)
    assert e1.components == e2.components


def test_gamma_functorial_on_morphisms():
    rng = random.Random(29)
    f1 = random_tower_diagram(rng, GF2, 2, 0, 1, 2)
    f2 = random_tower_diagram(rng, GF2, 2, 0, 1, 2)
    sigma = random_diagram_morphism(rng, f1, f2)
    g1, eta1 = gamma_na(f1)
    g2, eta2 = gamma_na(f2)
    comps = {n: eta2.components[n] @ sigma.components[n] for n in sigma.components}
    phi = DiagramMorphism(f1, g2, comps)
    gsigma = universal_extension(f1, g2, phi)
    # the image of sigma commutes with the units
    for n in (1, 2):
        assert gsigma.components[n] @ eta1.components[n] == phi.components[n]


def test_lan_entry_cases():
    rng = random.Random(31)
    m0 = random_complex(rng, GF2, 0, 1, 2)
    m1 = random_complex(rng, GF2, 0, 1, 2)
    f = random_chain_map(rng, m0, m1)
    # below the level: the source, verbatim
    assert lan_entry(f, 2, 1) == m0
    assert lan_entry(f, 3, 2) == m0
    # at p = n: n! amalgamated copies
    le = lan_entry(f, 2, 2)
    wp = wide_pushout([f, f])[0]
    assert le == wp
    # identity arrow: every entry has the dimensions of m0
    le_id = lan_entry(ChainMap.identity(m0), 3, 3)
    for n in set(le_id.dims) | set(m0.dims):
        assert le_id.dim(n) == m0.dim(n)
    assert homology_dims(le_id) == homology_dims(m0)


def test_lan_entry_dimension_oracle():
    rng = random.Random(37)
    m0 = random_complex(rng, GF3, 0, 1, 2)
    m1 = random_complex(rng, GF3, 0, 1, 2)
    f = random_chain_map(rng, m0, m1)
    le = lan_entry(f, 2, 3)  # |Surj(3,2)| = 6 copies
    for deg in set(le.dims) | set(m0.dims) | set(m1.dims):
        node_dims = [m0.dim(deg)] + [m1.dim(deg)] * 6
        mat = f.component(deg).tolist()
        arrows = [(0, k + 1, mat) for k in range(6)]
        assert le.dim(deg) == colimit_dim(node_dims, arrows, 3)


def test_gamma_on_nontrivial_swap_action():
    # input diagram where the level-2 bijection genuinely permutes a basis:
    # the free construction must thread that action through its colimits
    from cosegal.field_linalg import Matrix

    field = GF3
    a = single_complex(field, 0, 1)
    b = single_complex(field, 0, 2)
    u2 = unique_to_one(2)
    swap = [v for v in enumerate_surjections(2, 2) if not v.is_identity()][0]
    diag = ChainMap(a, b, {0: Matrix.from_rows(field, [[1], [1]])})
    flip = ChainMap(b, b, {0: Matrix.from_rows(field, [[0, 1], [1, 0]])})
    f = LaxDiagram(2, {1: a, 2: b}, {u2: diag, swap: flip})
    assert validate(f) == []
    g, eta = gamma_na(f)
    assert validate(g) == []
    assert g.structure_map(swap) @ g.structure_map(swap) == ChainMap.identity(
        g.objects[2]
    )
    ext = universal_extension(f, g, eta)
    for n in (1, 2):
        assert ext.components[n] == ChainMap.identity(g.objects[n])


def test_validate_catches_broken_laxity_naturality():
    # at level 2 every laxity-naturality square is trivial (only identity
    # surjections occur below level 3), so stage the mutation at level 3
    from cosegal.field_linalg import Matrix
    from cosegal.sampling import tower_diagram

    s0 = single_complex(GF2, 0, 1)
    f = tower_diagram([ChainMap.identity(s0), ChainMap.identity(s0)])
    g, _ = gamma_na(f)
    bad_lax = dict(g.laxity)
    m = bad_lax[(1, 1)]
    data = m.component(0).data.copy()
    data[0, 0] = (data[0, 0] + 1) % 2
    bad_lax[(1, 1)] = ChainMap(m.source, m.target, {0: Matrix(GF2, data)})
    gbad = LaxDiagram(g.level, g.objects, g.structure, laxity=bad_lax)
    report = validate(gbad)
    assert report
    assert {v.axiom for v in report} == {"laxity-naturality"}
