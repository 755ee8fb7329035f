import random

import pytest

from cosegal.chain import (
    ChainComplex,
    ChainMap,
    GeneratingCofibration,
    associator,
    braiding,
    chain_map_basis,
    cone,
    cylinder_factorization,
    direct_sum,
    generating_cofibrations,
    has_rlp,
    homology_dims,
    is_cofibration,
    is_fibration,
    is_quasi_iso,
    is_trivial_fibration,
    pushout,
    rlp_window,
    single_complex,
    solve_lifting,
    tensor,
    tensor_map,
    unit_complex,
    wide_pushout,
    zero_complex,
)
from cosegal.field_linalg import GF2, GF3, GF5, QQ, Matrix
from cosegal.sampling import (
    random_chain_map,
    random_complex,
    random_trivial_fibration,
)

from oracles import (
    gauss_rank,
    kernel_dim_by_enumeration,
    oracle_associator,
    oracle_braiding,
    oracle_tensor_d,
    oracle_tensor_map,
    pushout_universal,
    random_complex_by_kron,
    tensor_basis,
)

FIELDS = [GF2, GF3, GF5, QQ]


def test_dd_zero_enforced():
    with pytest.raises(ValueError):
        ChainComplex(
            GF2,
            {2: 1, 1: 1, 0: 1},
            {2: Matrix.identity(GF2, 1), 1: Matrix.identity(GF2, 1)},
        )


def test_unit_complex():
    for field in (GF2, QQ):
        i = unit_complex(field)
        assert i.dims == {0: 1}
        c = random_complex(random.Random(1), field, -1, 2, 3)
        assert tensor(i, c) == c
        assert tensor(c, i) == c


def test_homology_sphere_and_disc():
    g = GeneratingCofibration(1, GF2)
    assert homology_dims(g.sphere) == {0: 1}
    assert homology_dims(g.disc) == {}


def test_homology_matches_rank_oracle():
    rng = random.Random(5)
    for field in FIELDS:
        for _ in range(10):
            c = random_complex(rng, field, 0, 2, 3)
            h = homology_dims(c)
            p = field.characteristic
            for n in {m + k for m in c.dims for k in (-1, 0, 1)}:
                rank_n = gauss_rank(c.d(n).tolist(), p)
                rank_n1 = gauss_rank(c.d(n + 1).tolist(), p)
                assert h.get(n, 0) == c.dim(n) - rank_n - rank_n1


def test_kernel_dim_by_enumeration_oracle_f2():
    rng = random.Random(9)
    c = random_complex(rng, GF2, 0, 1, 3)
    d = c.d(1)
    if d.cols:
        ker = kernel_dim_by_enumeration([list(r) for r in d.tolist()], d.cols)
        assert ker == d.cols - d.rank()


def test_quasi_iso_cases():
    s0 = single_complex(GF2, 0, 1)
    d1 = GeneratingCofibration(1, GF2).disc
    assert is_quasi_iso(ChainMap.identity(s0))
    assert is_quasi_iso(ChainMap.zero(d1, zero_complex(GF2)))
    assert not is_quasi_iso(ChainMap.zero(s0, s0))


def test_tensor_spheres():
    s1 = single_complex(GF3, 1, 1)
    assert tensor(s1, s1) == single_complex(GF3, 2, 1)


def test_braiding_chain_map_involution_hexagon():
    rng = random.Random(17)
    for field in (GF2, GF3, QQ):
        for _ in range(6):
            a = random_complex(rng, field, 0, 1, 2)
            b = random_complex(rng, field, -1, 1, 2)
            c = random_complex(rng, field, 0, 2, 2)
            tau = braiding(a, b)  # a chain map: test_trust_boundary checks it here
            assert braiding(b, a) @ tau == ChainMap.identity(tensor(a, b))
            lhs = associator(b, c, a) @ braiding(a, tensor(b, c)) @ associator(a, b, c)
            rhs = (
                tensor_map(ChainMap.identity(b), braiding(a, c))
                @ associator(b, a, c)
                @ tensor_map(braiding(a, b), ChainMap.identity(c))
            )
            assert lhs == rhs


def _rows(blocks: dict) -> dict:
    return {n: m.tolist() for n, m in blocks.items()}


def _plain_map(f: ChainMap):
    return f.source.dims, f.target.dims, _rows(f.components)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_tensor_structure_matches_basis_label_oracle(field):
    # windows reach negative degrees and leave some degrees empty; every
    # matrix is rebuilt from the labels ((i, x), (j, y)) of the tensor basis
    rng = random.Random(59)
    p = field.characteristic
    for _ in range(8):
        a, b, c = (random_complex(rng, field, -2, 1, 2) for _ in range(3))
        f, g = random_chain_map(rng, a, b), random_chain_map(rng, b, c)
        ab = tensor(a, b)
        fg, tau, alpha = tensor_map(f, g), braiding(a, b), associator(a, b, c)
        for n in range(-6, 5):
            assert ab.dim(n) == len(tensor_basis(a.dims, b.dims, n))
            expected = oracle_tensor_d(a.dims, _rows(a.diff), b.dims, _rows(b.diff), n, p)
            assert ab.d(n).tolist() == expected
            expected = oracle_tensor_map(_plain_map(f), _plain_map(g), n, p)
            assert fg.component(n).tolist() == expected
            assert tau.component(n).tolist() == oracle_braiding(a.dims, b.dims, n, p)
            expected = oracle_associator(a.dims, b.dims, c.dims, n, p)
            assert alpha.component(n).tolist() == expected


def test_braiding_involution_on_s1():
    s1 = single_complex(GF5, 1, 1)
    tau = braiding(s1, s1)
    assert tau @ tau == ChainMap.identity(tensor(s1, s1))
    # odd-odd block carries the sign
    assert tau.component(2).tolist()[0][0] == GF5.coerce(-1)


def test_kunneth_random_pairs():
    rng = random.Random(3)
    for field in FIELDS:
        for _ in range(8):
            c = random_complex(rng, field, -1, 2, 3)
            d = random_complex(rng, field, -1, 2, 3)
            hc, hd = homology_dims(c), homology_dims(d)
            ht = homology_dims(tensor(c, d))
            degrees = set(ht) | {i + j for i in hc for j in hd}
            for k in degrees:
                expected = sum(hc.get(i, 0) * hd.get(k - i, 0) for i in hc)
                assert ht.get(k, 0) == expected


def test_cylinder_identity_on_sphere():
    s0 = single_complex(GF2, 0, 1)
    i, p = cylinder_factorization(ChainMap.identity(s0))
    assert p @ i == ChainMap.identity(s0)
    assert is_cofibration(i)
    assert is_trivial_fibration(p)
    # cylinder = sphere plus an acyclic disc
    assert homology_dims(i.target) == {0: 1}
    assert i.target.total_dim() == 3


def test_cylinder_zero_source():
    s0 = single_complex(GF3, 0, 1)
    i, p = cylinder_factorization(ChainMap.zero(zero_complex(GF3), s0))
    assert i.target == s0
    assert p == ChainMap.identity(s0)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cylinder_random(field):
    rng = random.Random(29)
    for _ in range(10):
        a = random_complex(rng, field, -1, 1, 3)
        b = random_complex(rng, field, -1, 1, 3)
        f = random_chain_map(rng, a, b)
        i, p = cylinder_factorization(f)
        assert p @ i == f
        assert is_cofibration(i)
        assert is_fibration(p)
        assert is_quasi_iso(p)


def test_model_predicates_generators():
    g = GeneratingCofibration(1, GF2)
    assert is_cofibration(g.inclusion)
    assert not is_fibration(g.inclusion)
    ident = ChainMap.identity(g.disc)
    assert is_cofibration(ident) and is_fibration(ident) and is_trivial_fibration(ident)
    # quotient projection of the disc onto its top sphere: a fibration that
    # is not a quasi-isomorphism
    s1 = single_complex(GF2, 1, 1)
    proj = ChainMap(g.disc, s1, {1: Matrix.identity(GF2, 1)})
    assert is_fibration(proj)
    assert not is_quasi_iso(proj)


def test_solve_lifting_identity_alpha():
    s0 = single_complex(GF2, 0, 1)
    z = ChainMap.zero(s0, s0)
    lift = solve_lifting(ChainMap.identity(s0), z, ChainMap.identity(s0), z)
    assert lift == ChainMap.identity(s0)


def test_solve_lifting_none_when_impossible():
    # alpha : 0 -> S^0, g : 0 -> S^0, bottom = identity has no lift since
    # any k : S^0 -> 0 composes to zero
    s0 = single_complex(GF2, 0, 1)
    z = zero_complex(GF2)
    alpha = ChainMap.zero(z, s0)
    g = ChainMap.zero(z, s0)
    lift = solve_lifting(alpha, g, ChainMap.zero(z, z), ChainMap.identity(s0))
    assert lift is None


def test_solve_lifting_requires_commuting_square():
    s0 = single_complex(GF2, 0, 1)
    with pytest.raises(ValueError):
        solve_lifting(
            ChainMap.identity(s0),
            ChainMap.zero(s0, s0),
            ChainMap.identity(s0),
            ChainMap.identity(s0),
        )


@pytest.mark.parametrize("ours, theirs", [(GF2, GF3), (GF3, GF2)], ids=["F_2-F_3", "F_3-F_2"])
def test_hom_spaces_refuse_a_field_mismatch(ours, theirs):
    # a map or complex over one field against one over another is refused,
    # not solved over either field
    gen, disc = GeneratingCofibration(1, ours), GeneratingCofibration(1, theirs).disc
    g = ChainMap.identity(disc)
    top, bottom = ChainMap.zero(gen.sphere, disc), ChainMap.zero(gen.disc, disc)
    for call in (
        lambda: chain_map_basis(gen.disc, disc),
        lambda: random_chain_map(random.Random(0), gen.disc, disc),
        lambda: has_rlp(gen.inclusion, g),
        lambda: solve_lifting(gen.inclusion, g, top, bottom),
    ):
        with pytest.raises(ValueError, match="field mismatch"):
            call()


def test_trivial_fibration_lifts_against_generators():
    rng = random.Random(31)
    for _ in range(10):
        g = random_trivial_fibration(rng, GF2, -1, 1, 2)
        lo, hi = rlp_window(g)
        for gen in generating_cofibrations(GF2, lo, hi):
            assert has_rlp(gen.inclusion, g)


def test_rlp_fails_for_non_trivial_fibration():
    s0 = single_complex(GF2, 0, 1)
    assert not has_rlp(GeneratingCofibration(1, GF2).inclusion, ChainMap.zero(s0, s0))


def test_has_rlp_agrees_with_exhaustive_enumeration_f2():
    # tiny instances: enumerate every commuting square and every candidate
    # lift by brute force over F_2
    rng = random.Random(37)
    gen = GeneratingCofibration(1, GF2)
    for _ in range(6):
        x = random_complex(rng, GF2, 0, 1, 2)
        y = random_complex(rng, GF2, 0, 1, 2)
        g = random_chain_map(rng, x, y)
        # brute force: all squares (top: S^0 -> X cycle-free in deg 0, bottom: D^1 -> Y)
        tops = chain_map_basis(gen.sphere, x)
        bottoms = chain_map_basis(gen.disc, y)

        def all_combos(basis, src, tgt):
            out = []
            for bits in range(2 ** len(basis)):
                acc = ChainMap.zero(src, tgt)
                for k, b in enumerate(basis):
                    if (bits >> k) & 1:
                        acc = acc + b
                out.append(acc)
            return out

        lifts = all_combos(chain_map_basis(gen.disc, x), gen.disc, x)
        ok = True
        for top in all_combos(tops, gen.sphere, x):
            for bottom in all_combos(bottoms, gen.disc, y):
                if g @ top != bottom @ gen.inclusion:
                    continue
                if not any(
                    k @ gen.inclusion == top and g @ k == bottom for k in lifts
                ):
                    ok = False
        assert has_rlp(gen.inclusion, g) == ok


def test_pushout_cases():
    g = GeneratingCofibration(1, GF2)
    inc = g.inclusion
    # gluing two discs along their boundary sphere
    p, leg1, leg2 = pushout(inc, inc)
    assert p.dims == {1: 2, 0: 1}
    assert leg1 @ inc == leg2 @ inc
    # pushout along identity: the other map, unchanged up to iso
    s0 = g.sphere
    f = random_chain_map(random.Random(2), s0, g.disc)
    p2, l1, l2 = pushout(ChainMap.identity(s0), f)
    assert {n: p2.dim(n) for n in p2.dims} == {n: g.disc.dim(n) for n in g.disc.dims}
    assert homology_dims(p2) == homology_dims(g.disc)
    # coproduct: pushout under the zero complex
    z = zero_complex(GF2)
    p3, _, _ = pushout(ChainMap.zero(z, s0), ChainMap.zero(z, g.disc))
    assert p3.dims == {0: 2, 1: 1}


def test_pushout_universal_map():
    rng = random.Random(41)
    a = random_complex(rng, GF3, 0, 1, 2)
    b = random_complex(rng, GF3, 0, 1, 2)
    c = random_complex(rng, GF3, 0, 1, 2)
    f = random_chain_map(rng, a, b)
    g = random_chain_map(rng, a, c)
    p, leg_b, leg_c = pushout(f, g)
    # cocone via another pushout-ish target: direct test with the legs
    w = pushout_universal(leg_b, leg_c, leg_b, leg_c)
    assert w == ChainMap.identity(p)


def test_wide_pushout_degenerate():
    rng = random.Random(43)
    a = random_complex(rng, GF2, 0, 1, 2)
    b = random_complex(rng, GF2, 0, 1, 2)
    f = random_chain_map(rng, a, b)
    q, src_leg, legs = wide_pushout([f])
    assert {n: q.dim(n) for n in q.dims} == {n: b.dim(n) for n in b.dims}
    assert legs[0] @ f == src_leg


def _block_diag(field, blocks):
    """The blocks along the diagonal, zeros elsewhere."""
    width, left, rows = sum(b.cols for b in blocks), 0, []
    for b in blocks:
        rows += [[0] * left + row + [0] * (width - left - b.cols) for row in b.tolist()]
        left += b.cols
    return Matrix.from_rows(field, rows, cols=width)


def test_direct_sum_structure():
    # three summands, one of them zero, with negative degrees: the
    # projections and inclusions satisfy p_j i_k = delta_jk id and
    # sum_k i_k p_k = id, and the differential is block diagonal
    rng = random.Random(47)
    for field in (GF2, GF3, GF5, QQ):
        summands = [
            random_complex(rng, field, -2, 1, 2),
            zero_complex(field),
            random_complex(rng, field, -1, 2, 2),
        ]
        total, incls, projs = direct_sum(summands)
        assert min(total.dims) < 0
        for j, p in enumerate(projs):
            for k, i in enumerate(incls):
                if j == k:
                    assert p @ i == ChainMap.identity(summands[j])
                else:
                    assert (p @ i).is_zero()
        resolved = ChainMap.zero(total, total)
        for i, p in zip(incls, projs):
            resolved = resolved + i @ p
        assert resolved == ChainMap.identity(total)
        for n in {m + k for c in [total, *summands] for m in c.dims for k in (-1, 0, 1)}:
            assert total.dim(n) == sum(s.dim(n) for s in summands)
            assert total.d(n) == _block_diag(field, [s.d(n) for s in summands])


def test_cone_detects_quasi_iso_both_ways():
    rng = random.Random(53)
    for field in (GF2, QQ):
        c = random_complex(rng, field, 0, 2, 2)
        assert not homology_dims(cone(ChainMap.identity(c)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_random_complex_matches_the_kronecker_draw(field):
    # the same seed gives the same complex and the same rng state afterwards,
    # over windows long enough for differentials drawn under a nonzero one
    for seed in range(200):
        old, new = random.Random(seed), random.Random(seed)
        for lo, hi, max_dim in ((0, 2, 3), (-1, 3, 4)):
            assert random_complex(new, field, lo, hi, max_dim) == random_complex_by_kron(
                old, field, lo, hi, max_dim
            )
        assert new.getstate() == old.getstate()
