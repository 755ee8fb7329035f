from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from cosegal.phi_epi import (
    PairObject,
    PlusObject,
    ShapeArrow,
    Surjection,
    block_swap,
    compose,
    disjoint_sum,
    enumerate_surjections,
    identity_surjection,
    latching_shape,
    unique_to_one,
)

from oracles import oracle_lax_shape, oracle_lax_shape_arrows, oracle_surjections, stirling2


def test_surjection_invariants():
    with pytest.raises(ValueError):
        Surjection(2, 2, (0, 0))
    with pytest.raises(ValueError):
        Surjection(0, 1, ())
    s = Surjection(3, 2, (0, 1, 1))
    assert s(2) == 1


def test_enumerate_counts_small():
    assert len(enumerate_surjections(2, 1)) == 1
    assert len(enumerate_surjections(3, 2)) == 6
    for n in range(1, 6):
        assert len(enumerate_surjections(n, n)) == factorial(n)


def test_enumerate_against_stirling_and_oracle():
    for m in range(1, 7):
        for n in range(1, m + 1):
            surjs = enumerate_surjections(m, n)
            assert len(surjs) == factorial(n) * stirling2(m, n)
            assert [s.map for s in surjs] == sorted(oracle_surjections(m, n))


def test_compose_identity_and_collapse():
    f = enumerate_surjections(3, 2)[2]
    assert compose(identity_surjection(2), f) == f
    assert compose(f, identity_surjection(3)) == f
    for m in range(2, 5):
        for n in range(1, m):
            for g in enumerate_surjections(m, n):
                assert compose(unique_to_one(n), g) == unique_to_one(m)


def test_unique_to_one():
    assert unique_to_one(3).map == (0, 0, 0)
    assert unique_to_one(1) == identity_surjection(1)


def test_disjoint_sum_of_identities():
    i1 = identity_surjection(1)
    assert disjoint_sum(i1, i1) == identity_surjection(2)


def test_disjoint_sum_blocks():
    u = unique_to_one(2)
    v = identity_surjection(2)
    s = disjoint_sum(u, v)
    assert s.map == (0, 0, 1, 2)
    assert s.source_size == 4 and s.target_size == 3


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=27, deadline=None)
def test_disjoint_sum_associative(a, b, c):
    u, v, w = unique_to_one(a), identity_surjection(b), unique_to_one(c)
    assert disjoint_sum(disjoint_sum(u, v), w) == disjoint_sum(u, disjoint_sum(v, w))


def test_block_swap_composes_to_identity():
    for p in range(1, 4):
        for q in range(1, 4):
            assert compose(block_swap(p, q), block_swap(q, p)) == identity_surjection(p + q)


def test_latching_shape_level2():
    sh = latching_shape(2)
    assert len(sh.objects) == 3
    pairs = [o for o in sh.objects if isinstance(o, PairObject)]
    plus = [o for o in sh.objects if isinstance(o, PlusObject)]
    assert len(pairs) == 2 and len(plus) == 1
    assert {tuple(o.to_sum.map) for o in pairs} == {(0, 1), (1, 0)}
    assert plus[0].p == 1 and plus[0].to_level == unique_to_one(2)
    assert sh.arrows == ()


def test_latching_shape_level2_classical():
    sh = latching_shape(2, classical=True)
    assert len(sh.objects) == 1
    assert isinstance(sh.objects[0], PlusObject)


def _shape_object(n, ob):
    """The shape object of an oracle tuple."""
    if ob[0] == "pair":
        _, p, q, v = ob
        return PairObject(p, q, Surjection(n, p + q, v))
    _, p, v = ob
    return PlusObject(p, Surjection(n, p, v))


def _oracle_arrows(n, shape, oracle):
    """The oracle's arrows among the objects of `shape` (only plus -> plus for
    the classical one), as ShapeArrows ordered by (src, tgt)."""
    out = []
    for src, tgt, label in oracle:
        if shape.classical and label[0] != "plus":
            continue
        s, t = _shape_object(n, src), _shape_object(n, tgt)
        i, j = shape.index(s), shape.index(t)
        if label[0] == "pair":
            a = Surjection(t.p, s.p, label[1])
            b = Surjection(t.q, s.q, label[2])
            out.append(ShapeArrow(i, j, "pair", a=a, b=b))
        else:
            size = s.p + s.q if label[0] == "gamma" else s.p
            out.append(ShapeArrow(i, j, label[0], c=Surjection(t.p, size, label[1])))
    return sorted(out, key=lambda arr: (arr.src, arr.tgt))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_latching_shape_matches_comma_category_oracle(n):
    sh = latching_shape(n)
    pairs, plus = oracle_lax_shape(n)
    assert len([o for o in sh.objects if isinstance(o, PairObject)]) == len(pairs)
    assert len([o for o in sh.objects if isinstance(o, PlusObject)]) == len(plus)
    oracle = oracle_lax_shape_arrows(n)
    assert len(sh.arrows) == len(oracle)
    for shape in (sh, latching_shape(n, classical=True)):
        # endpoints, kinds and labels, in (src, tgt) order
        assert list(shape.arrows) == _oracle_arrows(n, shape, oracle)
        # thin: at most one arrow between two objects
        assert len({(arr.src, arr.tgt) for arr in shape.arrows}) == len(shape.arrows)


def test_latching_shape_classical_counts():
    for n in (2, 3, 4):
        sh = latching_shape(n, classical=True)
        expected = sum(len(oracle_surjections(n, p)) for p in range(1, n))
        assert len(sh.objects) == expected


def test_classical_embeds_into_lax():
    for n in (2, 3):
        lax = latching_shape(n)
        cla = latching_shape(n, classical=True)
        seen = set()
        for ob in cla.objects:
            k = lax.index(ob)
            assert isinstance(lax.objects[k], PlusObject)
            assert k not in seen
            seen.add(k)


def test_latching_shape_rejects_low_level():
    with pytest.raises(ValueError):
        latching_shape(1)


@pytest.mark.parametrize("classical", [False, True])
def test_plus_index_finds_every_plus_object(classical):
    for n in range(2, 5):
        shape = latching_shape(n, classical)
        plus = [(k, ob) for k, ob in enumerate(shape.objects) if isinstance(ob, PlusObject)]
        assert plus
        for k, ob in plus:
            assert shape.index(PlusObject(ob.p, ob.to_level)) == k
        for k, ob in enumerate(shape.objects):
            assert shape.index(ob) == k
        with pytest.raises(KeyError):
            shape.index(PlusObject(n, identity_surjection(n)))
        with pytest.raises(KeyError):
            shape.index(PairObject(n, 1, identity_surjection(n + 1)))
        # level n itself is not a plus object of its own latching shape
        with pytest.raises(KeyError):
            shape.index(PlusObject(n, identity_surjection(n)))
        with pytest.raises(KeyError):
            shape.index(PlusObject(n - 1, identity_surjection(n - 1)))
