"""The constructor checks stay exact while getting cheaper: the zero-aware
chain-map check against a dense oracle, the weak memo that shares `tensor`
products and free constructions, and the cached surjection enumerations and
latching shapes."""

import dataclasses
import gc
import random
import weakref
from fractions import Fraction

import pytest

from cosegal import chain, free_gamma
from cosegal.chain import ChainComplex, ChainMap, tensor
from cosegal.field_linalg import GF2, GF3, QQ, Matrix
from cosegal.phi_epi import enumerate_surjections, latching_shape
from cosegal.premonoid import LaxDiagram, all_surjections_upto
from cosegal.sampling import random_chain_map, random_complex, random_matrix, random_tower_diagram

from oracles import oracle_chain_map_defects, oracle_lax_shape, oracle_surjections


def _rows(m: Matrix) -> list:
    conv = Fraction if m.field.is_rational else int
    return [[conv(x) for x in row] for row in m.tolist()]


def _oracle_defects(source, target, comps) -> list:
    return oracle_chain_map_defects(
        source.dims,
        {n: _rows(m) for n, m in source.diff.items()},
        target.dims,
        {n: _rows(m) for n, m in target.diff.items()},
        {n: _rows(m) for n, m in comps.items() if not m.is_zero()},
        source.field.characteristic,
    )


def _near_chain_map(rng, field):
    """A random chain map with one component replaced, zeroed or nudged."""
    source = random_complex(rng, field, 0, 2, 2)
    target = random_complex(rng, field, 0, 2, 2)
    comps = dict(random_chain_map(rng, source, target).components)
    degs = [n for n in source.dims if target.dim(n)]
    if degs:
        n = rng.choice(degs)
        shape = (target.dim(n), source.dim(n))
        how = rng.randrange(3)
        if how == 0:
            comps.pop(n, None)
        elif how == 1:
            comps[n] = random_matrix(rng, field, *shape)
        else:
            nudge = Matrix.zeros(field, *shape).data.copy()
            nudge[rng.randrange(shape[0]), rng.randrange(shape[1])] = field.coerce(1)
            comps[n] = comps.get(n, Matrix.zeros(field, *shape)) + Matrix(field, nudge)
    return source, target, comps


def _one_factor_absent(source, target, comps, n) -> bool:
    """Whether exactly one side of the degree-n square has an absent factor."""
    lhs = n in target.diff and n in comps
    rhs = n - 1 in comps and n in source.diff
    return lhs != rhs


@pytest.mark.parametrize("field", [GF2, GF3, QQ])
def test_chain_map_check_matches_dense_oracle(field):
    rng = random.Random(20 + field.characteristic)
    rejected = one_sided = 0
    for _ in range(150):
        source, target, comps = _near_chain_map(rng, field)
        bad = _oracle_defects(source, target, comps)
        if not bad:
            ChainMap(source, target, comps)
            continue
        with pytest.raises(ValueError, match=f"not a chain map at degree {bad[0]}$"):
            ChainMap(source, target, comps)
        rejected += 1
        one_sided += _one_factor_absent(source, target, comps, bad[0])
    # the draw covers rejections, including breaks where one factor is absent
    assert rejected >= 25
    assert one_sided >= 15


def test_chain_map_check_one_sided_break():
    # source differential absent in degree 1, target's present: only d.f exists
    source = ChainComplex(GF2, {0: 1, 1: 1}, {})
    target = ChainComplex(GF2, {0: 1, 1: 1}, {1: Matrix.identity(GF2, 1)})
    with pytest.raises(ValueError, match="degree 1"):
        ChainMap(source, target, {1: Matrix.identity(GF2, 1)})
    # the other side: f_0 . d_1 with the target differential absent
    with pytest.raises(ValueError, match="degree 1"):
        ChainMap(target, source, {0: Matrix.identity(GF2, 1)})
    # and with both factors of both sides present and equal it is a chain map
    one = Matrix.identity(GF2, 1)
    assert not ChainMap(target, target, {0: one, 1: one}).is_zero()


def test_compose_skips_absent_components():
    rng = random.Random(7)
    for field in (GF2, GF3, QQ):
        for _ in range(10):
            a, b, c = (random_complex(rng, field, 0, 2, 2) for _ in range(3))
            f, g = random_chain_map(rng, a, b), random_chain_map(rng, b, c)
            h = g @ f
            for n in a.dims:
                assert h.component(n) == g.component(n) @ f.component(n)


# ---------------------------------------------------------------------------
# shared values: the tensor memo and the free construction
# ---------------------------------------------------------------------------


def _copy(c: ChainComplex) -> ChainComplex:
    return ChainComplex(c.field, dict(c.dims), dict(c.diff))


def test_tensor_memo_shares_content_equal_products():
    rng = random.Random(3)
    for field in (GF2, GF3, QQ):
        c = random_complex(rng, field, 0, 2, 2)
        d = random_complex(rng, field, -1, 1, 2)
        p = tensor(c, d)
        assert tensor(c, d) is p
        fresh = tensor(_copy(c), _copy(d))
        assert fresh is not p
        assert fresh == p
        # dims are the convolution of the operands' dims
        conv = {}
        for i, x in c.dims.items():
            for j, y in d.dims.items():
                conv[i + j] = conv.get(i + j, 0) + x * y
        assert p.dims == {n: k for n, k in conv.items() if k}


def _copy_diagram(f: LaxDiagram) -> LaxDiagram:
    return LaxDiagram(f.level, dict(f.objects), dict(f.structure))


@dataclasses.dataclass(frozen=True)
class _Shared:
    """A construction shared while it is alive through `chain._shared`: its
    memo and builder (looked up by name, so a test can patch the builder),
    the public call, seeded operands and a fresh copy of one operand."""

    module: object
    memo_name: str
    build_name: str
    share: object
    draw: object
    copy: object

    @property
    def memo(self):
        return getattr(self.module, self.memo_name)


# the four memo tests below run over both shared constructions
SHARED = (
    _Shared(chain, "_TENSOR_MEMO", "_build_tensor", tensor,
            lambda rng: (random_complex(rng, GF2, 0, 2, 2), random_complex(rng, GF2, -1, 1, 2)),
            _copy),
    _Shared(free_gamma, "_FREE_MEMO", "_build_free", lambda f: free_gamma.gamma_na(f)[0],
            lambda rng: (random_tower_diagram(rng, GF2, 2, 0, 1, 1),),
            _copy_diagram),
)


def test_tensor_memo_builds_each_product_once(monkeypatch):
    for case in SHARED:
        built = []
        original = getattr(case.module, case.build_name)

        def counting(*operands):
            built.append(operands)
            return original(*operands)

        with monkeypatch.context() as patch:
            patch.setattr(case.module, case.build_name, counting)
            ops = case.draw(random.Random(5))
            p = case.share(*ops)
            assert case.share(*ops) is p and len(built) == 1
            case.share(*map(case.copy, ops))
            assert len(built) == 2


def test_tensor_memo_drops_entries_with_their_operands():
    for case in SHARED:
        ops = case.draw(random.Random(8))
        key = tuple(map(id, ops))
        p = case.share(*ops)
        assert case.memo.get(key) is p
        del ops, p
        gc.collect()
        assert key not in case.memo


def test_tensor_memo_never_extends_a_lifetime():
    for case in SHARED:
        ops = case.draw(random.Random(9))
        p = case.share(*ops)
        refs = [weakref.ref(x) for x in ops]
        # the result holds its operands weakly ...
        del ops
        gc.collect()
        assert all(r() is None for r in refs)
        # ... and the memo holds the result weakly
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None


def test_tensor_memo_recycled_id_is_not_a_stale_hit():
    for case in SHARED:
        rng = random.Random(10)
        stale = case.share(*case.draw(rng))
        # new operands whose ids collide with a live entry that belongs to
        # other operands, as after an id() is recycled
        ops = case.draw(rng)
        case.memo[tuple(map(id, ops))] = stale
        got = case.share(*ops)
        assert got is not stale
        assert got == case.share(*map(case.copy, ops))
        assert case.share(*ops) is got
        # real recycling: results outlive their operands, whose freed ids
        # the next operands may take over
        kept = []
        for _ in range(50):
            ops = case.draw(rng)
            kept.append(case.share(*ops))
            del ops
            ops = case.draw(rng)
            assert case.share(*ops) == case.share(*map(case.copy, ops))


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_shared_matrices_refuse_in_place_writes(field):
    # a tensor product is shared through the memo and a colimit leg is a
    # slice of the colimit's projection, so a write into either would
    # change every holder without a word
    c = ChainComplex(field, {0: 1, 1: 2}, {1: Matrix.from_rows(field, [[1, 1]])})
    p = tensor(c, c)
    d1 = p.d(1)
    before = d1.tolist()
    leg = chain.colimit([c, c], [(0, 1, ChainMap.identity(c))]).legs[0].component(1)
    for m in (d1, leg):
        with pytest.raises(ValueError, match="read-only"):
            m.data[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            m.num[0, 0] = 0
        copy = m.data.copy()
        copy[0, 0] = 0  # a copy is the caller's own
    assert tensor(c, c) is p and p.d(1).tolist() == before


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_shared_complexes_and_maps_refuse_in_place_writes(field):
    # the mappings inside a shared tensor product and a colimit leg are
    # read-only too: a write used to change what the next tensor(c, c)
    # returned, without running the d.d check again
    c = ChainComplex(field, {0: 1, 1: 2}, {1: Matrix.from_rows(field, [[1, 1]])})
    p = tensor(c, c)
    dims, d1 = dict(p.dims), p.d(1)
    leg = chain.colimit([c, c], [(0, 1, ChainMap.identity(c))]).legs[0]
    component = leg.component(1)
    for mapping, key, value in (
        (p.dims, 0, 99), (p.diff, 1, d1), (leg.components, 1, component),
        (leg.source.dims, 0, 99), (leg.target.diff, 1, leg.target.d(1)),
    ):
        with pytest.raises(TypeError):
            mapping[key] = value
        with pytest.raises(TypeError):
            del mapping[key]
    again = tensor(c, c)
    assert again is p and dict(again.dims) == dims and again.d(1) == d1
    assert leg.component(1) == component
    # equality and the printed form see the contents, as before
    assert again == ChainComplex(field, dims, {1: d1, 2: p.d(2)})
    assert repr(c) == f"ChainComplex({field}, dims={{0: 1, 1: 2}})"
    assert repr(leg) == "ChainMap({0: 1, 1: 2} -> {0: 1, 1: 2})"


# ---------------------------------------------------------------------------
# cached enumerations
# ---------------------------------------------------------------------------


def test_cached_surjections_survive_caller_mutation():
    got = enumerate_surjections(4, 2)
    assert isinstance(got, tuple)
    with pytest.raises(AttributeError):
        got.append(None)
    with pytest.raises(TypeError):
        got[0] = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        got[0].map = (1, 1, 1, 0)
    copy = list(got)
    copy.clear()
    again = enumerate_surjections(4, 2)
    assert again is got
    assert [s.map for s in again] == oracle_surjections(4, 2)


def test_cached_all_surjections_upto_survive_caller_mutation():
    got = all_surjections_upto(3)
    assert isinstance(got, tuple)
    with pytest.raises(AttributeError):
        got.pop()
    listed = list(got)
    listed.reverse()
    expected = [
        arr
        for n in range(1, 4)
        for m in range(1, n + 1)
        for arr in oracle_surjections(n, m)
        if arr != tuple(range(n))
    ]
    assert [v.map for v in all_surjections_upto(3)] == expected


def test_cached_latching_shape_is_immutable_and_stable():
    shape = latching_shape(3)
    assert latching_shape(3, classical=False) is shape
    assert latching_shape(3, classical=True) is not shape
    for attr, value in (("objects", ()), ("arrows", ()), ("level", 4)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(shape, attr, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        shape.objects[0].p = 2
    assert isinstance(shape.objects, tuple) and isinstance(shape.arrows, tuple)
    pairs, singles = oracle_lax_shape(3)
    assert len(latching_shape(3).objects) == len(pairs) + len(singles)
