"""Seeded random generators for complexes, maps, monoids and premonoids.

Everything takes an explicit `random.Random`, so a fixed seed reproduces the
same objects bit-for-bit.  Used by the test suite and the CLI's --seed flag.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from random import Random

from .chain import (
    ChainComplex,
    _Hom,
    _permutation,
    ChainMap,
    GeneratingCofibration,
    direct_sum,
    single_complex,
    tensor,
    tensor_map,
    unit_complex,
)
from .field_linalg import Field, Matrix, _block_rows, _eliminate
from .premonoid import DiagramMorphism, LaxDiagram, StrictMonoid, all_surjections_upto
from .two_constant import K2Instruction, TwoConstantPremonoid

__all__ = [
    "random_element",
    "random_matrix",
    "random_complex",
    "random_chain_map",
    "random_trivial_fibration",
    "monoid_algebra",
    "random_commutative_table",
    "exterior_monoid",
    "acyclic_monoid",
    "monoid_tensor",
    "random_strict_monoid",
    "tower_diagram",
    "random_tower_diagram",
    "random_diagram_morphism",
    "random_two_constant",
    "random_k2_instruction",
]

K2_TRIES = 40  # attaching squares random_k2_instruction draws before the zero cycle


def random_element(rng: Random, field: Field):
    if field.is_rational:
        return Fraction(rng.randrange(-4, 5), rng.choice([1, 1, 1, 2, 3]))
    return rng.randrange(field.characteristic)


def random_matrix(rng: Random, field: Field, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows(
        field, [[random_element(rng, field) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def random_complex(
    rng: Random, field: Field, lo: int, hi: int, max_dim: int
) -> ChainComplex:
    """Random complex on [lo, hi]; differentials built top-down so d.d = 0."""
    dims = {n: rng.randrange(max_dim + 1) for n in range(lo, hi + 1)}
    dims = {n: d for n, d in dims.items() if d}
    diff: dict = {}
    for n in sorted(dims, reverse=True):
        rows, cols = dims.get(n - 1, 0), dims[n]
        if rows == 0:
            continue
        upper = diff.get(n + 1)
        if upper is None or upper.is_zero():
            m = random_matrix(rng, field, rows, cols)
        else:
            # M @ upper = 0: every row of M lies in the left kernel of upper
            ker = upper.transpose().kernel()
            m = (ker @ random_matrix(rng, field, ker.cols, rows)).transpose()
        if not m.is_zero():
            diff[n] = m
    return ChainComplex(field, dims, diff)


def random_chain_map(rng: Random, source: ChainComplex, target: ChainComplex) -> ChainMap:
    """Sum c_j b_j over the basis b_j of `chain_map_basis`, one `random_element`
    c_j per basis map in order, built as one checked chain map."""
    hom = _Hom(source, target)
    coords = _random_solution(rng, hom.field, hom.size, _block_rows(hom.field, hom.d0()[1]))
    return ChainMap(source, target, hom.unvec(coords).components)


def _random_solution(rng: Random, field: Field, dim: int, rows: list[dict]) -> Matrix:
    """The coordinates (1 x dim) of sum c_k b_k over `Matrix.kernel`'s basis b_k
    of the sparse `rows`, one `random_element` c_k per basis vector in order."""
    pivots, red, den = _eliminate(field.characteristic, rows)
    pivot_set, p = set(pivots), field.characteristic
    x = [0 if c in pivot_set else random_element(rng, field) for c in range(dim)]
    for c, row in zip(pivots, red):
        t = -sum(x[j] * v for j, v in row.items() if j != c)
        x[c] = t % p if p else t / Fraction(den)
    return Matrix.from_rows(field, [x], cols=dim)


def random_trivial_fibration(rng: Random, field: Field, lo: int, hi: int, max_dim: int):
    """A degreewise surjective quasi-isomorphism onto a random base."""
    base = random_complex(rng, field, lo, hi, max_dim)
    discs = [
        GeneratingCofibration(rng.randrange(lo, hi + 1), field).disc
        for _ in range(rng.randrange(1, 3))
    ]
    acyc = direct_sum(discs)[0]
    _, _, projs = direct_sum([base, acyc])
    g = projs[0]
    # shear by a random map off the acyclic part: still surjective, still a
    # quasi-isomorphism, but no longer a plain projection
    if not base.is_zero_complex():
        g = g + random_chain_map(rng, acyc, base) @ projs[1]
    return g


# ---------------------------------------------------------------------------
# strict commutative monoids
# ---------------------------------------------------------------------------


def random_commutative_table(rng: Random, size: int) -> list[list[int]]:
    """A random associative commutative multiplication table with unit 0."""
    while True:
        t = [[0] * size for _ in range(size)]
        for i in range(size):
            t[0][i] = t[i][0] = i
        for i in range(1, size):
            for j in range(i, size):
                t[i][j] = t[j][i] = rng.randrange(size)
        ok = all(
            t[t[i][j]][k] == t[i][t[j][k]]
            for i in range(size)
            for j in range(size)
            for k in range(size)
        )
        if ok:
            return t


def monoid_algebra(field: Field, table: list[list[int]]):
    """The monoid algebra of a finite commutative monoid, in degree 0."""
    size = len(table)
    a = single_complex(field, 0, size)
    mu_rows = [[0] * (size * size) for _ in range(size)]
    for i in range(size):
        for j in range(size):
            mu_rows[table[i][j]][i * size + j] = 1
    mu = ChainMap(tensor(a, a), a, {0: Matrix.from_rows(field, mu_rows)})
    e_col = [[1 if i == 0 else 0] for i in range(size)]
    e = ChainMap(unit_complex(field), a, {0: Matrix.from_rows(field, e_col)})
    return StrictMonoid(a, mu, e)


def _square_zero_monoid(a: ChainComplex) -> StrictMonoid:
    """k[x]/(x^2) on a, which is k.1 in degree 0 and k.x in degree 1."""
    field = a.field
    # 1.1 = 1 and 1.x = x.1 = x; x.x = 0 in degree 2
    mu = ChainMap(
        tensor(a, a),
        a,
        {0: Matrix.from_rows(field, [[1]]), 1: Matrix.from_rows(field, [[1, 1]])},
    )
    e = ChainMap(unit_complex(field), a, {0: Matrix.from_rows(field, [[1]])})
    return StrictMonoid(a, mu, e)


def exterior_monoid(field: Field):
    """k[x]/(x^2) with x in degree 1 and zero differential."""
    return _square_zero_monoid(ChainComplex(field, {0: 1, 1: 1}, {}))


def acyclic_monoid(field: Field):
    """k[x]/(x^2) with x in degree 1 and dx = 1; the underlying complex is an
    acyclic disc."""
    return _square_zero_monoid(GeneratingCofibration(1, field).disc)


def monoid_tensor(m1, m2):
    """Tensor product of strict commutative monoids: m1.mu (x) m2.mu after the
    middle-four interchange (A(x)B)(x)(A(x)B) -> (A(x)A)(x)(B(x)B), Koszul
    signs included."""
    a, b = m1.obj, m2.obj
    ab = tensor(a, b)
    mid4 = _permutation(((a, b), (a, b)), ((a, a), (b, b)), (0, 2, 1, 3))
    return StrictMonoid(ab, tensor_map(m1.mu, m2.mu) @ mid4, tensor_map(m1.e, m2.e))


def random_strict_monoid(rng: Random, field: Field, allow_graded: bool = True):
    base = monoid_algebra(field, random_commutative_table(rng, rng.randrange(1, 4)))
    if not allow_graded:
        return base
    extra = rng.randrange(3)
    if extra == 1:
        return monoid_tensor(base, exterior_monoid(field))
    if extra == 2:
        return monoid_tensor(base, acyclic_monoid(field))
    return base


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


def random_two_constant(
    rng: Random, field: Field, surjective_h: bool | None = None, base=None
):
    """A random 2-constant premonoid: a random base monoid plus an apex built
    over it with a compatible unit factorization.

    With surjective_h=True the apex contains a copy of the base and h is a
    sheared projection (so instruction sampling never stalls); with False the
    apex is the unit complex plus noise.
    """
    if base is None:
        base = random_strict_monoid(rng, field)
    a = base.obj
    if surjective_h is None:
        surjective_h = rng.randrange(2) == 0
    lo = min(list(a.dims) + [0])
    hi = max(list(a.dims) + [0])
    noise = random_complex(rng, field, lo, hi + 1, 2)
    if surjective_h:
        total, incls, projs = direct_sum([a, noise])
        s = random_chain_map(rng, noise, a)
        h = projs[0] + (s @ projs[1])
        unit = incls[0] @ base.e
    else:
        i_complex = unit_complex(field)
        total, incls, projs = direct_sum([i_complex, noise])
        s = random_chain_map(rng, noise, a)
        h = (base.e @ projs[0]) + (s @ projs[1])
        unit = incls[0]
    return TwoConstantPremonoid(base, total, h, unit)


def random_k2_instruction(rng: Random, f, degree: int):
    """An attaching instruction for a generating cofibration of the given
    degree: draw a cycle-valued q into the apex and solve for a compatible disc
    map p, up to K2_TRIES times; then take the zero cycle, which p = 0 solves."""
    field = f.field
    gen = GeneratingCofibration(degree, field)
    a = f.base.obj
    d = degree - 1
    cyc = f.apex.d(d).kernel()
    for _ in range(K2_TRIES):
        if cyc.cols == 0:
            qmat = Matrix.zeros(field, f.apex.dim(d), 1)
        else:
            qmat = cyc @ random_matrix(rng, field, cyc.cols, 1)
        q = ChainMap(gen.sphere, f.apex, {d: qmat})
        # p on the disc: p(top) = y with dy = h(q(s)); p(bottom) = h(q(s))
        target = (f.h @ q).component(d)
        y = a.d(degree).solve(target)
        if y is None:
            continue
        comps = {}
        if a.dim(degree):
            comps[degree] = y
        if a.dim(d):
            comps[d] = target
        p = ChainMap(gen.disc, a, comps)
        return K2Instruction(gen, q, p)
    return K2Instruction(gen, ChainMap.zero(gen.sphere, f.apex), ChainMap.zero(gen.disc, a))


def tower_diagram(maps: list[ChainMap]):
    """The functorial diagram induced by a tower X_1 -> X_2 -> ... -> X_N:
    every surjection between the same pair of levels acts by the same
    composite, and bijections act as the identity."""
    level = len(maps) + 1
    objects = {1: maps[0].source if maps else None}
    for i, m in enumerate(maps):
        objects[i + 2] = m.target
    if maps == []:
        raise ValueError("need at least one map")
    composites = {}
    for m in range(1, level + 1):
        acc = ChainMap.identity(objects[m])
        composites[(m, m)] = acc
        for n in range(m + 1, level + 1):
            acc = maps[n - 2] @ acc
            composites[(m, n)] = acc
    structure = {}
    for v in all_surjections_upto(level):
        structure[v] = composites[(v.target_size, v.source_size)]
    return LaxDiagram(level, objects, structure)


def random_tower_diagram(
    rng: Random, field: Field, level: int, lo: int, hi: int, max_dim: int
):
    objs = [random_complex(rng, field, lo, hi, max_dim) for _ in range(level)]
    maps = [random_chain_map(rng, objs[i], objs[i + 1]) for i in range(level - 1)]
    return tower_diagram(maps)


def random_diagram_morphism(rng: Random, f, g):
    """A random natural transformation f -> g of plain diagrams, sampled from
    the exact solution space of the naturality constraints.

    The unknowns are the Hom coordinates of every component, level by level:
    each component is a chain map, and each structure map F(v) : F(m) -> F(n)
    gives the equation eta_n . F(v) - G(v) . eta_m = 0."""
    levels = range(1, f.level + 1)
    homs = [_Hom(f.objects[n], g.objects[n]) for n in levels]
    starts = list(accumulate((h.size for h in homs), initial=0))
    count, blocks = 0, []
    for h, col in zip(homs, starts):
        count, more = h.d0(count, col)
        blocks += more
    for v in all_surjections_upto(f.level):
        m, n = v.target_size, v.source_size
        into, fv, gv = _Hom(f.objects[m], g.objects[n]), f.structure_map(v), g.structure_map(v)
        blocks += homs[n - 1].compose(into, pre=fv, row=count, col=starts[n - 1])
        blocks += homs[m - 1].compose(into, post=gv, row=count, col=starts[m - 1], sign=-1)
        count += into.size
    coords = _random_solution(rng, f.field, starts[-1], _block_rows(f.field, blocks))
    comps = {n: h.unvec(coords[:, a:b]) for n, h, a, b in zip(levels, homs, starts, starts[1:])}
    return DiagramMorphism(f, g, comps)
