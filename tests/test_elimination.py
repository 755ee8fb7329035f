"""The sparse elimination behind `rref`, `rank`, `solve`, `kernel` and
`quotient`, against the dense oracles.

Over F_p the oracle is `oracle_fp_rref`, the dense column loop the library
ran before; over Q it is `oracle_q_rref`, Gauss-Jordan on `Fraction`s.  The
reduced row echelon form is unique, so every result must agree with the
oracle entry for entry, whichever rows the sparse elimination picks as
pivots.  Matrices are drawn sparse and dense, empty, zero, tall, wide and
rank-deficient, with Q numerators and denominators beyond 2^63.  Colimits
hand `quotient` sparse relation rows, and their projections are checked
against the oracle on the dense relation matrix built from the diagram.
"""

import math
import random
from fractions import Fraction
from itertools import accumulate

from hypothesis import example, given, seed, settings, strategies as st

from cosegal import chain
from cosegal.field_linalg import GF2, GF3, GF5, QQ, Matrix, quotient
from cosegal.free_gamma import _shape_diagram, gamma_na
from cosegal.chain import ChainMap
from cosegal.sampling import random_chain_map, random_complex, tower_diagram

from oracles import oracle_fp_rref, oracle_q_rref

FIELDS = (GF2, GF3, GF5, QQ)
# denominators of about 2^40 and 2^80 and numerators of about 2^64 and 2^80
PRIMES = (1099511627581, 1099511627609, 1099511627689)
small_q = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
large_q = st.builds(
    lambda num, negative, primes: Fraction(-num if negative else num, math.prod(primes)),
    st.one_of(st.integers(2**63, 2**64), st.integers(2**79, 2**80)),
    st.booleans(),
    st.lists(st.sampled_from(PRIMES), min_size=1, max_size=2),
)


def _norm(field, x):
    return Fraction(x) if field.is_rational else int(x) % field.characteristic


def oracle_rref(field, rows, ncols):
    """The dense oracle of the field, as lists of field elements."""
    if field.is_rational:
        return oracle_q_rref(rows, ncols)
    return oracle_fp_rref(rows, ncols, field.characteristic)


@st.composite
def matrices(draw, field=None, rows=None, cols=None):
    """(field, list-of-lists matrix, rows, cols).  The density is drawn
    first (zero, sparse, half full or full); then a row may be replaced by
    a combination of two others, which makes the matrix rank-deficient."""
    field = draw(st.sampled_from(FIELDS)) if field is None else field
    m = draw(st.integers(0, 10)) if rows is None else rows
    n = draw(st.integers(0, 10)) if cols is None else cols
    percent = draw(st.sampled_from([0, 12, 50, 100]))
    p = field.characteristic
    nonzero = st.integers(1, p - 1) if p else st.one_of(small_q, small_q, large_q)
    zero = _norm(field, 0)
    a = [
        [draw(nonzero) if draw(st.integers(0, 99)) < percent else zero for _ in range(n)]
        for _ in range(m)
    ]
    if m >= 3 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        x, y = draw(nonzero), draw(nonzero)
        a[i] = [_norm(field, x * u + y * v) for u, v in zip(a[j], a[k])]
    return field, [[_norm(field, x) for x in r] for r in a], m, n


def _matrix(field, a, m, n):
    return Matrix.from_rows(field, a, cols=n) if m else Matrix.zeros(field, 0, n)


def _sparse(field, a, rng):
    """The rows of a as {column: integer} dicts: over F_p with entries moved
    by random multiples of p, over Q scaled by a random nonzero integer
    times the row's common denominator, both of which keep the row space,
    and with explicit entries that are zero in the field."""
    p = field.characteristic
    out = []
    for r in a:
        if p:
            row = {j: int(x) + p * rng.randint(-3, 3) for j, x in enumerate(r) if x}
        else:
            k = rng.choice([-2, -1, 1, 3]) * math.lcm(*[x.denominator for x in r])
            row = {j: int(x * k) for j, x in enumerate(r) if x}
        for j, x in enumerate(r):
            if not x and rng.random() < 0.5:
                row[j] = p * rng.randint(-2, 2)
        out.append(row)
    return out


def _oracle_section(field, a, n):
    """The oracle's free columns and the projection onto them whose kernel
    is the row space of a, as lists."""
    red, pivots = oracle_rref(field, a, n)
    free = [c for c in range(n) if c not in pivots]
    proj = [[_norm(field, int(c == f)) for c in range(n)] for f in free]
    for i, c in enumerate(pivots):
        for k, f in enumerate(free):
            proj[k][c] = _norm(field, -red[i][f])
    return free, proj


@given(matrices())
@example((GF2, [], 0, 5))
@example((GF3, [[], [], []], 3, 0))
@example((QQ, [[Fraction(0)] * 4] * 3, 3, 4))
@example((GF5, [[1, 2]] * 9, 9, 2))
@example((QQ, [[Fraction(2**70 + 1, 3**41), 1, 0, 5]], 1, 4))
@seed(13)
@settings(max_examples=200, deadline=None)
def test_rref_rank_kernel_and_quotient_match_the_dense_oracle(data):
    field, a, m, n = data
    mat = _matrix(field, a, m, n)
    want, want_pivots = oracle_rref(field, a, n)
    if not field.is_rational:
        # the two oracles agree with each other too
        assert (want, want_pivots) == oracle_q_rref(a, n, field.characteristic)
    red, pivots = mat.rref()
    assert pivots == want_pivots
    assert red.shape == (m, n) and red.tolist() == want
    assert mat.rank() == len(want_pivots)
    assert mat.is_injective() == (len(want_pivots) == n)
    assert mat.is_surjective() == (len(want_pivots) == m)
    free, proj = _oracle_section(field, a, n)
    ker = mat.kernel()
    assert ker.shape == (n, len(free)) and ker.transpose().tolist() == proj
    assert (mat @ ker).is_zero()
    rng = random.Random(len(a) * 31 + n)
    for relations in (mat.sparse_rows(), _sparse(field, a, rng)):
        qdim, got, qfree = quotient(field, n, relations)
        assert qdim == len(free) and qfree == free
        assert got.shape == (len(free), n) and got.tolist() == proj


@st.composite
def systems(draw):
    field, a, m, n = draw(matrices())
    _, b, _, r = draw(matrices(field=field, rows=m))
    return field, a, b, m, n, r


@given(systems())
@example((GF2, [], [], 0, 3, 2))
@example((QQ, [[Fraction(1, 2**70)], [Fraction(3)]], [[1], [Fraction(3 * 2**70 + 1)]], 2, 1, 1))
@seed(17)
@settings(max_examples=150, deadline=None)
def test_solve_matches_the_dense_oracle(data):
    field, a, b, m, n, r = data
    got = _matrix(field, a, m, n).solve(_matrix(field, b, m, r))
    red, pivots = oracle_rref(field, [ra + rb for ra, rb in zip(a, b)], n + r)
    if any(c >= n for c in pivots):
        assert got is None
        return
    want = [[_norm(field, 0)] * r for _ in range(n)]
    for i, c in enumerate(pivots):
        want[c] = red[i][n:]
    assert got.shape == (n, r) and got.tolist() == want


def _dense_relations(nodes, arrows, n):
    """The relation matrix of a colimit in degree n, built densely from the
    diagram: one row per arrow (s, t, f) and coordinate x of node s, with 1
    at x in node s and -f(x) in node t."""
    field = nodes[0].field
    offsets = [0]
    for c in nodes:
        offsets.append(offsets[-1] + c.dim(n))
    rows = []
    for s, t, f in arrows:
        comp = f.component(n).tolist()
        for x in range(nodes[s].dim(n)):
            row = [Fraction(0)] * offsets[-1]
            row[offsets[s] + x] += 1
            for y in range(nodes[t].dim(n)):
                row[offsets[t] + y] -= Fraction(comp[y][x])
            rows.append([_norm(field, v) if field.characteristic else v for v in row])
    return rows, offsets[-1]


def _tower(rng, field, dims, level, scalar):
    """A random tower of complexes with the given dims, its maps scaled."""
    objs = []
    while len(objs) < level:
        c = random_complex(rng, field, 0, 1, max(dims.values()))
        if c.dims == dims:
            objs.append(c)
    maps = [random_chain_map(rng, s, t) for s, t in zip(objs, objs[1:])]
    return tower_diagram([
        ChainMap(m.source, m.target, {n: b.scale(scalar) for n, b in m.components.items()})
        for m in maps
    ])


def test_colimits_quotient_sparse_rows_like_the_dense_oracle(monkeypatch):
    # the lax latching colimits of the free diagram on random N = 3 towers
    # and the classical ones of the towers themselves: every relation reaches
    # `quotient` as sparse rows, one per arrow and source coordinate, and
    # the legs side by side (the projection) and the free columns agree with
    # the dense oracle
    calls = []

    def spy(field, dim, relations):
        calls.append(relations)
        return quotient(field, dim, relations)

    monkeypatch.setattr(chain, "quotient", spy)
    rng = random.Random(41)
    checked = denominators = 0
    # over Q the tower maps are scaled by a fraction, so some arrows have
    # denominators, which the sparse rows must clear
    for field, dims, scalar in (
        (GF2, {0: 1, 1: 1}, 1), (GF3, {0: 1, 1: 1}, 1),
        (QQ, {0: 1, 1: 1}, Fraction(-3, 2)), (QQ, {0: 2}, Fraction(1, 2)),
    ):
        f = _tower(rng, field, dims, 3, scalar)
        g, _ = gamma_na(f)
        for n in (2, 3):
            for d, classical in ((g, False), (f, True)):
                _, nodes, arrows = _shape_diagram(d, n, classical=classical)
                denominators += sum(m.den != 1 for *_, a in arrows for m in a.components.values())
                calls.clear()
                col = chain.colimit(nodes, arrows)
                assert all(isinstance(r, dict) for rel in calls for r in rel)
                for deg, rel in zip(sorted(col.by_node), calls):
                    rows, dim = _dense_relations(nodes, arrows, deg)
                    assert len(rel) == len(rows)
                    free, proj = _oracle_section(field, rows, dim)
                    # each node's free columns, renumbered across the nodes
                    offs = accumulate((c.dim(deg) for c in nodes), initial=0)
                    assert [lo + x for lo, at in zip(offs, col.by_node[deg]) for x in at] == free
                    legs = Matrix.hstack(field, [leg.component(deg) for leg in col.legs])
                    assert legs.tolist() == proj
                    checked += len(rows)
    assert checked > 1500 and denominators
