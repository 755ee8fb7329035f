import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosegal.field_linalg import GF2, GF3, GF5, QQ, Field, Matrix, quotient
from cosegal.sampling import random_matrix

from oracles import gauss_rank, oracle_q_kron, oracle_q_matmul, oracle_q_rref

FIELDS = [GF2, GF3, GF5, QQ]


def test_field_characteristic_must_be_prime_or_zero():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)
    assert Field(7).characteristic == 7


def test_rank_identity_and_zero():
    assert Matrix.identity(GF2, 2).rank() == 2
    assert Matrix.zeros(GF3, 3, 4).rank() == 0


def test_rank_row_reduce_by_hand():
    # [[1,1],[1,1]] over F_2 has rank 1
    assert Matrix.from_rows(GF2, [[1, 1], [1, 1]]).rank() == 1


def test_solve_identity_case():
    b = Matrix.from_rows(GF5, [[1], [2], [3]])
    assert Matrix.identity(GF5, 3).solve(b) == b


def test_solve_inconsistent_returns_none():
    assert Matrix.zeros(GF2, 2, 2).solve(Matrix.from_rows(GF2, [[1], [0]])) is None


def test_solve_canonical_free_variables_zero():
    # enumerate all four vectors over F_2: solutions of [1,1]x = 1 are
    # (1,0) and (0,1); the canonical one sets the free variable to zero
    sols = []
    m = Matrix.from_rows(GF2, [[1, 1]])
    for a in range(2):
        for b in range(2):
            x = Matrix.from_rows(GF2, [[a], [b]])
            if m @ x == Matrix.from_rows(GF2, [[1]]):
                sols.append((a, b))
    assert set(sols) == {(1, 0), (0, 1)}
    assert m.solve(Matrix.from_rows(GF2, [[1]])).tolist() == [[1], [0]]


def test_kron_scalar_and_identity():
    c = Matrix.from_rows(GF3, [[2]])
    m = Matrix.from_rows(GF3, [[1, 2], [0, 1]])
    assert c.kron(m) == m.scale(2)
    assert Matrix.identity(QQ, 2).kron(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 6)


def test_kron_expand_definition():
    a = Matrix.from_rows(GF2, [[1, 0]])
    b = Matrix.from_rows(GF2, [[0, 1]])
    assert a.kron(b).tolist() == [[0, 1, 0, 0]]


def test_quotient_no_relations():
    d, p, _ = quotient(GF2, 3, [])
    assert d == 3 and p == Matrix.identity(GF2, 3)


def test_quotient_full():
    d, p, _ = quotient(GF3, 2, Matrix.identity(GF3, 2).sparse_rows())
    assert d == 0 and p.shape == (0, 2)


def test_quotient_kernel_check():
    d, p, _ = quotient(GF2, 2, Matrix.from_rows(GF2, [[1, 1]]).sparse_rows())
    assert d == 1
    assert p.tolist() == [[1, 1]]
    assert (p @ Matrix.from_rows(GF2, [[1], [1]])).is_zero()


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_solve_roundtrip_random(field):
    rng = random.Random(101)
    for _ in range(25):
        m = random_matrix(rng, field, rng.randrange(1, 5), rng.randrange(1, 5))
        x = random_matrix(rng, field, m.cols, 2)
        b = m @ x
        sol = m.solve(b)
        assert sol is not None
        assert m @ sol == b


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rank_kron_multiplicative(field):
    rng = random.Random(7)
    for _ in range(100):
        a = random_matrix(rng, field, rng.randrange(1, 4), rng.randrange(1, 4))
        b = random_matrix(rng, field, rng.randrange(1, 4), rng.randrange(1, 4))
        assert a.kron(b).rank() == a.rank() * b.rank()


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_quotient_projection_properties(field):
    rng = random.Random(13)
    for _ in range(30):
        dim = rng.randrange(1, 6)
        rels = [
            [rng.randrange(5) for _ in range(dim)] for _ in range(rng.randrange(0, 4))
        ]
        relations = Matrix.from_rows(field, rels, cols=dim).sparse_rows()
        qdim, proj, free = quotient(field, dim, relations)
        assert proj.rank() == qdim
        # the quotient basis is the images of the free columns
        assert Matrix(field, proj.data[:, free]) == Matrix.identity(field, qdim)
        for r in rels:
            col = Matrix.from_rows(field, [[x] for x in r])
            assert (proj @ col).is_zero()


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rank_against_plain_list_oracle(field):
    rng = random.Random(23)
    for _ in range(40):
        rows = rng.randrange(0, 5)
        cols = rng.randrange(1, 5)
        data = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        m = Matrix.from_rows(field, data, cols=cols)
        assert m.rank() == gauss_rank(data, field.characteristic)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=30, deadline=None)
def test_kernel_is_annihilated(rows, cols, pyrng):
    rng = random.Random(pyrng.randrange(10**6))
    for field in (GF2, GF3):
        m = random_matrix(rng, field, rows, cols)
        k = m.kernel()
        assert (m @ k).is_zero()
        assert k.rank() == k.cols == cols - m.rank()


@given(st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_rref_idempotent_and_rank_stable(pyrng):
    rng = random.Random(pyrng.randrange(10**6))
    m = random_matrix(rng, GF5, rng.randrange(1, 5), rng.randrange(1, 5))
    red, pivots = m.rref()
    red2, pivots2 = red.rref()
    assert red == red2 and pivots == pivots2
    assert m.rank() == red.rank() == len(pivots)


# the largest supported prime, and primes beyond the bound
P31 = 2**31 - 1


def test_large_primes_rejected_before_primality_test():
    import time

    for p in (2**31, 4294967291, 2305843009213693951):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="below 2\\^31"):
            Field(p)
        assert time.perf_counter() - t0 < 0.5
    assert Field(P31).characteristic == P31


def _plain_matmul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def test_matmul_exact_at_largest_prime():
    f = Field(P31)
    row = Matrix.from_rows(f, [[P31 - 1] * 4])
    col = Matrix.from_rows(f, [[P31 - 1]] * 4)
    assert (row @ col).tolist() == [[4]]
    rng = random.Random(31)
    for k in (1, 2, 3, 7):
        a = [[rng.randrange(P31) for _ in range(k)] for _ in range(3)]
        b = [[rng.randrange(P31) for _ in range(2)] for _ in range(k)]
        got = Matrix.from_rows(f, a) @ Matrix.from_rows(f, b)
        assert got.tolist() == _plain_matmul(a, b, P31)


def test_products_at_largest_prime_are_stored_as_int64():
    # (p - 1)^2 * cols passes 2^63, so the product runs over Python ints; it
    # is stored reduced in int64 like every F_p matrix, so a tensor of it,
    # written into an int64 array, works
    from cosegal.chain import ChainMap, single_complex, tensor_map

    f = Field(P31)
    a = Matrix.from_rows(f, [[P31 - 1] * 3] * 2)
    prod = a @ a.transpose()
    assert prod.num.dtype == np.int64 and prod.tolist() == [[3, 3], [3, 3]]
    c = single_complex(f, 0, 2)
    g = ChainMap(c, c, {0: prod})
    assert tensor_map(g, g).component(0) == prod.kron(prod)


def test_kron_rank_solve_exact_at_largest_prime():
    f = Field(P31)
    rng = random.Random(32)
    a = [[rng.randrange(P31) for _ in range(3)] for _ in range(3)]
    b = [[rng.randrange(P31) for _ in range(2)] for _ in range(2)]
    k = Matrix.from_rows(f, a).kron(Matrix.from_rows(f, b))
    expected = [
        [a[i][j] * b[r][s] % P31 for j in range(3) for s in range(2)]
        for i in range(3)
        for r in range(2)
    ]
    assert k.tolist() == expected
    assert k.rank() == gauss_rank(expected, P31)
    rhs = Matrix.from_rows(f, [[rng.randrange(P31)] for _ in range(6)])
    x = k.solve(rhs)
    if x is not None:
        assert k @ x == rhs


@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a @ b,
        lambda a, b: a.kron(b),
        lambda a, b: Matrix.hstack(a.field, [b]),
    ],
)
def test_field_mismatch_is_a_value_error(op):
    with pytest.raises(ValueError, match="field mismatch"):
        op(Matrix.identity(GF2, 2), Matrix.identity(GF3, 2))


def test_shape_mismatch_is_a_value_error():
    a, b = Matrix.identity(GF2, 2), Matrix.identity(GF2, 3)
    for op in (lambda: a + b, lambda: a - b, lambda: a @ b):
        with pytest.raises(ValueError, match="shape mismatch"):
            op()


# ---------------------------------------------------------------------------
# Q numerators beyond int64
# ---------------------------------------------------------------------------

# over one common denominator 3^25 2^e the numerators have 41 to 45 bits, so
# products, Kronecker products and elimination need more than 63 bits
wide = st.builds(
    lambda k, e, negative: Fraction(-(2**40 + k) if negative else 2**40 + k, 3**25 * 2**e),
    st.integers(0, 2**20),
    st.integers(0, 4),
    st.booleans(),
)
q_entries = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction), wide, wide)


@st.composite
def wide_operands(draw):
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))

    def matrix(rows, cols):
        return [[draw(q_entries) for _ in range(cols)] for _ in range(rows)]

    return matrix(m, k), matrix(k, n), matrix(m, k), n


def _entrywise(op, a, b):
    return [[op(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)]


def _oracle_solve(a, b, ncols, r):
    red, pivots = oracle_q_rref([ra + rb for ra, rb in zip(a, b)], ncols + r)
    if any(c >= ncols for c in pivots):
        return None
    x = [[Fraction(0)] * r for _ in range(ncols)]
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols:]
    return x


def _check_against_oracles(a, b, c, n):
    """@, kron, +, -, rref, solve and == on list matrices a (m x k), b
    (k x n) and c (m x k) against the `Fraction` oracles."""
    ma, mb, mc = (Matrix.from_rows(QQ, x) for x in (a, b, c))
    k = len(a[0])
    assert (ma @ mb).tolist() == oracle_q_matmul(a, b, n)
    assert ma.kron(mb).tolist() == oracle_q_kron(a, b)
    assert (ma + mc).tolist() == _entrywise(lambda x, y: x + y, a, c)
    assert (ma - mc).tolist() == _entrywise(lambda x, y: x - y, a, c)
    red, pivots = ma.rref()
    assert (red.tolist(), pivots) == oracle_q_rref(a, k)
    for rhs in (c, oracle_q_matmul(a, b, n)):
        got = ma.solve(Matrix.from_rows(QQ, rhs))
        want = _oracle_solve(a, rhs, k, len(rhs[0]))
        assert got is None if want is None else got.tolist() == want
    assert ma == Matrix.from_rows(QQ, [[Fraction(x) for x in r] for r in a])
    assert (ma == mc) == (a == c)
    assert ((ma - mc).is_zero()) == (a == c)


@given(wide_operands())
@settings(max_examples=60, deadline=None)
def test_q_arithmetic_beyond_int64_matches_oracles(data):
    _check_against_oracles(*data)


@pytest.mark.parametrize("side", ["int64", "object"])
def test_q_arithmetic_on_each_side_of_the_int64_switch(side):
    # every operation bounds its integers first and computes in int64 only
    # below 2^63; here each bound is exactly 2^63 - 1 on the int64 side and
    # 2^63 on the other, and so is each result's largest numerator, which
    # is stored as int64 exactly when it fits
    top = 2**63 - 1 if side == "int64" else 2**63
    f = 1 if side == "int64" else 2
    x = top // f
    cases = {
        "+": Matrix.from_rows(QQ, [[2**62]]) + Matrix.from_rows(QQ, [[top - 2**62]]),
        "-": Matrix.from_rows(QQ, [[2**62]]) - Matrix.from_rows(QQ, [[2**62 - top]]),
        "@": Matrix.from_rows(QQ, [[x]]) @ Matrix.from_rows(QQ, [[f]]),
        "kron": Matrix.from_rows(QQ, [[x, 0]]).kron(Matrix.from_rows(QQ, [[f]])),
        "scale": Matrix.from_rows(QQ, [[x, 1]]).scale(f),
    }
    for op, got in cases.items():
        assert got.num.dtype == (np.int64 if side == "int64" else object), op
        assert got.tolist()[0][0] == top and got.den == 1, op
    # an elimination step is bounded by 2 max|a|^2: numerators (over the
    # common denominator 3) and their 2 x 2 minors below 2^31 keep it in
    # int64 throughout, and numerators above 2^31 leave it at once
    m = 2**13 if side == "int64" else 2**31
    a = [[m + 1, 1, Fraction(m, 3)], [1, m - 1, 0]]
    b = [[Fraction(top, 7), 1], [0, Fraction(-1, top)], [2, m]]
    c = [[x, 0, 1], [Fraction(1, 2), -m, top]]
    _check_against_oracles(a, b, c, 2)
    big = Matrix.from_rows(QQ, [[top, 1], [0, 1]])
    assert big == Matrix.from_rows(QQ, [[top, 1], [0, 1]])
    assert big != Matrix.from_rows(QQ, [[top - 1, 1], [0, 1]])
