"""The Q kernels of field_linalg against the plain `Fraction` loops.

Products over Q run on cleared integer denominators and elimination is
fraction-free; `oracle_q_matmul` and `oracle_q_rref` are the elimination
and product on `Fraction`s they replaced.  Since the reduced row echelon
form is unique, `rref`, `solve`, `kernel` and `quotient` must agree with
the oracle entry for entry, and every entry must be a `Fraction` in lowest
terms.  `kernel` and `quotient` share one section code over every field, so
the kernel basis is compared with the same oracle over F_2, F_3 and F_5 too.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cosegal.field_linalg import GF2, GF3, GF5, QQ, Matrix, quotient

from oracles import oracle_q_matmul, oracle_q_rref

# the three primes below 2^40 and the three above it closest to 2^40
PRIMES_NEAR_2_40 = (
    1099511627581,
    1099511627609,
    1099511627689,
    1099511627791,
    1099511627803,
    1099511627831,
)

ZERO = Fraction(0)
small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
large = st.builds(
    lambda num, negative, primes: Fraction(-num if negative else num, math.prod(primes)),
    st.integers(2**80 - 2**16, 2**80),
    st.booleans(),
    st.lists(st.sampled_from(PRIMES_NEAR_2_40), min_size=1, max_size=2),
)
entries = st.one_of(st.just(ZERO), small, small, large)


@st.composite
def q_matrices(draw, rows=None, cols=None):
    """A list-of-lists matrix over Q with its shape.  Besides random entries
    it may have a zero row, a zero column, a row proportional to another
    and a zero at the top of its first column that makes the first pivot a
    row swap."""
    m = draw(st.integers(0, 6)) if rows is None else rows
    n = draw(st.integers(0, 6)) if cols is None else cols
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if m and n and draw(st.booleans()):
        a[draw(st.integers(0, m - 1))] = [ZERO] * n
    if m and n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in a:
            row[j] = ZERO
    if m >= 2 and draw(st.booleans()):
        i, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        c = draw(st.one_of(small, large))
        a[i] = [c * x for x in a[k]]
    if m >= 2 and n and draw(st.booleans()):
        a[0][0] = ZERO
        a[draw(st.integers(1, m - 1))][0] = draw(st.one_of(small, large).filter(bool))
    return a, m, n


def _matrix(a, m, n):
    return Matrix.from_rows(QQ, a, cols=n) if m else Matrix.zeros(QQ, 0, n)


def _assert_lowest_terms(mat):
    for x in mat.data.flat:
        assert type(x) is Fraction
        assert type(x.numerator) is int and type(x.denominator) is int
        assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


def _assert_equals(mat, rows, shape):
    assert mat.shape == shape
    assert mat.tolist() == rows
    _assert_lowest_terms(mat)


def _oracle_kernel(a, n, p=0):
    """Null-space basis as columns over Q (over F_p when p is given): free
    variable f set to 1, the others 0."""
    red, pivots = oracle_q_rref(a, n, p)
    free = [c for c in range(n) if c not in pivots]
    k = [[ZERO] * len(free) for _ in range(n)]
    for j, f in enumerate(free):
        k[f][j] = Fraction(1)
        for i, c in enumerate(pivots):
            k[c][j] = -red[i][f] % p if p else -red[i][f]
    return k, free


@st.composite
def products(draw):
    a, m, k = draw(q_matrices())
    b, _, n = draw(q_matrices(rows=k))
    return a, b, m, k, n


@given(products())
@settings(max_examples=150, deadline=None)
def test_q_matmul_matches_oracle(data):
    a, b, m, k, n = data
    got = _matrix(a, m, k) @ _matrix(b, k, n)
    _assert_equals(got, oracle_q_matmul(a, b, n), (m, n))


@given(q_matrices())
@settings(max_examples=150, deadline=None)
def test_q_rref_matches_oracle(data):
    a, m, n = data
    red, pivots = _matrix(a, m, n).rref()
    want, want_pivots = oracle_q_rref(a, n)
    assert pivots == want_pivots
    _assert_equals(red, want, (m, n))


@st.composite
def systems(draw):
    a, m, n = draw(q_matrices())
    b, _, r = draw(q_matrices(rows=m))
    if m and r and draw(st.booleans()):
        # a consistent right-hand side
        x, _, _ = draw(q_matrices(rows=n, cols=r))
        b = oracle_q_matmul(a, x, r)
    return a, b, m, n, r


@given(systems())
@settings(max_examples=100, deadline=None)
def test_q_solve_matches_oracle(data):
    a, b, m, n, r = data
    got = _matrix(a, m, n).solve(_matrix(b, m, r))
    red, pivots = oracle_q_rref([ra + rb for ra, rb in zip(a, b)], n + r)
    if any(c >= n for c in pivots):
        assert got is None
        return
    want = [[ZERO] * r for _ in range(n)]
    for i, c in enumerate(pivots):
        want[c] = red[i][n:]
    _assert_equals(got, want, (n, r))
    assert oracle_q_matmul(a, want, r) == b


@given(q_matrices())
@settings(max_examples=100, deadline=None)
def test_q_kernel_matches_oracle(data):
    a, m, n = data
    got = _matrix(a, m, n).kernel()
    want, free = _oracle_kernel(a, n)
    _assert_equals(got, want, (n, len(free)))
    assert all(x == 0 for row in oracle_q_matmul(a, want, len(free)) for x in row)


@given(q_matrices())
@settings(max_examples=100, deadline=None)
def test_q_quotient_matches_oracle(data):
    a, m, n = data
    want, free = _oracle_kernel(a, n)
    # the projection is the transpose of the kernel basis
    want = [list(col) for col in zip(*want)] if free else []
    qdim, proj, _ = quotient(QQ, n, _matrix(a, m, n).sparse_rows())
    assert qdim == len(free)
    _assert_equals(proj, want, (len(free), n))


@st.composite
def fp_matrices(draw):
    field = draw(st.sampled_from([GF2, GF3, GF5]))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    p = field.characteristic
    return field, [[draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(m)], m, n


@given(fp_matrices())
@example((GF2, [], 0, 4))
@example((GF3, [[], [], []], 3, 0))
@example((GF5, [], 0, 0))
@settings(max_examples=150, deadline=None)
def test_fp_kernel_matches_oracle(data):
    field, a, m, n = data
    p = field.characteristic
    mat = Matrix.from_rows(field, a, cols=n) if m else Matrix.zeros(field, 0, n)
    want, free = _oracle_kernel(a, n, p)
    got = mat.kernel()
    assert got.shape == (n, len(free)) and got.tolist() == want
    assert (mat @ got).is_zero()
    qdim, proj, qfree = quotient(field, n, mat.sparse_rows())
    assert qdim == len(free) and qfree == free
    assert proj.shape == (len(free), n) and proj.transpose() == got


@pytest.mark.parametrize("m,k,n", [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)])
def test_q_empty_shapes(m, k, n):
    a = Matrix.zeros(QQ, m, k)
    b = Matrix.zeros(QQ, k, n)
    _assert_equals(a @ b, [[ZERO] * n for _ in range(m)], (m, n))
    red, pivots = a.rref()
    assert pivots == [] and red == a
    _assert_lowest_terms(red)
    identity = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    _assert_equals(a.kernel(), identity, (k, k))
    assert a.solve(Matrix.zeros(QQ, m, n)) == Matrix.zeros(QQ, k, n)
    qdim, proj, _ = quotient(QQ, k, a.sparse_rows())
    assert qdim == k and proj == Matrix.identity(QQ, k)


@pytest.mark.parametrize(
    "entry", [3, 2**26, 2**30, 2**40], ids=["float64", "int64", "int64-top", "python-int"]
)
def test_q_matmul_on_each_integer_product_range(entry):
    # integer entries in (7/8 entry, entry]: the dot-product bound, between
    # 4.5 entry^2 and 6 entry^2, selects the float64 (below 2^52), int64
    # (below 2^63) or Python-int product
    rng = random.Random(entry)

    def draw():
        return rng.choice([-1, 1]) * rng.randrange(entry - entry // 8, entry + 1)

    a = [[draw() for _ in range(6)] for _ in range(4)]
    b = [[draw() for _ in range(3)] for _ in range(6)]
    got = Matrix.from_rows(QQ, a) @ Matrix.from_rows(QQ, b)
    _assert_equals(got, oracle_q_matmul(a, b, 3), (4, 3))


def test_q_rref_keeps_entries_small():
    # fraction-free elimination divides each update exactly by the previous
    # pivot, so its entries stay minors of the cleared matrix.  Without that
    # division the result is the same, but the entries double in size at
    # every pivot: this 14 x 14 system then takes over 30 s instead of 0.02 s
    # (2 cores, Python 3.11)
    rng = random.Random(6)
    n = 14
    a = [
        [Fraction(rng.randrange(2**79, 2**80), rng.choice(PRIMES_NEAR_2_40)) for _ in range(n)]
        for _ in range(n)
    ]
    t0 = time.perf_counter()
    red, pivots = Matrix.from_rows(QQ, a).rref()
    elapsed = time.perf_counter() - t0
    assert pivots == list(range(n)) and red == Matrix.identity(QQ, n)
    assert elapsed < 2.0


@pytest.mark.parametrize("field", [QQ, GF5], ids=str)
def test_matrix_refuses_float_and_complex_data(field):
    for data in (np.array([[0.5, 2.7]]), np.array([[1.0, 2.0]]), np.array([[1 + 0j]])):
        with pytest.raises(ValueError, match="integers or field elements"):
            Matrix(field, data)
    # an empty array of any dtype is still a matrix
    for dtype in (np.float64, np.complex128, np.int64, object):
        assert Matrix(field, np.zeros((0, 3), dtype=dtype)) == Matrix.zeros(field, 0, 3)
        assert Matrix(field, np.zeros((2, 0), dtype=dtype)) == Matrix.zeros(field, 2, 0)


@pytest.mark.parametrize(
    "entry", [0.5, 2.0, 1 + 0j, "1/2", None, np.float64(0.5)], ids=repr
)
def test_q_matrix_refuses_non_exact_entries(entry):
    # an object array is read entry by entry: only integers and fractions
    # are exact, and anything else used to surface later as an AttributeError
    data = np.array([[Fraction(1, 3), 0], [0, 0]], dtype=object)
    data[1, 1] = entry
    with pytest.raises(ValueError, match="integers or fractions"):
        Matrix(QQ, data)


def test_q_matrix_takes_exact_entries_of_every_integer_type():
    data = np.array(
        [[Fraction(1, 3), np.int64(2), True], [np.uint64(2**64 - 1), -(2**70), 0]],
        dtype=object,
    )
    m = Matrix(QQ, data)
    assert m.tolist() == [[Fraction(1, 3), 2, 1], [2**64 - 1, -(2**70), 0]]
    _assert_lowest_terms(m)
    big = np.array([[2**64 - 1]], dtype=np.uint64)
    assert Matrix(QQ, big).tolist() == [[2**64 - 1]]
    low = np.array([[-(2**63)]], dtype=np.int64)
    assert (-Matrix(QQ, low)).tolist() == [[2**63]]


def test_float_entries_are_refused_over_every_field():
    # each call used to give a wrong matrix without a word: F_p truncated
    # 0.5 to 0 and 2.7 to 2, and Q read 0.1 as its binary fraction
    # 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match="integers"):
        Matrix.from_rows(GF5, [[0.5, 2.7]])
    with pytest.raises(ValueError, match="integers"):
        Matrix(GF5, np.array([[0.5]], dtype=object))
    with pytest.raises(ValueError, match="integers or fractions"):
        Matrix.from_rows(QQ, [[0.1]])
    for field in (GF2, GF5, QQ):
        for x in (0.5, 2.0, np.float64(1.0), 1 + 0j, "1"):
            with pytest.raises(ValueError):
                field.coerce(x)
    with pytest.raises(ValueError, match="integers"):
        GF5.coerce(Fraction(1, 2))
    with pytest.raises(ValueError, match="integers"):
        Matrix(GF5, np.array([[Fraction(2, 1)]], dtype=object))
    # exact entries of every integer type still work, reduced over F_p
    assert Matrix.from_rows(GF5, [[np.int64(7), True, -1]]).tolist() == [[2, 1, 4]]
    assert Matrix(GF5, np.array([[2**70, np.uint64(2**64 - 1)]], dtype=object)).tolist() == [
        [2**70 % 5, (2**64 - 1) % 5]
    ]
    assert Matrix.from_rows(QQ, [[Fraction(1, 3), np.int64(2)]]).tolist() == [[Fraction(1, 3), 2]]
