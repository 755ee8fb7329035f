"""Exact linear algebra over prime fields F_p and over Q.

A matrix keeps an integer array `num` and a positive integer `den`, and its
entries are num / den.  Over F_p, `num` is int64 reduced to [0, p) and den
is 1; primes are bounded by ``MAX_PRIME`` so that every entrywise product
fits int64.  Over Q, `den` is the one common denominator of the matrix, as
in FLINT's ``fmpq_mat_get_fmpz_mat_matwise``, normalised so that the gcd of
den and all numerators is 1: equal matrices are stored equally.  `num` is
int64 while its entries fit and an object array of Python ints beyond, and
every operation bounds its integers before it picks int64, so nothing wraps.

Both fields multiply on integers: an F_p product is an integer product
reduced mod p, and a Q product is the product of the numerators over the
product of the denominators.  The integer product runs in float64 while
its dot products are exact there, in int64 while they fit, and over Python
integers beyond.

One sparse Gauss-Jordan elimination (`_eliminate`) serves both fields, on
rows held as {column: integer} dicts (structured Gaussian elimination,
LaMacchia and Odlyzko, CRYPTO '90); over Q its steps are fraction-free and
keep each row primitive, so entries divide the minors Bareiss's elimination
would hold.  The reduced row echelon form is unique, so the results agree
with elimination over `Fraction`s, which appear only in the `data`
accessor.  Colimits pass `quotient` sparse relation rows, and Hom-space
systems reach the elimination as sparse rows (`_block_rows`): no dense
relation or Kronecker matrix is built for either.

Everything downstream (homology, lifting problems, colimits) reduces to rank,
solve and quotient; tensors are written in place (`chain._written`), with
`kron` the reference product.  All algorithms are deterministic, so
identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = ["Field", "Matrix", "GF2", "GF3", "GF5", "QQ", "MAX_PRIME", "InvariantError",
           "quotient"]

# exclusive bound on p: (p - 1)^2 < 2^62, so entrywise products and kron
# stay inside int64
MAX_PRIME = 2**31


class InvariantError(AssertionError):
    """An internal consistency check failed: the library computed something
    its own postcondition rejects.  Raised explicitly, so it survives -O."""


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@dataclass(frozen=True)
class Field:
    """A coefficient field: characteristic 0 means Q, otherwise a prime p."""

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if p >= MAX_PRIME:
            raise ValueError(f"characteristic must be below 2^31, got {p}")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def coerce(self, x):
        """The canonical field element of an exact number: an integer, or over
        Q also a `Fraction`.  Anything else is refused, since a float would
        be truncated or read as its binary fraction."""
        if isinstance(x, (int, np.integer)):
            return Fraction(int(x)) if self.is_rational else int(x) % self.characteristic
        if self.is_rational and isinstance(x, Fraction):
            return x
        raise ValueError(f"entries over {self} must be {_EXACT[self.is_rational]}, got {x!r}")

    def __str__(self):
        return "Q" if self.is_rational else f"F_{self.characteristic}"


_EXACT = ("integers", "integers or fractions")  # by Field.is_rational
GF2 = Field(2)
GF3 = Field(3)
GF5 = Field(5)
QQ = Field(0)


_INT64 = 2**63  # exclusive bound on the absolute value of an int64 numerator


def _int_product(a: np.ndarray | list, b: np.ndarray | list, p: int) -> np.ndarray:
    """Exact product of integer arrays, or stacks of them (also lists of
    equal-shaped arrays, stacked in the product's dtype in one copy), over F_p
    reduced mod p as int64, over Q (p = 0) as is.  Its dot products are at
    most (p - 1)^2 per term over F_p and the operands' heights (a list's
    largest) per term over Q; numpy's integer matmul is not BLAS-backed, so
    the product runs in float64 while that bound is exact there, in int64
    while it fits, and over Python integers beyond."""
    stacked = isinstance(a, list)
    if p:
        bound = (p - 1) ** 2
    else:
        bound = math.prod(max(map(_height, m)) if stacked else _height(m) for m in (a, b))
    bound *= (a[0] if stacked else a).shape[-1]
    dtype = np.float64 if bound < 2**52 else np.int64 if bound < _INT64 else object
    if stacked:  # the bound says the entries fit the dtype
        a, b = (np.concatenate(m, dtype=dtype, casting="unsafe").reshape(len(m), *m[0].shape)
                for m in (a, b))
    prod = np.asarray(a, dtype=dtype) @ np.asarray(b, dtype=dtype)
    if dtype is np.float64:
        prod = prod.astype(np.int64)
    if p:  # reduced in place, except after a product over Python ints
        prod = (prod % p).astype(np.int64) if dtype is object else np.remainder(prod, p, out=prod)
    return prod


def _height(num: np.ndarray) -> int:
    """The largest absolute value in an integer array, and at least 1: a zero
    factor must not send the other's entries through float64."""
    return max(int(num.max()), -int(num.min()), 1) if num.size else 1


def _widen(num: np.ndarray, bound: int) -> np.ndarray:
    """num as Python ints when `bound` does not fit int64."""
    return num.astype(object) if bound >= _INT64 and num.dtype != object else num


def _ratios_equal(a: np.ndarray, da: int, b: np.ndarray, db: int) -> np.ndarray:
    """Entry by entry, whether a / da = b / db (integer arrays, da, db > 0)."""
    if da == db:
        return a == b
    return _widen(a, _height(a) * db) * db == _widen(b, _height(b) * da) * da


def _cleared(field: Field, data: np.ndarray) -> tuple[np.ndarray, int]:
    """The numerators (mod p over F_p) and the common denominator of an array
    of integers, and over Q also `Fraction`s; any other type is refused."""
    entries, p = data.ravel().tolist(), field.characteristic
    exact = (int, np.integer) if p else (int, np.integer, Fraction)
    if not all(issubclass(t, exact) for t in set(map(type, entries))):
        raise ValueError(f"matrix entries over {field} must be {_EXACT[field.is_rational]}")
    if p:
        return (data % p).astype(np.int64), 1
    den = math.lcm(*[x.denominator for x in entries])
    nums = [int(x.numerator) * (den // x.denominator) for x in entries]
    return np.array(nums, dtype=object).reshape(data.shape), den


class Matrix:
    """Dense matrix over an exact field, with entries num / den (see the
    module docstring).  Instances are immutable: their arrays are read-only."""

    __slots__ = ("field", "rows", "cols", "num", "den")

    def __init__(self, field: Field, data: np.ndarray, den: int | None = None):
        """The matrix of `data`, an array of integers, or over Q also of
        `Fraction`s; floats are refused, entry by entry in an object array
        too, since a cast would truncate 0.5 to 0.
        With `den` (> 0), `data` is an integer array that the matrix takes
        over, and the matrix is data / den."""
        if den is None:
            if data.ndim != 2:
                raise ValueError(f"matrix data must be 2-dimensional, got {data.ndim}")
            if data.dtype.kind in "fc":
                if data.size:
                    raise ValueError(
                        f"matrix data must be integers or field elements, got {data.dtype}"
                    )
                data = np.zeros(data.shape, dtype=np.int64)
            den = 1
            if data.dtype.kind in "iub" and _height(data) < _INT64:
                data = np.array(data, dtype=np.int64)
            else:
                data, den = _cleared(field, data)
        if field.characteristic:
            data = data % field.characteristic
        elif den != 1 and (g := math.gcd(int(np.gcd.reduce(data, axis=None)), den)) != 1:
            data, den = _widen(data, g) // g, den // g
        if data.dtype == object and _height(data) < _INT64:
            data = data.astype(np.int64)
        data.flags.writeable = False
        self.field, self.num, self.den = field, data, den
        self.rows, self.cols = data.shape

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows: list, cols: int | None = None) -> "Matrix":
        """Build from a list of row lists; `cols` disambiguates empty input."""
        nrows = len(rows)
        if nrows == 0:
            return Matrix.zeros(field, 0, 0 if cols is None else cols)
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("rows have varying lengths")
        out = np.empty((nrows, ncols), dtype=object)
        out[...] = rows
        return Matrix(field, out)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return _trusted_matrix(field, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return _trusted_matrix(field, np.eye(n, dtype=np.int64))

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def data(self) -> np.ndarray:
        """The entries as a read-only array: the stored residues over F_p,
        and fresh `Fraction`s over Q (for tests)."""
        if self.field.characteristic:
            return self.num
        out = np.frompyfunc(lambda x: Fraction(int(x), self.den), 1, 1)(self.num)
        out.flags.writeable = False
        return out

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and self.den == other.den
            and bool((self.num == other.num).all())
        )

    def __hash__(self):
        raise TypeError("Matrix is not hashable")

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    def tolist(self) -> list:
        return self.data.tolist()

    def __getitem__(self, key) -> "Matrix":
        """The submatrix m[rows, cols]; both indices must keep their axis."""
        if self.field.characteristic:
            return _trusted_matrix(self.field, self.num[key])
        return Matrix(self.field, self.num[key], self.den)

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same entries, read and written in row-major order."""
        return _trusted_matrix(self.field, self.num.reshape(rows, cols), self.den)

    def _check_field(self, other: "Matrix", op: str):
        if self.field != other.field:
            raise ValueError(f"field mismatch {self.field} {op} {other.field}")

    def _check_same_shape(self, other: "Matrix", op: str):
        self._check_field(other, op)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} {op} {other.shape}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "+")
        (a, b), den = _common(self.field, [self, other])
        return Matrix(self.field, a + b, den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "-")
        (a, b), den = _common(self.field, [self, other])
        return Matrix(self.field, a - b, den)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, -self.num, self.den)

    def scale(self, c) -> "Matrix":
        c = Fraction(self.field.coerce(c))
        bound = _height(self.num) * abs(c.numerator)
        return Matrix(
            self.field, _widen(self.num, bound) * c.numerator, self.den * c.denominator
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other, "@")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        prod = _int_product(self.num, other.num, self.field.characteristic)
        if self.field.characteristic:
            return _trusted_matrix(self.field, prod)
        return Matrix(self.field, prod, self.den * other.den)

    def transpose(self) -> "Matrix":
        return _trusted_matrix(self.field, self.num.T.copy(), self.den)

    @staticmethod
    def hstack(field: Field, blocks: list["Matrix"]) -> "Matrix":
        if not blocks:
            return Matrix.zeros(field, 0, 0)
        if len({b.rows for b in blocks}) > 1:
            raise ValueError("hstack blocks have different row counts")
        if any(b.field != field for b in blocks):
            raise ValueError(f"field mismatch in hstack over {field}")
        nums, den = _common(field, blocks)
        if field.characteristic:
            return _trusted_matrix(field, np.concatenate(nums, axis=1))
        return Matrix(field, np.concatenate(nums, axis=1), den)

    # -- elimination -------------------------------------------------------

    def sparse_rows(self) -> list[dict]:
        """The rows of the numerators as {column: value} dicts of their nonzero
        entries, the form `quotient` takes."""
        rows: list[dict] = [{} for _ in range(self.rows)]
        ii, jj = self.num.nonzero()
        for i, j, v in zip(ii.tolist(), jj.tolist(), self.num[ii, jj].tolist()):
            rows[i][j] = v
        return rows

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        pivots, red, den = _eliminate(self.field.characteristic, self.sparse_rows())
        entries = [(i, j, v) for i, row in enumerate(red) for j, v in row.items()]
        return _from_entries(self.field, self.shape, entries, den), pivots

    def rank(self) -> int:
        return len(_eliminate(self.field.characteristic, self.sparse_rows())[0])

    def solve(self, rhs: "Matrix") -> "Matrix | None":
        """Solve self @ x = rhs; None if inconsistent.

        The solution is canonical: free variables are set to zero, so the
        result is a deterministic function of the inputs.
        """
        if rhs.rows != self.rows:
            raise ValueError("rhs has wrong row count")
        aug = Matrix.hstack(self.field, [self, rhs])
        return _solve_rows(self.field, self.cols, rhs.cols, aug.sparse_rows())

    def kernel(self) -> "Matrix":
        """Matrix whose columns form a basis of the null space: the transpose
        of the section, so column k sets the k-th free variable to 1."""
        return _section(self.field, self.cols, self.sparse_rows())[1].transpose()

    def is_injective(self) -> bool:
        return self.rank() == self.cols

    def is_surjective(self) -> bool:
        return self.rank() == self.rows

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, left factor index major: the reference for the
        blocks `chain._written` writes in place."""
        self._check_field(other, "(x)")
        bound = 0 if self.field.characteristic else _height(self.num) * _height(other.num)
        a, b = _widen(self.num, bound), _widen(other.num, bound)
        out = a[:, None, :, None] * b[None, :, None, :]
        out = out.reshape(self.rows * other.rows, self.cols * other.cols)
        return Matrix(self.field, out, self.den * other.den)


def _trusted_matrix(field: Field, num: np.ndarray, den: int = 1) -> Matrix:
    """`Matrix(field, num, den)` without its pass over the entries, for results
    in stored form by construction (reduced mod p; over Q in lowest terms and
    int64 where they fit), as `chain._trusted_map` is for chain maps."""
    out = object.__new__(Matrix)
    num.setflags(write=False)
    out.field, out.num, out.den = field, num, den
    out.rows, out.cols = num.shape
    return out


def _common(field: Field, blocks: list[Matrix]) -> tuple[list[np.ndarray], int]:
    """The blocks' numerators over one common denominator, in a dtype that
    also holds their sum."""
    if field.characteristic:
        return [b.num for b in blocks], 1
    den = math.lcm(*[b.den for b in blocks])
    scales = [den // b.den for b in blocks]
    bound = sum(_height(b.num) * k for b, k in zip(blocks, scales))
    return [_widen(b.num, bound) * k for b, k in zip(blocks, scales)], den


def quotient(field: Field, dim: int, relations: list[dict]) -> tuple[int, Matrix, list[int]]:
    """Quotient of k^dim by the span of the given relation vectors, as sparse
    rows {column: integer} (over Q any integer multiples of the vectors;
    `Matrix.sparse_rows` gives a matrix's rows in this form).

    Returns (quotient dimension, projection matrix, free columns).  The
    projection is surjective with kernel exactly the span of the relations;
    the quotient basis is the images of the free (non-pivot) coordinates of
    the reduced relations, so the projection restricted to the free columns
    is the identity.
    """
    p, index = field.characteristic, operator.index
    rows = [
        {index(j): x for j, v in r.items() if (x := index(v) % p if p else index(v))}
        for r in relations
    ]
    if any(min(r) < 0 or max(r) >= dim for r in rows if r):
        raise ValueError("relation vectors have wrong length")
    free, proj = _section(field, dim, rows)
    return len(free), proj, free


def _block_rows(field: Field, blocks: list) -> list[dict]:
    """The nonzero rows of the sum of blocks (den, [(row, column, numerator),
    ...]) as `_eliminate` takes them: over one denominator, mod p, without
    zeros.  Rows without entries say 0 = 0 and are left out."""
    p = field.characteristic
    den = 1 if p else math.lcm(*[d for d, _ in blocks])
    rows: dict = defaultdict(dict)
    for d, entries in blocks:
        k = den // d
        for i, j, v in entries:
            row = rows[i]
            row[j] = row.get(j, 0) + k * v
    return [{j: x for j, v in row.items() if (x := v % p if p else v)} for row in rows.values()]


def _solve_rows(field: Field, n: int, rhs_cols: int, rows: list[dict]) -> Matrix | None:
    """The canonical solution (free variables zero) of the augmented system
    whose sparse rows hold the unknowns in columns below n and the right-hand
    sides in the `rhs_cols` columns from n on; None if it is inconsistent."""
    pivots, red, den = _eliminate(field.characteristic, rows)
    if pivots and pivots[-1] >= n:
        return None
    entries = [(c, j - n, v) for c, row in zip(pivots, red) for j, v in row.items() if j >= n]
    return _from_entries(field, (n, rhs_cols), entries, den)


def _section(field: Field, dim: int, rows: list[dict]) -> tuple[list[int], Matrix]:
    """The free (non-pivot) columns of the row space of `rows` and the
    projection onto them whose kernel is the row space: the identity on the
    free columns, minus the reduced row's free tail on a pivot column."""
    pivots, red, den = _eliminate(field.characteristic, rows)
    pivot_set = set(pivots)
    free = [c for c in range(dim) if c not in pivot_set]
    at = {c: k for k, c in enumerate(free)}
    entries = [(k, c, den) for k, c in enumerate(free)]
    entries += [(at[j], c, -v) for c, row in zip(pivots, red) for j, v in row.items() if j != c]
    return free, _from_entries(field, (len(free), dim), entries, den)


def _from_entries(field: Field, shape: tuple[int, int], entries: list, den: int) -> Matrix:
    """The matrix of (row, column, numerator) entries, zero elsewhere, over den."""
    big = not field.characteristic and any(abs(v) >= _INT64 for _, _, v in entries)
    num = np.zeros(shape, dtype=object if big else np.int64)
    if entries:
        ii, jj, vv = zip(*entries)
        num[ii, jj] = vv
    return Matrix(field, num, den)


def _eliminate(p: int, rows: list[dict]) -> tuple[list[int], list[dict], int]:
    """Sparse Gauss-Jordan elimination over F_p (over Q if p is 0), in place,
    of `rows`, each {column: nonzero integer} (reduced mod p).  Columns are
    taken in order; a column's pivot is the shortest row with an entry there
    that is not a pivot row yet (then the lowest index), and the column is
    cleared from every other row.  Over F_p the pivot row is scaled to pivot
    1; over Q row_j becomes a row_j - b row_i, a/b the pivot over row_j's
    entry in lowest terms, divided by its content.  Returns the pivot columns
    and the reduced row echelon form's rows as {column: numerator} dicts over
    one common denominator: 1 over F_p, the lcm of the pivots over Q."""
    index = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            index[j].add(i)
    pivots, red, done = [], [], set()
    for c in sorted(index):
        holders = index[c]
        candidates = [(len(rows[i]), i) for i in holders if i not in done]
        if not candidates:
            continue
        i = min(candidates)[1]
        done.add(i)
        top, pv = rows[i], rows[i][c]
        if p and pv != 1:
            inv = pow(pv, -1, p)
            top.update({j: v * inv % p for j, v in top.items()})
        for r in [r for r in holders if r != i]:
            row, b = rows[r], rows[r][c]
            if not p:
                g = math.gcd(pv, b)
                a, b = pv // g, b // g
                row.update({j: v * a for j, v in row.items()})
            for j, v in top.items():
                x = row.get(j, 0) - b * v
                if p:
                    x %= p
                if x:
                    if j not in row:
                        index[j].add(r)
                    row[j] = x
                elif j in row:
                    del row[j]
                    index[j].discard(r)
            if not p and (g := math.gcd(*row.values())) > 1:
                row.update({j: v // g for j, v in row.items()})
        pivots.append(c)
        red.append(top)
    if p:
        return pivots, red, 1
    den = math.lcm(*[row[c] for c, row in zip(pivots, red)])
    for c, row in zip(pivots, red):
        k = den // row[c]
        row.update({j: v * k for j, v in row.items()})
    return pivots, red, den
