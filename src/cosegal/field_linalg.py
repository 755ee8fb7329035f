"""Exact linear algebra over prime fields F_p and over Q.

Matrices over F_p are stored as int64 numpy arrays with entries reduced to
[0, p); matrices over Q are object arrays of `fractions.Fraction` (always in
lowest terms).  Primes are bounded by ``MAX_PRIME`` so that every entrywise
product fits int64.

Both fields multiply on integers: an F_p product is an integer product
reduced mod p, and a Q product clears denominators first (each row of the
left factor and each column of the right one is scaled by the lcm of its
denominators, as FLINT's ``fmpq_mat_mul`` does), so one integer product
and one division per output entry replace the `Fraction` arithmetic.  The
integer product runs in float64 while its dot products are exact there, in
int64 while they fit, and over Python integers beyond.  Elimination over Q
is fraction-free: each row is cleared of denominators and reduced by
Bareiss's exact-division Gauss-Jordan steps, and only the final pivot rows
become `Fraction`s.  The reduced row echelon form is unique, so this gives
the same matrices as elimination over `Fraction`s.

Everything downstream (homology, lifting problems, colimits) reduces to the
four primitives here: rank, solve, kron, quotient.  All algorithms are
deterministic, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Field",
    "Matrix",
    "GF2",
    "GF3",
    "GF5",
    "QQ",
    "MAX_PRIME",
    "InvariantError",
    "quotient",
]

# exclusive bound on p: (p - 1)^2 < 2^62, so entrywise products, the row
# updates of rref and kron stay inside int64
MAX_PRIME = 2**31


class InvariantError(AssertionError):
    """An internal consistency check failed: the library computed something
    its own postcondition rejects.  Raised explicitly, so it survives -O."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
        """Reduce a Python number to a canonical field element."""
        if self.is_rational:
            return x if isinstance(x, Fraction) else Fraction(x)
        return int(x) % self.characteristic

    def inv(self, x):
        if self.is_rational:
            if x == 0:
                raise ZeroDivisionError("inverse of 0")
            return Fraction(1) / Fraction(x)
        return pow(int(x), -1, self.characteristic)

    def __str__(self):
        return "Q" if self.is_rational else f"F_{self.characteristic}"


GF2 = Field(2)
GF3 = Field(3)
GF5 = Field(5)
QQ = Field(0)


def _zeros(field: Field, rows: int, cols: int) -> np.ndarray:
    if field.is_rational:
        a = np.empty((rows, cols), dtype=object)
        a[...] = Fraction(0)
        return a
    return np.zeros((rows, cols), dtype=np.int64)


def _int_product(a, b, bound: int) -> np.ndarray:
    """Exact product of two integer arrays (or nested lists) whose dot
    products are at most `bound` in absolute value.

    Integer matmul in numpy is not BLAS-backed: while the bound fits float64
    exactly the float product is orders of magnitude faster; beyond int64
    the product is taken over Python integers.
    """
    if bound < 2**52:
        prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
        return prod.astype(np.int64)
    if bound < 2**63:
        return np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)
    return np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)


def _cleared_rows(rows: list) -> tuple[list[list[int]], list[int]]:
    """Scale each row of rationals by the lcm of its denominators; returns
    the integer rows and the lcms."""
    ints, dens = [], []
    for row in rows:
        d = math.lcm(*[x.denominator for x in row])
        ints.append([x.numerator * (d // x.denominator) for x in row])
        dens.append(d)
    return ints, dens


def _max_abs(rows: list[list[int]]) -> int:
    return max((abs(x) for row in rows for x in row), default=0)


class Matrix:
    """Dense matrix over an exact field.  Treat instances as immutable."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: np.ndarray):
        if data.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got {data.ndim}")
        if data.dtype.kind in "fc":
            if data.size:
                # a cast would truncate 0.5 to 0 without a word
                raise ValueError(
                    f"matrix data must be integers or field elements, got {data.dtype}"
                )
            data = np.zeros(data.shape, dtype=np.int64)
        self.field = field
        self.rows, self.cols = data.shape
        if field.is_rational:
            if data.dtype != object:
                a = np.empty(data.shape, dtype=object)
                for i in range(data.shape[0]):
                    for j in range(data.shape[1]):
                        a[i, j] = Fraction(int(data[i, j]))
                data = a
        else:
            data = np.asarray(data, dtype=np.int64) % field.characteristic
        self.data = data

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
        out = _zeros(field, nrows, ncols)
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                out[i, j] = field.coerce(x)
        return Matrix(field, out)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, _zeros(field, rows, cols))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        out = _zeros(field, n, n)
        one = field.coerce(1)
        for i in range(n):
            out[i, i] = one
        return Matrix(field, out)

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        if self.field.is_rational:
            return all(x == 0 for x in self.data.flat)
        return not self.data.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and (self.data == other.data).all()
        )

    def __hash__(self):
        raise TypeError("Matrix is not hashable")

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    def tolist(self) -> list:
        return [[self.data[i, j] for j in range(self.cols)] for i in range(self.rows)]

    def reduce(self, a: np.ndarray) -> np.ndarray:
        if self.field.is_rational:
            return a
        return a % self.field.characteristic

    def _check_field(self, other: "Matrix", op: str):
        if self.field != other.field:
            raise ValueError(f"field mismatch {self.field} {op} {other.field}")

    def _check_same_shape(self, other: "Matrix", op: str):
        self._check_field(other, op)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} {op} {other.shape}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "+")
        return Matrix(self.field, self.reduce(self.data + other.data))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "-")
        return Matrix(self.field, self.reduce(self.data - other.data))

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.reduce(-self.data))

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, self.reduce(self.data * c))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other, "@")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Matrix.zeros(self.field, self.rows, other.cols)
        p = self.field.characteristic
        if p:
            # delayed reduction: a dot product is at most (p - 1)^2 * cols
            # before the final mod
            bound = (p - 1) * (p - 1) * self.cols
            return Matrix(self.field, _int_product(self.data, other.data, bound) % p)
        # entry (i, j) is (row i of a * d_i) . (column j of b * e_j) / (d_i e_j)
        a, d = _cleared_rows(self.data.tolist())
        bt, e = _cleared_rows(other.data.T.tolist())
        # a zero factor must not send the other's entries through float64
        bound = max(_max_abs(a), 1) * max(_max_abs(bt), 1) * self.cols
        prod = _int_product(a, np.array(bt, dtype=object).T, bound).tolist()
        out = _zeros(self.field, self.rows, other.cols)
        for i, (row, di) in enumerate(zip(prod, d)):
            out[i] = [Fraction(x, di * ej) for x, ej in zip(row, e)]
        return Matrix(self.field, out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.data.T.copy())

    @staticmethod
    def hstack(field: Field, blocks: list["Matrix"]) -> "Matrix":
        if not blocks:
            return Matrix.zeros(field, 0, 0)
        rows = blocks[0].rows
        if any(b.rows != rows for b in blocks):
            raise ValueError("hstack blocks have different row counts")
        return Matrix(field, np.hstack([b.data for b in blocks]))

    @staticmethod
    def vstack(field: Field, blocks: list["Matrix"]) -> "Matrix":
        if not blocks:
            return Matrix.zeros(field, 0, 0)
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("vstack blocks have different column counts")
        return Matrix(field, np.vstack([b.data for b in blocks]))

    @staticmethod
    def block_diag(field: Field, blocks: list["Matrix"]) -> "Matrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = _zeros(field, rows, cols)
        i = j = 0
        for b in blocks:
            out[i : i + b.rows, j : j + b.cols] = b.data
            i += b.rows
            j += b.cols
        return Matrix(field, out)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        if self.field.is_rational:
            return self._rref_rational()
        a = self.data.copy()
        p = self.field.characteristic
        nrows, ncols = a.shape
        pivots: list[int] = []
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            # choose the first nonzero entry in this column at or below r
            piv = None
            for i in range(r, nrows):
                if a[i, c] != 0:
                    piv = i
                    break
            if piv is None:
                continue
            if piv != r:
                a[[r, piv]] = a[[piv, r]]
            inv = self.field.inv(a[r, c])
            a[r] = (a[r] * inv) % p
            col = a[:, c].copy()
            col[r] = 0
            mask = col != 0
            if mask.any():
                a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
            pivots.append(c)
            r += 1
        return Matrix(self.field, a), pivots

    def _rref_rational(self) -> tuple["Matrix", list[int]]:
        """`rref` over Q by fraction-free Gauss-Jordan elimination (Bareiss,
        Math. Comp. 22, 1968) on the rows cleared of denominators.

        Pivot row r with pivot pv eliminates column c from every other row i
        as a[i] <- (pv a[i] - a[i, c] a[r]) / prev, prev the previous pivot
        (1 at first).  Every entry is then a minor of the cleared matrix, so
        the division is exact.  Rows with a zero in column c are rescaled by
        pv / prev too; that is skipped only where it is the identity, pv ==
        prev.  Pivots are chosen as in the F_p branch, and each pivot row is
        divided by its pivot at the end; the reduced row echelon form is
        unique, so the result is the one elimination over Q gives.
        """
        nrows, ncols = self.shape
        a, _ = _cleared_rows(self.data.tolist())
        pivots: list[int] = []
        prev = 1
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            # choose the first nonzero entry in this column at or below r
            piv = next((i for i in range(r, nrows) if a[i][c]), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            top = a[r]
            pv = top[c]
            for i in range(nrows):
                f = a[i][c]
                if i == r or (f == 0 and pv == prev):
                    continue
                a[i] = [(pv * x - f * y) // prev for x, y in zip(a[i], top)]
            prev = pv
            pivots.append(c)
            r += 1
        out = _zeros(self.field, nrows, ncols)
        for i, c in enumerate(pivots):
            pv = a[i][c]
            out[i] = [Fraction(x, pv) for x in a[i]]
        return Matrix(self.field, out), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def solve(self, rhs: "Matrix") -> "Matrix | None":
        """Solve self @ x = rhs; None if inconsistent.

        The solution is canonical: free variables are set to zero, so the
        result is a deterministic function of the inputs.
        """
        if rhs.rows != self.rows:
            raise ValueError("rhs has wrong row count")
        aug = Matrix.hstack(self.field, [self, rhs])
        red, pivots = aug.rref()
        n = self.cols
        if any(c >= n for c in pivots):
            return None
        x = _zeros(self.field, n, rhs.cols)
        for i, c in enumerate(pivots):
            x[c, :] = red.data[i, n:]
        return Matrix(self.field, x)

    def kernel(self) -> "Matrix":
        """Matrix whose columns form a basis of the null space: the transpose
        of the section, so column k sets the k-th free variable to 1."""
        return _section(*self.rref())[1].transpose()

    def is_injective(self) -> bool:
        return self.rank() == self.cols

    def is_surjective(self) -> bool:
        return self.rank() == self.rows

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, left factor index major."""
        self._check_field(other, "(x)")
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        if rows == 0 or cols == 0:
            return Matrix.zeros(self.field, rows, cols)
        out = np.kron(self.data, other.data)
        return Matrix(self.field, self.reduce(out))


def quotient(field: Field, dim: int, relations) -> tuple[int, Matrix, list[int]]:
    """Quotient of k^dim by the span of the given relation vectors (rows).

    Returns (quotient dimension, projection matrix, free columns).  The
    projection is surjective with kernel exactly the span of the relations;
    the quotient basis is the images of the free (non-pivot) coordinates of
    the reduced relations, so the projection restricted to the free columns
    is the identity.
    """
    if isinstance(relations, Matrix):
        rel = relations
    elif isinstance(relations, np.ndarray):
        rel = Matrix(field, relations) if relations.size else Matrix.zeros(field, 0, dim)
    else:
        rel = Matrix.from_rows(field, [list(r) for r in relations], cols=dim)
    if rel.cols != dim:
        raise ValueError("relation vectors have wrong length")
    free, proj = _section(*rel.rref())
    return len(free), proj, free


def _section(red: Matrix, pivots: list[int]) -> tuple[list[int], Matrix]:
    """The free (non-pivot) columns of a reduced row echelon form and the
    projection onto them whose kernel is the row space: the identity on the
    free columns, and minus its row's free-coordinate tail on a pivot column."""
    field, dim = red.field, red.cols
    pivot_set = set(pivots)
    free = [c for c in range(dim) if c not in pivot_set]
    proj = _zeros(field, len(free), dim)
    proj[np.arange(len(free)), free] = field.coerce(1)
    proj[:, pivots] = -red.data[: len(pivots)][:, free].T
    return free, Matrix(field, proj)
