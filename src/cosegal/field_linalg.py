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
integers beyond.  Elimination over Q is fraction-free (Bareiss's
exact-division Gauss-Jordan steps on the numerators), and every pivot row
ends with the same pivot, which becomes the result's denominator.  The
reduced row echelon form is unique, so this gives the same matrices as
elimination over `Fraction`s, which appear only in the `data` accessor.

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

    def __str__(self):
        return "Q" if self.is_rational else f"F_{self.characteristic}"


GF2 = Field(2)
GF3 = Field(3)
GF5 = Field(5)
QQ = Field(0)


_INT64 = 2**63  # exclusive bound on the absolute value of an int64 numerator


def _int_product(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """Exact product of two integer arrays whose dot products are at most
    `bound` in absolute value.

    Integer matmul in numpy is not BLAS-backed: while the bound fits float64
    exactly the float product is orders of magnitude faster; beyond int64
    the product is taken over Python integers.
    """
    if bound < 2**52:
        prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
        return prod.astype(np.int64)
    if bound < _INT64:
        return np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)
    return np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)


def _max_abs(num: np.ndarray) -> int:
    """The largest absolute value in an integer array, 0 if it is empty."""
    return max(int(num.max()), -int(num.min())) if num.size else 0


def _widen(num: np.ndarray, bound: int) -> np.ndarray:
    """num as Python ints when `bound` does not fit int64."""
    return num.astype(object) if bound >= _INT64 and num.dtype != object else num


def _cleared(data: np.ndarray) -> tuple[np.ndarray, int]:
    """The numerators and the common denominator of an array of integers and
    `Fraction`s; any other entry is refused."""
    entries = data.ravel().tolist()
    if not all(isinstance(x, (int, np.integer, Fraction)) for x in entries):
        raise ValueError("matrix entries over Q must be integers or fractions")
    den = math.lcm(*[x.denominator for x in entries])
    nums = [int(x.numerator) * (den // x.denominator) for x in entries]
    return np.array(nums, dtype=object).reshape(data.shape), den


class Matrix:
    """Dense matrix over an exact field, with entries num / den (see the
    module docstring).  Instances are immutable: their arrays are read-only."""

    __slots__ = ("field", "rows", "cols", "num", "den")

    def __init__(self, field: Field, data: np.ndarray, den: int | None = None):
        """The matrix of `data`, an array of integers, or over Q also of
        `Fraction`s; floats are refused, since a cast would truncate 0.5 to 0.
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
            if field.characteristic:
                data = np.asarray(data, dtype=np.int64)
            elif data.dtype.kind in "ib" and _max_abs(data) < _INT64:
                data = np.array(data, dtype=np.int64)
            else:
                data, den = _cleared(data)
        if field.characteristic:
            data = data % field.characteristic
        elif den != 1 and (g := math.gcd(int(np.gcd.reduce(data, axis=None)), den)) != 1:
            data, den = _widen(data, g) // g, den // g
        if data.dtype == object and _max_abs(data) < _INT64:
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
        out[...] = [[field.coerce(x) for x in r] for r in rows]
        return Matrix(field, out)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, np.zeros((rows, cols), dtype=np.int64), 1)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, np.eye(n, dtype=np.int64), 1)

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def data(self) -> np.ndarray:
        """The entries as a read-only array: the stored residues over F_p,
        and fresh `Fraction`s over Q (for documents and tests)."""
        if self.field.characteristic:
            return self.num
        out = np.frompyfunc(lambda x: Fraction(int(x), self.den), 1, 1)(self.num)
        out.flags.writeable = False
        return out

    def is_zero(self) -> bool:
        return not self.num.any()

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
        return Matrix(self.field, self.num[key], self.den)

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same entries, read and written in row-major order."""
        return Matrix(self.field, self.num.reshape(rows, cols), self.den)

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
        bound = max(_max_abs(self.num), 1) * abs(c.numerator)
        return Matrix(
            self.field, _widen(self.num, bound) * c.numerator, self.den * c.denominator
        )

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
        else:
            # a zero factor must not send the other's entries through float64
            bound = max(_max_abs(self.num), 1) * max(_max_abs(other.num), 1) * self.cols
        prod = _int_product(self.num, other.num, bound)
        return Matrix(self.field, prod, self.den * other.den)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.num.T.copy(), self.den)

    @staticmethod
    def hstack(field: Field, blocks: list["Matrix"]) -> "Matrix":
        return _stack(field, blocks, 1)

    @staticmethod
    def vstack(field: Field, blocks: list["Matrix"]) -> "Matrix":
        return _stack(field, blocks, 0)

    @staticmethod
    def assemble(field: Field, rows: int, cols: int, blocks: list) -> "Matrix":
        """The rows x cols matrix that is the sum of the given blocks, each
        (i, j, block) placed with its top left entry at (i, j)."""
        nums, den = _common(field, [b for _, _, b in blocks])
        out = np.zeros((rows, cols), dtype=nums[0].dtype if nums else np.int64)
        for (i, j, b), num in zip(blocks, nums):
            out[i : i + b.rows, j : j + b.cols] += num
        return Matrix(field, out, den)

    @staticmethod
    def block_diag(field: Field, blocks: list["Matrix"]) -> "Matrix":
        placed, i, j = [], 0, 0
        for b in blocks:
            placed.append((i, j, b))
            i += b.rows
            j += b.cols
        return Matrix.assemble(field, i, j, placed)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        if self.field.is_rational:
            return self._rref_rational()
        a = self.num.copy()
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
            inv = pow(int(a[r, c]), -1, p)
            a[r] = (a[r] * inv) % p
            col = a[:, c].copy()
            col[r] = 0
            mask = col != 0
            if mask.any():
                a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
            pivots.append(c)
            r += 1
        return Matrix(self.field, a, 1), pivots

    def _rref_rational(self) -> tuple["Matrix", list[int]]:
        """`rref` over Q by fraction-free Gauss-Jordan elimination (Bareiss,
        Math. Comp. 22, 1968) on the numerators.

        Pivot row r with pivot pv eliminates column c from every other row i
        as a[i] <- (pv a[i] - a[i, c] a[r]) / prev, prev the previous pivot
        (1 at first).  Every entry is then a minor of the numerators, so the
        division is exact; a step whose products could leave int64 runs on
        Python ints.  Each step scales the earlier pivot entries by pv / prev,
        so at the end every pivot entry is the last pivot, the denominator of
        the result.  Pivots are chosen as in the F_p branch; the reduced row
        echelon form is unique, so this is the one elimination over Q gives.
        """
        a = self.num.copy()
        nrows, ncols = a.shape
        pivots: list[int] = []
        prev = 1
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            # choose the first nonzero entry in this column at or below r
            below = a[r:, c].nonzero()[0]
            if not below.size:
                continue
            if below[0]:
                a[[r, r + below[0]]] = a[[r + below[0], r]]
            pv = int(a[r, c])
            # |pv a[i] - a[i, c] a[r]| <= 2 max|a|^2
            if a.dtype != object and 2 * _max_abs(a) ** 2 >= _INT64:
                a = a.astype(object)
            top = a[r]
            a = (pv * a - a[:, c, None] * top) // prev
            a[r] = top
            prev = pv
            pivots.append(c)
            r += 1
        # rows below the pivots are zero
        if prev < 0:
            a, prev = -a, -prev
        return Matrix(self.field, a, prev), pivots

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
        x = np.zeros((n, rhs.cols), dtype=red.num.dtype)
        x[pivots] = red.num[: len(pivots), n:]
        return Matrix(self.field, x, red.den)

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
        bound = 0 if self.field.characteristic else _max_abs(self.num) * _max_abs(other.num)
        a, b = _widen(self.num, bound), _widen(other.num, bound)
        out = a[:, None, :, None] * b[None, :, None, :]
        out = out.reshape(self.rows * other.rows, self.cols * other.cols)
        return Matrix(self.field, out, self.den * other.den)


def _stack(field: Field, blocks: list[Matrix], axis: int) -> Matrix:
    """The blocks side by side (axis 1) or on top of each other (axis 0)."""
    if not blocks:
        return Matrix.zeros(field, 0, 0)
    if len({b.shape[1 - axis] for b in blocks}) > 1:
        what = ("vstack blocks have different column", "hstack blocks have different row")
        raise ValueError(f"{what[axis]} counts")
    nums, den = _common(field, blocks)
    return Matrix(field, np.concatenate(nums, axis=axis), den)


def _common(field: Field, blocks: list[Matrix]) -> tuple[list[np.ndarray], int]:
    """The blocks' numerators over one common denominator, in a dtype that
    also holds their sum."""
    if field.characteristic:
        return [b.num for b in blocks], 1
    den = math.lcm(*[b.den for b in blocks])
    scales = [den // b.den for b in blocks]
    bound = sum(max(_max_abs(b.num), 1) * k for b, k in zip(blocks, scales))
    return [_widen(b.num, bound) * k for b, k in zip(blocks, scales)], den


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
    proj = np.zeros((len(free), dim), dtype=red.num.dtype)
    proj[np.arange(len(free)), free] = red.den
    proj[:, pivots] = -red.num[: len(pivots)][:, free].T
    return free, Matrix(field, proj, red.den)
