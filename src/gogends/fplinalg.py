"""Exact dense linear algebra over the prime field GF(p), p in ``PRIMES``.

All quantities downstream (cohomology dimensions, module generator
counts, Mayer-Vietoris ranks) are exact integers computed from the rank
machinery here.  Matrices hold uint8 residues in [0, p).  Every row
reduction packs the columns into Python ints (``_pack_columns``) and
reduces each against the earlier pivot columns, in the kernel
``_KERNELS`` holds for the prime: ``_gf2_pivots`` keeps one int per
column and adds by XOR, ``_gf3_pivots`` keeps two, the masks of the 1s
and of the 2s, and adds with a few bitwise operations.  ``PRIMES``, the
primes with a kernel, lives in ``fpcore``, so that the document reader
and the command line can accept exactly these without loading numpy.
``rank`` eliminates the shorter side, since rank A = rank A^T, and skips
writing the reduced form back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fpcore import PRIMES


class NoSolution(ValueError):
    """Raised by ``solve`` when the linear system is inconsistent."""


def _supported(prime: int) -> int:
    if prime not in PRIMES:
        raise ValueError(f"modulus must be a prime in {PRIMES}, got {prime}")
    return prime


def _as_residues(data, prime: int) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype != np.uint8:
        arr = np.mod(arr, prime).astype(np.uint8)
    arr = np.ascontiguousarray(arr)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
    if arr.size and int(arr.max()) >= prime:
        raise ValueError("entries must be residues in [0, p)")
    return arr


class FpMatrix:
    """Dense matrix over GF(p).  Immutable by convention."""

    __slots__ = ("data", "prime")

    def __init__(self, data, prime: int):
        self.prime = _supported(prime)
        self.data = _as_residues(data, prime)

    @classmethod
    def _trusted(cls, data: np.ndarray, prime: int) -> "FpMatrix":
        """Wrap a C-contiguous 2-d uint8 array of residues mod a supported
        prime, built by this module, without the checks of ``__init__``."""
        m = object.__new__(cls)
        m.data = data
        m.prime = prime
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int, prime: int) -> "FpMatrix":
        return cls._trusted(np.zeros((rows, cols), dtype=np.uint8), _supported(prime))

    @classmethod
    def identity(cls, n: int, prime: int) -> "FpMatrix":
        return cls._trusted(np.eye(n, dtype=np.uint8), _supported(prime))

    @classmethod
    def from_rows(cls, rows, prime: int, cols: int | None = None) -> "FpMatrix":
        rows = list(rows)
        if not rows:
            if cols is None:
                raise ValueError("cols required for an empty row list")
            return cls.zeros(0, cols, prime)
        return cls(np.array(rows), prime)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def matmul(self, other: "FpMatrix") -> "FpMatrix":
        if self.prime != other.prime:
            raise ValueError("prime mismatch")
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        prod = self.data.astype(np.int64) @ other.data.astype(np.int64)
        return FpMatrix(prod % self.prime, self.prime)

    def mul_vec(self, vec) -> np.ndarray:
        v = np.asarray(vec, dtype=np.int64)
        if v.shape != (self.cols,):
            raise ValueError("vector length mismatch")
        return ((self.data.astype(np.int64) @ v) % self.prime).astype(np.uint8)

    def transpose(self) -> "FpMatrix":
        return FpMatrix(np.ascontiguousarray(self.data.T), self.prime)

    def copy_data(self) -> np.ndarray:
        return np.ascontiguousarray(self.data.copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.prime == other.prime
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.prime, self.data.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix({self.rows}x{self.cols} mod {self.prime})"


def _pack_columns(bits: np.ndarray) -> list[int]:
    """Column j of the 0/1 array ``bits`` as an int whose bit i is bits[i, j]."""
    rows, cols = bits.shape
    width = (rows + 7) // 8
    packed = np.packbits(bits.T, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[j * width : (j + 1) * width], "little") for j in range(cols)]


def _unpack_columns(columns: list[int], rows: int) -> np.ndarray:
    """The 0/1 uint8 array with ``rows`` rows whose column j holds the bits
    of columns[j]: the inverse of ``_pack_columns``."""
    width = (rows + 7) // 8
    packed = np.frombuffer(b"".join(c.to_bytes(width, "little") for c in columns), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(columns), width), axis=1, count=rows, bitorder="little").T


def _gf2_pivots(a: np.ndarray) -> tuple[list[int], list[int]]:
    """Pivot columns of the GF(2) matrix ``a``, and every column of its
    RREF as an int: bit k is the entry in row k.

    Column j of ``a`` is packed into an int whose bit i is a[i, j], and
    reduced by XOR against the earlier pivot columns, kept in echelon form
    under their highest set bit.  A column that does not reduce to zero
    is the next pivot column.  One that does is a sum of earlier pivot
    columns, and the RREF column holds its coordinates over them, since
    the RREF sends the k-th pivot column to the k-th unit vector.
    ``a`` is left untouched.
    """
    echelon = [0] * (a.shape[0] + 1)  # by bit length: a reduced sum of pivot columns
    coords = [0] * (a.shape[0] + 1)  # which pivot columns that sum takes
    pivots: list[int] = []
    columns: list[int] = []
    for j, v in enumerate(_pack_columns(a)):
        c = 0
        while v:
            top = v.bit_length()
            w = echelon[top]
            if not w:
                unit = 1 << len(pivots)
                echelon[top] = v
                coords[top] = c ^ unit
                pivots.append(j)
                c = unit
                break
            v ^= w
            c ^= coords[top]
        columns.append(c)
    return pivots, columns


def _gf3_pivots(a: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Pivot columns of the GF(3) matrix ``a``, and every column of its
    RREF as two ints: the masks of its 1s and of its 2s.

    ``_gf2_pivots`` with bit-sliced columns (Boothby and Bradshaw,
    arXiv:0901.1413): a vector is the pair (ones, twos), its negation is
    (twos, ones), and x + y is, with t = (x1 | y2) ^ (x2 | y1),
    ((x2 | y2) ^ t, (x1 | y1) ^ t).  A pivot column is scaled so that its
    entry at its highest row is 1, so a column whose entry there is 1
    subtracts it and one whose entry is 2 adds it.  The coordinates of
    the reduced column over the pivot columns change by the opposite
    amount.  ``a`` is left untouched.
    """
    echelon: list = [None] * (a.shape[0] + 1)  # by highest row: (v1, v2, c1, c2)
    pivots: list[int] = []
    ones: list[int] = []
    twos: list[int] = []
    for j, (v1, v2) in enumerate(zip(_pack_columns(a == 1), _pack_columns(a == 2))):
        c1 = c2 = 0  # the column is (v1, v2) plus (c1, c2) over the pivot columns
        while v1 or v2:
            top = (v1 | v2).bit_length()
            lead_one = v1 >> (top - 1)
            e = echelon[top]
            if e is None:
                unit = 1 << len(pivots)
                # (v1, v2) is unit - c over the pivot columns, scaled by the lead
                echelon[top] = (v1, v2, c2 | unit, c1) if lead_one else (v2, v1, c1, c2 | unit)
                pivots.append(j)
                c1, c2 = unit, 0
                break
            w1, w2, d1, d2 = e
            if lead_one:  # v -= w, c += d
                t = (v1 | w1) ^ (v2 | w2)
                v1, v2 = (v2 | w1) ^ t, (v1 | w2) ^ t
                t = (c1 | d2) ^ (c2 | d1)
                c1, c2 = (c2 | d2) ^ t, (c1 | d1) ^ t
            else:  # v += w, c -= d
                t = (v1 | w2) ^ (v2 | w1)
                v1, v2 = (v2 | w2) ^ t, (v1 | w1) ^ t
                t = (c1 | d1) ^ (c2 | d2)
                c1, c2 = (c2 | d1) ^ t, (c1 | d2) ^ t
        ones.append(c1)
        twos.append(c2)
    return pivots, ones, twos


# the row reduction of each supported prime
_KERNELS = dict(zip(PRIMES, (_gf2_pivots, _gf3_pivots), strict=True))


def _rref_in_place(a: np.ndarray, p: int) -> list[int]:
    """Reduce the uint8 array ``a`` to reduced row echelon form in place;
    return its pivot columns.  The kernel gives the RREF columns as one
    list of packed ints per nonzero residue: the 1s, then the 2s."""
    pivots, *digits = _KERNELS[p](a)
    a[...] = sum(k * _unpack_columns(columns, a.shape[0]) for k, columns in enumerate(digits, 1))
    return pivots


def rref(m: FpMatrix) -> tuple[FpMatrix, list[int]]:
    """Reduced row echelon form plus pivot columns (input untouched)."""
    work = m.copy_data()
    pivots = _rref_in_place(work, m.prime)
    return FpMatrix._trusted(work, m.prime), pivots


@dataclass(frozen=True)
class Subspace:
    """Subspace of GF(p)^n held as a canonical RREF basis (full row rank)."""

    prime: int
    ambient_dim: int
    basis: FpMatrix
    pivots: tuple[int, ...]

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int, prime: int) -> "Subspace":
        mat = FpMatrix.from_rows(vectors, prime, cols=ambient_dim)
        if mat.cols != ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        reduced, pivots = rref(mat)
        basis = FpMatrix._trusted(reduced.data[: len(pivots)], prime)
        return cls(prime, ambient_dim, basis, tuple(pivots))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def reduce(self, vec) -> np.ndarray:
        """Remainder of ``vec`` after elimination against the basis."""
        v = np.mod(np.asarray(vec, dtype=np.int64), self.prime)
        if v.shape != (self.ambient_dim,):
            raise ValueError("vector length mismatch")
        b = self.basis.data
        for i, c in enumerate(self.pivots):
            f = int(v[c])
            if f:
                v = (v - f * b[i].astype(np.int64)) % self.prime
        return v.astype(np.uint8)

    def contains(self, vec) -> bool:
        return not self.reduce(vec).any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.prime == other.prime
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.prime, self.ambient_dim, self.basis))


@dataclass(frozen=True)
class RankProfile:
    rank: int
    nullspace: Subspace


def rank_profile(m: FpMatrix) -> RankProfile:
    """Rank plus the canonical echelon basis of the nullspace, from one
    row reduction of m with its columns reversed.

    In the reversed matrix a free column is a combination of the pivot
    columns to its left, so in m each free column f is a combination of
    pivot columns after f.  The null vector this gives has a 1 at f,
    zeros at the other free columns and entries only at pivot columns
    after f.  Taken in the order of f, these vectors are already the
    RREF basis of the nullspace, with its pivots at the free columns.
    """
    n, p = m.cols, m.prime
    reduced, pivots = rref(FpMatrix._trusted(np.ascontiguousarray(m.data[:, ::-1]), p))
    rank = len(pivots)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    k = len(free_cols)
    null_vectors = np.zeros((k, n), dtype=np.uint8)
    null_vectors[np.arange(k), free_cols] = 1
    null_vectors[:, pivots] = (p - reduced.data[:rank, free_cols].T) % p
    basis = FpMatrix._trusted(np.ascontiguousarray(null_vectors[::-1, ::-1]), p)
    nullspace = Subspace(p, n, basis, tuple(n - 1 - c for c in reversed(free_cols)))
    return RankProfile(rank, nullspace)


def rank(m: FpMatrix) -> int:
    """Rank of m, from the shorter of its two sides, since rank m =
    rank m^T, and without writing the reduced form back."""
    a = m.data if m.rows >= m.cols else m.data.T
    return len(_KERNELS[m.prime](a)[0])


def solve(m: FpMatrix, rhs) -> np.ndarray:
    """A particular solution of m x = rhs; raises NoSolution if none."""
    b = np.mod(np.asarray(rhs, dtype=np.int64), m.prime).astype(np.uint8)
    if b.shape != (m.rows,):
        raise ValueError("rhs length mismatch")
    aug = np.concatenate([m.data, b[:, None]], axis=1)
    pivots = _rref_in_place(aug, m.prime)
    if m.cols in pivots:
        raise NoSolution("inconsistent system")
    x = np.zeros(m.cols, dtype=np.uint8)
    for i, c in enumerate(pivots):
        x[c] = aug[i, -1]
    return x

