"""Exact dense linear algebra over the prime field GF(p).

All quantities downstream (cohomology dimensions, module generator
counts, Mayer-Vietoris ranks) are exact integers computed from the rank
machinery here.  Matrices hold uint8 residues in [0, p) for a prime
p <= 16.  ``_rref_in_place`` does every row reduction, on one of two
paths.  At p = 2, ``_gf2_pivots`` packs each column into a Python int
and eliminates by XOR.  Odd p run ``_gauss_jordan``, a numpy
elimination of the uint8 array in place.  The reduced row echelon form
is unique, so both paths give the same array and pivots; ``rank`` at
p = 2 skips writing the form back.  ``KERNEL`` names the pair for
report provenance: ``"python"``, since nothing is compiled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KERNEL = "python"

# the kernel keeps residues in uint8: (p-1)**2 + (p-1) < 256 needs p <= 16
_PRIMES = frozenset({2, 3, 5, 7, 11, 13})


class NoSolution(ValueError):
    """Raised by ``solve`` when the linear system is inconsistent."""


def _supported(prime: int) -> int:
    if prime not in _PRIMES:
        raise ValueError(f"modulus must be a prime <= 16, got {prime}")
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
    packed = np.packbits(a.T, axis=1, bitorder="little")
    echelon = [0] * (a.shape[0] + 1)  # by bit length: a reduced sum of pivot columns
    coords = [0] * (a.shape[0] + 1)  # which pivot columns that sum takes
    pivots: list[int] = []
    columns: list[int] = []
    for j, packed_col in enumerate(packed):
        v = int.from_bytes(packed_col.tobytes(), "little")
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


def _gauss_jordan(a: np.ndarray, p: int) -> list[int]:
    """Numpy Gauss-Jordan elimination of the uint8 array ``a`` in place;
    return its pivot columns.

    Row updates are vectorised; entries stay below 256 because
    (p-1)**2 + (p-1) < 256 for p <= 16.
    """
    rows, cols = a.shape
    inv = [0] * p
    for x in range(1, p):
        inv[x] = pow(x, -1, p)
    pivots: list[int] = []
    r = 0
    for col in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv], col:] = a[[piv, r], col:]
        f = inv[int(a[r, col])]
        if f != 1:
            a[r, col:] = (a[r, col:] * f) % p
        other = np.nonzero(a[:, col])[0]
        other = other[other != r]
        if other.size:
            factors = (p - a[other, col]).astype(np.uint8)
            a[other, col:] = (a[other, col:] + factors[:, None] * a[r, col:]) % p
        pivots.append(col)
        r += 1
    return pivots


def _rref_in_place(a: np.ndarray, p: int) -> list[int]:
    """Reduce the uint8 array ``a`` to reduced row echelon form in place;
    return its pivot columns.  p = 2 goes through ``_gf2_pivots`` and
    odd p through ``_gauss_jordan``; both give the unique RREF.
    """
    if p != 2:
        return _gauss_jordan(a, p)
    rows, cols = a.shape
    pivots, columns = _gf2_pivots(a)
    width = (rows + 7) // 8
    packed = np.frombuffer(b"".join(c.to_bytes(width, "little") for c in columns), dtype=np.uint8)
    a[...] = np.unpackbits(packed.reshape(cols, width), axis=1, count=rows, bitorder="little").T
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
    """Rank plus the canonical echelon basis of the nullspace."""
    reduced, pivots = rref(m)
    rank = len(pivots)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    k = len(free_cols)
    null_vectors = np.zeros((k, m.cols), dtype=np.uint8)
    null_vectors[np.arange(k), free_cols] = 1
    null_vectors[:, pivots] = (m.prime - reduced.data[:rank, free_cols].T) % m.prime
    nullspace = Subspace.from_vectors(null_vectors, m.cols, m.prime)
    assert rank + nullspace.dim == m.cols
    return RankProfile(rank, nullspace)


def rank(m: FpMatrix) -> int:
    if m.prime == 2:
        return len(_gf2_pivots(m.data)[0])
    work = m.copy_data()
    return len(_rref_in_place(work, m.prime))


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

