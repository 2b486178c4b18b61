"""Exact linear algebra: examples, rank-nullity, RREF against a reference."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogends import fplinalg
from gogends.fplinalg import (
    FpMatrix,
    NoSolution,
    Subspace,
    rank,
    rank_profile,
    rref,
    solve,
)


def test_modulus_must_be_a_supported_prime():
    for modulus in (0, 1, 4, 5, 9, 13, 17):
        with pytest.raises(ValueError, match="prime"):
            FpMatrix([[2, 1]], modulus)
    assert [FpMatrix([[2, 1]], p).prime for p in fplinalg.PRIMES] == [2, 3]


def test_zero_matrix_profile():
    prof = rank_profile(FpMatrix.zeros(3, 3, 2))
    assert prof.rank == 0
    assert prof.nullspace.dim == 3


def test_identity_profile():
    prof = rank_profile(FpMatrix.identity(4, 2))
    assert prof.rank == 4
    assert prof.nullspace.dim == 0


def test_all_ones_2x2_gf2():
    prof = rank_profile(FpMatrix([[1, 1], [1, 1]], 2))
    assert prof.rank == 1
    assert prof.nullspace.dim == 1
    assert np.array_equal(prof.nullspace.basis.data, [[1, 1]])


def test_solve_identity():
    x = solve(FpMatrix.identity(3, 2), [1, 0, 0])
    assert np.array_equal(x, [1, 0, 0])


def test_solve_zero_rhs_zero():
    x = solve(FpMatrix.zeros(2, 2, 3), [0, 0])
    assert np.array_equal(x, [0, 0])


def test_solve_underdetermined_verified_by_substitution():
    m = FpMatrix([[1, 1]], 2)
    x = solve(m, [1])
    assert np.array_equal(m.mul_vec(x), [1])


def test_solve_inconsistent():
    with pytest.raises(NoSolution):
        solve(FpMatrix.zeros(2, 2, 2), [1, 0])


def _bruteforce_rank(rows, p):
    """Largest independent row subset, checked by exhausting combos."""
    rows = [tuple(int(x) % p for x in r) for r in rows]
    n = len(rows[0]) if rows else 0
    best = 0
    for k in range(1, len(rows) + 1):
        for subset in itertools.combinations(rows, k):
            dependent = False
            for coeffs in itertools.product(range(p), repeat=k):
                if not any(coeffs):
                    continue
                vec = [0] * n
                for c, row in zip(coeffs, subset):
                    for i, x in enumerate(row):
                        vec[i] = (vec[i] + c * x) % p
                if not any(vec):
                    dependent = True
                    break
            if not dependent:
                best = max(best, k)
    return best


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([2, 3]),
    st.randoms(use_true_random=False),
)
def test_rank_matches_bruteforce(rows, cols, p, rnd):
    data = [[rnd.randrange(p) for _ in range(cols)] for _ in range(rows)]
    m = FpMatrix(data, p)
    assert rank_profile(m).rank == _bruteforce_rank(data, p)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([2, 3]),
    st.randoms(use_true_random=False),
)
def test_rank_nullity(rows, cols, p, rnd):
    data = [[rnd.randrange(p) for _ in range(cols)] for _ in range(rows)]
    prof = rank_profile(FpMatrix(data, p))
    assert prof.rank + prof.nullspace.dim == cols
    # every nullspace basis vector is an actual solution of m x = 0
    m = FpMatrix(data, p)
    for row in prof.nullspace.basis.data:
        assert not m.mul_vec(row).any()


def test_rref_is_canonical():
    # two row-equivalent matrices reduce to the same echelon form
    a = FpMatrix([[1, 1, 0], [0, 1, 1]], 2)
    b = FpMatrix([[1, 0, 1], [0, 1, 1]], 2)
    ra, pa = rref(a)
    rb, pb = rref(b)
    assert pa == pb
    assert ra == rb


def _reference_rref(rows, p):
    """Textbook Gauss-Jordan on lists of ints: (reduced rows, pivots)."""
    a = [list(r) for r in rows]
    pivots = []
    for col in range(len(a[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def _random_matrices(rnd):
    for _ in range(150):
        p = rnd.choice([2, 3])
        rows = rnd.randint(1, 12)
        cols = rnd.randint(1, 12)
        yield [[rnd.randrange(p) for _ in range(cols)] for _ in range(rows)], p


def _structured_matrices(rnd):
    """Block-diagonal, banded, zero, permutation, rank-deficient products,
    wide and tall matrices."""
    for p in (2, 3):
        def rand(rows, cols):
            return np.array([[rnd.randrange(p) for _ in range(cols)] for _ in range(rows)])

        block = np.zeros((9, 9), dtype=int)
        for lo, hi in ((0, 2), (2, 5), (5, 9)):
            block[lo:hi, lo:hi] = rand(hi - lo, hi - lo)
        yield block, p
        i, j = np.indices((10, 10))
        yield np.where(abs(i - j) <= 1, rand(10, 10), 0), p
        i, j = np.indices((8, 11))
        yield np.where((j >= i) & (j - i <= 2), rand(8, 11), 0), p
        yield np.zeros((4, 7), dtype=int), p
        yield np.eye(7, dtype=int)[rnd.sample(range(7), 7)], p
        for inner in (1, 2, 3):
            yield rand(8, inner) @ rand(inner, 10) % p, p
        yield rand(3, 40), p
        yield rand(40, 3), p


def _reference_cases():
    """The random and structured inputs of ``test_rref_matches_reference``,
    as (rows as lists, p)."""
    rnd = random.Random(20240817)
    return itertools.chain(
        _random_matrices(rnd),
        ((np.asarray(m).tolist(), p) for m, p in _structured_matrices(rnd)),
    )


def test_rref_matches_reference():
    for data, p in _reference_cases():
        reduced, pivots = rref(FpMatrix(data, p))
        want, want_pivots = _reference_rref(data, p)
        assert pivots == want_pivots
        assert reduced.data.tolist() == want


def _two_pass_rank_profile(m):
    """Rank and nullspace the long way: null vectors read off the RREF
    of m, then row-reduced a second time into the canonical basis."""
    reduced, pivots = rref(m)
    rank_ = len(pivots)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    null = np.zeros((len(free), m.cols), dtype=np.uint8)
    null[np.arange(len(free)), free] = 1
    null[:, pivots] = (m.prime - reduced.data[:rank_, free].T) % m.prime
    return rank_, Subspace.from_vectors(null, m.cols, m.prime)


def test_rank_profile_matches_two_pass_route():
    empty = (FpMatrix.zeros(*shape, p) for p in (2, 3) for shape in ((0, 0), (0, 6), (6, 0)))
    for m in itertools.chain((FpMatrix(data, p) for data, p in _reference_cases()), empty):
        prof = rank_profile(m)
        want_rank, want = _two_pass_rank_profile(m)
        assert prof.rank == want_rank
        assert prof.nullspace == want
        assert prof.nullspace.pivots == want.pivots


def _check_packed_kernels(a, p):
    """The packed kernel gives the reference RREF, and ``rank`` (which
    eliminates the shorter side and skips the write-back) agrees on m and
    its transpose and leaves m alone."""
    packed = a.copy()
    pivots = fplinalg._rref_in_place(packed, p)
    if a.shape[0]:  # the reference reads the width off the first row
        want, want_pivots = _reference_rref(a.tolist(), p)
        assert pivots == want_pivots
        assert packed.tolist() == want
    before = a.copy()
    m = FpMatrix(a, p)
    assert rank(m) == rank(m.transpose()) == len(pivots)
    assert np.array_equal(m.data, before)


def _packed_structured(rng, p):
    """Sizes off multiples of 8, more than 64 columns, tall and wide,
    zero, permutation and low-rank products, one random 300 x 200."""
    def rand(rows, cols):
        return rng.integers(0, p, size=(rows, cols), dtype=np.uint8)

    for rows, cols in ((1, 1), (7, 9), (9, 7), (13, 65), (65, 13), (3, 130), (130, 3), (100, 100)):
        yield rand(rows, cols)
    yield np.zeros((11, 67), dtype=np.uint8)
    yield np.eye(67, dtype=np.uint8)[rng.permutation(67)]
    for inner in (1, 5, 40):
        yield (rand(45, inner).astype(np.int64) @ rand(inner, 77) % p).astype(np.uint8)
    yield rand(300, 200)


def test_packed_gf2_matches_reference_on_structured_inputs():
    for a in _packed_structured(np.random.default_rng(20261018), 2):
        _check_packed_kernels(a, 2)


def test_packed_gf3_matches_reference_on_structured_inputs():
    for a in _packed_structured(np.random.default_rng(20261019), 3):
        _check_packed_kernels(a, 3)


def _low_rank_product(rows, cols, inner, rnd, p):
    """A product through ``inner`` columns: its rank is at most ``inner``."""
    rng = np.random.default_rng(rnd.getrandbits(64))
    left = rng.integers(0, p, size=(rows, inner), dtype=np.int64)
    right = rng.integers(0, p, size=(inner, cols), dtype=np.int64)
    return (left @ right % p).astype(np.uint8)


_PRODUCT_SHAPES = (
    st.integers(min_value=0, max_value=90),
    st.integers(min_value=0, max_value=150),
    st.integers(min_value=0, max_value=90),
    st.randoms(use_true_random=False),
)


@settings(max_examples=60, deadline=None)
@given(*_PRODUCT_SHAPES)
def test_packed_gf2_matches_reference(rows, cols, inner, rnd):
    _check_packed_kernels(_low_rank_product(rows, cols, inner, rnd, 2), 2)


@settings(max_examples=60, deadline=None)
@given(*_PRODUCT_SHAPES)
def test_packed_gf3_matches_reference(rows, cols, inner, rnd):
    _check_packed_kernels(_low_rank_product(rows, cols, inner, rnd, 3), 3)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (0, 70), (70, 0)])
def test_matrices_without_rows_or_columns(p, shape):
    m = FpMatrix.zeros(*shape, p)
    reduced, pivots = rref(m)
    assert reduced.data.shape == shape
    assert pivots == []
    assert rank(m) == 0
    prof = rank_profile(m)
    assert prof.rank == 0
    assert prof.nullspace.dim == shape[1]
    assert np.array_equal(solve(m, [0] * shape[0]), np.zeros(shape[1]))
    if shape[0]:
        with pytest.raises(NoSolution):
            solve(m, [1] * shape[0])
    a = np.zeros(shape, dtype=np.uint8)
    assert fplinalg._rref_in_place(a, p) == []
    assert a.shape == shape
