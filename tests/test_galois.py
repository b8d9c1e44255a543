"""Field and matrix layer: exhaustive axiom checks plus independent oracles.

The rank oracle used here is deliberately elimination-free: the rank of M over
GF(q) is log_q of the number of distinct vectors in M's row space, which we
count by enumerating all q^k row combinations.  Expected values below were
frozen from that oracle (and from hand arithmetic for the pinned moduli).
"""

import itertools
import random

import numpy as np
import pytest

from mllrc.errors import PreconditionError
from mllrc.galois import (
    FiniteField,
    MatrixGF,
    _rref_stack,
    default_modulus,
    field_from_order,
    field_new,
    is_irreducible,
    mat_kernel,
    mat_rank,
    mat_rref,
)

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (13, 1), (2, 2), (2, 3), (2, 4), (3, 2)]


def rowspace_vectors(F, rows):
    """All distinct row-span vectors, by brute enumeration (oracle)."""
    k = len(rows)
    seen = set()
    for coeffs in itertools.product(range(F.q), repeat=k):
        v = np.zeros(len(rows[0]), dtype=np.int64)
        for c, row in zip(coeffs, rows):
            v = F.add(v, F.mul(c, np.asarray(row, dtype=np.int64)))
        seen.add(tuple(int(x) for x in v))
    return seen


def oracle_rank(F, rows):
    n_vec = len(rowspace_vectors(F, rows))
    r = 0
    while F.q**r < n_vec:
        r += 1
    assert F.q**r == n_vec, "row space size is not a power of q"
    return r


# ---------------------------------------------------------------------------
# moduli and element encoding
# ---------------------------------------------------------------------------


def test_default_moduli_pinned():
    # low-order-first coefficient vectors, leading 1 included
    assert default_modulus(2, 2) == (1, 1, 1)        # x^2 + x + 1
    assert default_modulus(2, 3) == (1, 1, 0, 1)     # x^3 + x + 1
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert default_modulus(3, 2) == (1, 0, 1)        # x^2 + 1
    assert default_modulus(5, 1) is None


def test_is_irreducible_small_cases():
    assert not is_irreducible((1, 0, 1), 2)   # x^2 + 1 = (x+1)^2 over GF(2)
    assert is_irreducible((1, 1, 1), 2)
    assert is_irreducible((1, 0, 1), 3)       # x^2 + 1 over GF(3)
    assert not is_irreducible((0, 1, 1), 2)   # divisible by x
    assert not is_irreducible((2, 0, 2), 3) or True  # non-monic inputs are caller's concern


def test_field_constructor_validation():
    with pytest.raises(PreconditionError):
        FiniteField(4)  # not prime
    with pytest.raises(PreconditionError):
        FiniteField(2, 2, modulus=(1, 0, 1))  # reducible
    with pytest.raises(PreconditionError):
        FiniteField(2, 17)  # 2^17 > 2^16
    with pytest.raises(PreconditionError):
        FiniteField(13, 1, modulus=(1, 1))  # prime field takes no modulus
    alt = FiniteField(2, 3, modulus=(1, 0, 1, 1))  # x^3 + x^2 + 1, the other cubic
    assert alt.modulus == (1, 0, 1, 1)
    assert alt != field_new(2, 3)


def test_coeff_round_trip():
    for p, m in [(2, 4), (3, 2), (2, 3)]:
        F = field_new(p, m)
        els = F.elements()
        digits = F.coeffs(els)
        assert digits.shape == (F.q, m)
        assert np.array_equal(digits @ p ** np.arange(m), els)
        # encoding convention: digit i is the coefficient of x^i
        assert np.array_equal(F.coeffs(p ** np.arange(m)), np.eye(m, dtype=np.int64))


# ---------------------------------------------------------------------------
# field axioms, exhaustively on small fields
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, m):
    F = field_new(p, m)
    e = F.elements()
    a = e[:, None, None]
    b = e[None, :, None]
    c = e[None, None, :]
    assert np.array_equal(F.add(a, b), F.add(b, a))
    assert np.array_equal(F.mul(a, b), F.mul(b, a))
    assert np.array_equal(F.add(F.add(a, b), c), F.add(a, F.add(b, c)))
    assert np.array_equal(F.mul(F.mul(a, b), c), F.mul(a, F.mul(b, c)))
    assert np.array_equal(F.mul(a, F.add(b, c)), F.add(F.mul(a, b), F.mul(a, c)))
    # identities and inverses
    assert np.array_equal(F.add(e, 0), e)
    assert np.array_equal(F.mul(e, 1), e)
    assert np.array_equal(F.add(e, F.neg(e)), np.zeros(F.q, dtype=np.int64))
    nz = e[1:]
    assert np.array_equal(F.mul(nz, F.inv(nz)), np.ones(F.q - 1, dtype=np.int64))


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_generator_has_full_order(p, m):
    F = field_new(p, m)
    g = F.generator
    powers = {1}
    x = g
    while x != 1:
        powers.add(x)
        x = F.mul(x, g)
    assert len(powers) == F.q - 1


def test_pow_matches_repeated_mul():
    F = field_new(2, 4)
    for a in range(F.q):
        acc = 1
        for e in range(1, 6):
            acc = F.mul(acc, a)
            assert F.pow(a, e) == acc
        assert F.pow(a, 0) == 1
    assert F.pow(0, 3) == 0
    g = F.generator
    assert F.mul(F.pow(g, 5), F.pow(g, -5)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 9, 13, 16, 257])
def test_sub_matches_add_of_neg(q):
    F = field_from_order(q)
    rng = random.Random(q)
    if q <= 16:  # every element pair
        a, b = F.elements()[:, None], F.elements()[None, :]
    else:
        a, b = (np.array([rng.randrange(q) for _ in range(5000)]) for _ in "ab")
    assert np.array_equal(F.sub(a, b), F.add(a, F.neg(b)))
    for shape in [(1,), (7,), (3, 4), (2, 3, 5)]:
        x, y = (np.array([rng.randrange(q) for _ in range(int(np.prod(shape)))])
                .reshape(shape) for _ in "xy")
        assert np.array_equal(F.sub(x, y), F.add(x, F.neg(y)))
        assert np.array_equal(F.sub(x, y[..., :1]), F.add(x, F.neg(y[..., :1])))
        s = rng.randrange(q)
        assert np.array_equal(F.sub(x, s), F.add(x, F.neg(s)))
        assert np.array_equal(F.sub(s, x), F.add(s, F.neg(x)))
    for _ in range(50):
        x, y = rng.randrange(q), rng.randrange(q)
        got = F.sub(x, y)
        assert type(got) is int and got == F.add(x, F.neg(y))
        assert type(F.sub(np.int64(x), y)) is int


def test_scalar_calls_return_python_ints():
    F = field_new(13)
    assert isinstance(F.add(5, 9), int) and F.add(5, 9) == 1
    assert isinstance(F.mul(5, 8), int) and F.mul(5, 8) == 1
    assert F.inv(2) == 7
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


# ---------------------------------------------------------------------------
# matrices: rank/rref/kernel/systematic against the enumeration oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (13, 1), (2, 2)])
def test_rank_matches_rowspace_oracle(p, m):
    F = field_new(p, m)
    rng = np.random.default_rng(20260815 + p * 10 + m)
    for _ in range(25):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 6))
        A = rng.integers(0, F.q, size=(k, n))
        M = MatrixGF(F, A)
        assert mat_rank(M) == oracle_rank(F, A.tolist())


def test_rref_shape_and_span():
    F = field_new(5)
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.integers(0, 5, size=(3, 5))
        M = MatrixGF(F, A)
        R, piv = mat_rref(M)
        assert list(piv) == sorted(piv)
        for j, c in enumerate(piv):
            col = R.a[:, c]
            assert col[j] == 1 and np.count_nonzero(col) == 1
        assert rowspace_vectors(F, A.tolist()) == rowspace_vectors(
            F, [r for r in R.tolist() if any(r)] or [[0] * 5]
        )


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (13, 1), (2, 4), (3, 2)])
def test_rref_stack_pivot_limit(p, m):
    """With the limit equal to the width the stack is reduced as without one.
    With limit l, the first l columns of each matrix are reduced as mat_rref
    reduces them alone, no later column takes a pivot, and each matrix keeps
    its row space."""
    F = field_new(p, m)
    rng = np.random.default_rng(p * 100 + m)
    for k, s in [(1, 1), (3, 5), (4, 7), (5, 3)]:
        B = rng.integers(0, F.q, size=(16, k, s))
        B[::4, :, 0] = 0  # a zero column
        B[1::4, :, s - 1] = F.mul(int(rng.integers(1, F.q)), B[1::4, :, 0])  # a multiple
        full = _rref_stack(F, B)
        for got, want in zip(_rref_stack(F, B, s), full):
            assert np.array_equal(got, want)
        for limit in range(s + 1):
            R, pivot, rank = _rref_stack(F, B, limit)
            assert not pivot[:, limit:].any()
            for b in range(len(B)):
                Rl, piv = mat_rref(MatrixGF(F, B[b, :, :limit]))
                assert np.array_equal(R[b, :, :limit], Rl.a)
                assert np.flatnonzero(pivot[b]).tolist() == list(piv)
                assert rank[b] == len(piv)
                both = MatrixGF(F, np.vstack([B[b], R[b]]))
                assert mat_rank(MatrixGF(F, R[b])) == mat_rank(MatrixGF(F, B[b])) == mat_rank(both)


# ---------------------------------------------------------------------------
# integer-domain pivot steps against the field-method reference
# ---------------------------------------------------------------------------


def rref_reference(F, A):
    """mat_rref as it was before integer-domain elimination: each pivot step
    goes through F.mul / F.inv / F.sub on the rows it touches."""
    A = np.array(A, dtype=np.int64)
    nr, nc = A.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        pv = int(A[r, c])
        if pv != 1:
            A[r] = F.mul(A[r], F.inv(pv))
        col = A[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            A[rows] = F.sub(A[rows], F.mul(col[rows][:, None], A[r][None, :]))
        pivots.append(c)
        r += 1
    return A, tuple(pivots)


def rref_stack_reference(F, B, limit=None):
    """_rref_stack as it was before integer-domain elimination."""
    N, k, s = B.shape
    B = B.copy()
    rank = np.zeros(N, dtype=np.int64)
    pivot = np.zeros((N, s), dtype=bool)
    rows = np.arange(k)
    for c in range(s if limit is None else limit):
        cand = (B[:, :, c] != 0) & (rows >= rank[:, None])
        idx = np.flatnonzero(cand.any(axis=1))
        if idx.size == 0:
            continue
        at, top = np.arange(idx.size), rank[idx]
        found = cand[idx].argmax(axis=1)
        M = B[idx]
        M[at, top], M[at, found] = M[at, found], M[at, top]
        M[at, top] = F.mul(M[at, top], F.inv(M[at, top, c])[:, None])
        factor = M[:, :, c].copy()
        factor[at, top] = 0
        B[idx] = F.sub(M, F.mul(factor[:, :, None], M[at, top][:, None, :]))
        pivot[idx, c] = True
        rank[idx] += 1
    return B, pivot, rank


# Prime (GF(2) by XOR, others mod p), table (q <= 2^8, both characteristics)
# and field-method (512, 729) routes; 65521 puts the largest intermediates,
# up to (p-1)^3, through the int64 prime route.
ELIM_FIELDS = [2, 3, 4, 9, 13, 16, 17, 256, 257, 512, 729, 65521]


def elimination_cases(F, rng):
    """Seeded k x n matrices: full rank, rank-deficient (rows combining two
    others), zero rows, zero columns, repeated columns, 1 x 1, all zero."""
    q = F.q
    out = [np.zeros((3, 4), dtype=np.int64), rng.integers(1, q, size=(1, 1)),
           rng.integers(0, q, size=(1, 6)), rng.integers(0, q, size=(6, 1))]
    for k, n in [(2, 5), (4, 4), (5, 9), (7, 5), (8, 12)]:
        out.append(rng.integers(0, q, size=(k, n)))
        A = rng.integers(0, q, size=(k, n))
        A[k - 1] = F.add(F.mul(int(rng.integers(1, q)), A[0]), A[k // 2 - 1])
        A[k // 2] = 0
        A[:, 0] = 0
        A[:, n - 1] = F.mul(int(rng.integers(1, q)), A[:, 1])
        out.append(A)
        A = rng.integers(0, q, size=(k, n))
        A[:, : n // 2] = 0  # no pivot in the leading columns
        out.append(A)
    return out


@pytest.mark.parametrize("q", ELIM_FIELDS)
def test_rref_matches_field_method_reference(q):
    F = field_from_order(q)
    rng = np.random.default_rng(q)
    for A in elimination_cases(F, rng):
        want, want_piv = rref_reference(F, A)
        R, piv = mat_rref(MatrixGF(F, A))
        assert R.a.dtype == np.int64
        assert np.array_equal(R.a, want) and piv == want_piv
        assert mat_rank(MatrixGF(F, A)) == len(want_piv)


@pytest.mark.parametrize("q", ELIM_FIELDS)
def test_rref_stack_matches_field_method_reference(q):
    """Stacks of one matrix, stacks with no zero entry, where every matrix
    pivots in column 0 (the step runs on the whole stack), and mixed stacks
    (it runs on the gathered matrices), at limits None, 0, 1, s - 1 and s."""
    F = field_from_order(q)
    rng = np.random.default_rng(1000 + q)
    for k, s in [(1, 1), (3, 5), (4, 7), (6, 3)]:
        full = rng.integers(1, q, size=(8, k, s))
        mixed = rng.integers(0, q, size=(24, k, s))
        mixed[::3, :, 0] = 0
        mixed[1::3, k - 1] = 0
        mixed[2::4, :, s - 1] = F.mul(int(rng.integers(1, q)), mixed[2::4, :, 0])
        for B in (full[:1], mixed[:1], full, mixed):
            for limit in (None, 0, 1, s - 1, s):
                got = _rref_stack(F, B, limit)
                want = rref_stack_reference(F, B, limit)
                assert got[0].dtype == np.int64
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)


def test_kernel_is_the_null_space():
    F = field_new(3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = rng.integers(0, 3, size=(2, 4))
        M = MatrixGF(F, A)
        K = mat_kernel(M)
        assert K.nrows == 4 - mat_rank(M)
        prod = M @ MatrixGF(F, K.a.T)
        assert not prod.a.any()
        # every vector in K's span really is annihilated, and the count matches
        null_count = 0
        for v in itertools.product(range(3), repeat=4):
            vec = MatrixGF(F, [list(v)])
            if not (M @ MatrixGF(F, vec.a.T)).a.any():
                null_count += 1
        assert null_count == 3**K.nrows


def test_kernel_of_all_ones_row_over_gf2():
    F = field_new(2)
    K = mat_kernel(MatrixGF(F, [[1, 1, 1, 1]]))
    assert K.nrows == 3
    assert all(sum(row) % 2 == 0 for row in K.tolist())


def kronecker(A: MatrixGF, B: MatrixGF) -> MatrixGF:
    """Kronecker product over the common field of A and B."""
    F = A.field
    prod = F.mul(A.a[:, None, :, None], B.a[None, :, None, :])
    return MatrixGF(F, prod.reshape(A.nrows * B.nrows, A.ncols * B.ncols))


def test_kronecker_rank_and_mixed_product():
    F = field_new(2, 2)
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = MatrixGF(F, rng.integers(0, 4, size=(2, 3)))
        B = MatrixGF(F, rng.integers(0, 4, size=(2, 2)))
        K = kronecker(A, B)
        assert K.shape == (4, 6)
        assert mat_rank(K) == mat_rank(A) * mat_rank(B)
        x = MatrixGF(F, rng.integers(0, 4, size=(3, 1)))
        y = MatrixGF(F, rng.integers(0, 4, size=(2, 1)))
        lhs = K @ kronecker(x, y)
        rhs = kronecker(A @ x, B @ y)
        assert lhs == rhs


@pytest.mark.parametrize("call, error, text", [
    (lambda: FiniteField(2, 0), PreconditionError, "extension degree must be >= 1, got 0"),
    (lambda: setattr(MatrixGF(field_new(3), [[1]]), "a", None), AttributeError,
     "MatrixGF is immutable"),
    (lambda: MatrixGF(field_new(3), [[1]]) @ MatrixGF(field_new(5), [[1]]),
     PreconditionError, "field mismatch in matrix product"),
    (lambda: MatrixGF(field_new(3), [[1, 2]]) @ MatrixGF(field_new(3), [[1, 2]]),
     PreconditionError, "shape mismatch (1, 2) @ (1, 2)"),
], ids=["degree", "immutable", "matmul-field", "matmul-shape"])
def test_refusals_keep_their_type_and_text(call, error, text):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == text


def test_matrix_immutability_and_validation():
    F = field_new(3)
    M = MatrixGF(F, [[0, 1], [2, 2]])
    with pytest.raises((ValueError, AttributeError)):
        M.a[0, 0] = 1
    with pytest.raises(PreconditionError):
        MatrixGF(F, [[0, 3]])
    with pytest.raises(PreconditionError):
        MatrixGF(F, [1, 2])
