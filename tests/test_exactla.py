"""Exact linear algebra kernel: field arithmetic, RREF, rank, kernels and
coordinates in kernel bases."""

import random
from fractions import Fraction

import pytest

from intres import QQ, Field, Mat

GF5 = Field.prime(5)
GF2 = Field.prime(2)
# a prime above 2**32: products of entries overflow 64-bit integers
GF_BIG = Field.prime(4294967311)


def rand_mat(field, nrows, ncols, rng, span=4):
    if field.kind == "Q":
        data = [field.coerce(Fraction(rng.randrange(-span, span + 1),
                                      rng.randrange(1, 3)))
                for _ in range(nrows * ncols)]
    else:
        data = [field.coerce(rng.randrange(field.p))
                for _ in range(nrows * ncols)]
    return Mat(field, nrows, ncols, data)


# ---- fields ------------------------------------------------------------------


def test_field_basics():
    assert QQ.kind == "Q" and QQ.characteristic == 0
    assert GF5.kind == "GF" and GF5.characteristic == 5
    assert QQ == Field.rationals() and hash(QQ) == hash(Field.rationals())
    assert GF5 == Field.prime(5) and GF5 != GF2 and GF5 != QQ


def test_field_coerce_rationals():
    assert QQ.coerce("3/4") == Fraction(3, 4)
    assert QQ.coerce("-2") == -2
    assert QQ.coerce(Fraction(1, 3)) * 3 == 1
    assert QQ.invert(QQ.coerce("5/7")) == Fraction(7, 5)


def test_q_invert_is_exact():
    """The inverse over Q is exact for an int argument, never a float, and
    is an int when it is integral."""
    half = QQ.invert(2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert QQ.invert(-1) == -1 and type(QQ.invert(-1)) is int
    assert QQ.invert(Fraction(-1, 3)) == -3 and type(QQ.invert(Fraction(-1, 3))) is int
    assert QQ.invert(Fraction(-2, 3)) == Fraction(-3, 2)
    for zero in (0, Fraction(0), "0"):
        with pytest.raises(ZeroDivisionError):
            QQ.invert(zero)


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
def test_coerce_refuses_floats(field):
    """A float is not an exact scalar: it is refused, not rounded or read
    off its binary expansion."""
    for x in (0.5, 0.1, 2.0, -1.0):
        with pytest.raises(TypeError, match="float"):
            field.coerce(x)
    with pytest.raises(TypeError):
        Mat.from_rows(field, [[1, 0.5]])
    with pytest.raises(TypeError):
        Mat.identity(field, 2).scale(0.5)
    with pytest.raises(TypeError):
        field.invert(0.5)


def test_field_coerce_gf():
    assert GF5.coerce(7) == 2
    assert GF5.coerce(-1) == 4
    assert GF5.coerce("3/4") == (3 * GF5.invert(4)) % 5
    for x in range(1, 5):
        assert (GF5.invert(x) * x) % 5 == 1
    with pytest.raises(ZeroDivisionError):
        GF5.invert(0)


def test_prime_validation():
    with pytest.raises(ValueError):
        Field.prime(4)
    with pytest.raises(ValueError):
        Field.prime(1)
    Field.prime(2), Field.prime(97)  # fine


def test_large_primes_and_strong_pseudoprimes():
    assert Field.prime(2**61 - 1).p == 2**61 - 1
    assert Field.prime(4294967311).p == 4294967311
    # a Carmichael number and strong pseudoprimes to the bases 2, 3, 5, 7
    # and to every prime base up to 37
    for n in (561, 3215031751, 3825123056546413051):
        with pytest.raises(ValueError, match="must be prime"):
            Field.prime(n)
    for n in range(100):
        want = n > 1 and all(n % d for d in range(2, n))
        if want:
            Field.prime(n)
        else:
            with pytest.raises(ValueError):
                Field.prime(n)
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        Field.prime(2**89 - 1)


# ---- matrix construction and arithmetic ---------------------------------------


def test_constructors_and_indexing():
    m = Mat.from_rows(QQ, [[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m[0, 1] == 2 and m.row(1) == [3, 4] and m.col(0) == [1, 3]
    assert Mat.identity(QQ, 3)[1, 1] == 1
    assert Mat.zeros(QQ, 2, 5).is_zero()
    assert Mat.from_rows(QQ, [], ncols=3).shape == (0, 3)
    assert Mat.from_columns(QQ, [[1, 3], [2, 4]], 2) == m
    assert Mat.from_columns(QQ, [], 2).shape == (2, 0)
    with pytest.raises(ValueError):
        Mat.from_rows(QQ, [[1, 2], [3]])


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(1)
    for _ in range(25):
        n, k, m = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5)
        a = rand_mat(QQ, n, k, rng)
        b = rand_mat(QQ, k, m, rng)
        prod = a * b
        for i in range(n):
            for j in range(m):
                want = sum(
                    (Fraction(a[i, t]) * Fraction(b[t, j]) for t in range(k)),
                    Fraction(0),
                )

                assert Fraction(prod[i, j]) == want
        c = rand_mat(QQ, n, k, rng)
        assert (a + c) - c == a
        assert (-a) + a == Mat.zeros(QQ, n, k)
        assert a.scale(QQ.coerce("3/2")).scale(QQ.coerce("2/3")) == a
        assert a.transpose().transpose() == a


def test_gf_arithmetic_reduces():
    rng = random.Random(2)
    for _ in range(20):
        a = rand_mat(GF5, 3, 3, rng)
        b = rand_mat(GF5, 3, 3, rng)
        for m in (a * b, a + b, a - b, -a, a.scale(4)):
            assert all(0 <= x < 5 for x in m.data)


def test_stacking():
    a = Mat.from_rows(QQ, [[1, 2]])
    b = Mat.from_rows(QQ, [[3, 4]])
    assert Mat.vstack(QQ, [a, b]) == Mat.from_rows(QQ, [[1, 2], [3, 4]])
    assert Mat.hstack(QQ, [a, b]) == Mat.from_rows(QQ, [[1, 2, 3, 4]])
    grid = [[Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 2)],
            [Mat.zeros(QQ, 2, 1), Mat.identity(QQ, 2)]]
    assert Mat.block(QQ, grid) == Mat.identity(QQ, 3)
    assert Mat.hstack(QQ, [], nrows=2).shape == (2, 0)
    assert Mat.vstack(QQ, [], ncols=3).shape == (0, 3)


# ---- elimination: rank / kernel / coordinates ----------------------------------------


@pytest.mark.parametrize("field", [QQ, GF5, GF2, GF_BIG])
def test_rref_properties(field):
    rng = random.Random(3)
    for _ in range(40):
        n, m = rng.randrange(0, 6), rng.randrange(0, 6)
        a = rand_mat(field, n, m, rng)
        red, pivots = a.rref()
        assert len(pivots) == a.rank()
        # pivot columns of the reduced matrix are standard basis vectors
        for r, c in enumerate(pivots):
            assert red.col(c) == [field.one() if i == r else field.zero()
                                  for i in range(n)]
        # idempotence
        red2, pivots2 = red.rref()
        assert red2 == red and pivots2 == pivots


@pytest.mark.parametrize("field", [QQ, GF5])
def test_rank_identities(field):
    rng = random.Random(4)
    for _ in range(40):
        n, k, m = rng.randrange(0, 5), rng.randrange(0, 5), rng.randrange(0, 5)
        a = rand_mat(field, n, k, rng)
        b = rand_mat(field, k, m, rng)
        assert a.rank() == a.transpose().rank()
        assert (a * b).rank() <= min(a.rank(), b.rank())
        assert a.rank() + len(a.kernel_basis()) == a.ncols


@pytest.mark.parametrize("field", [QQ, GF5])
def test_kernel_basis(field):
    rng = random.Random(5)
    for _ in range(40):
        a = rand_mat(field, rng.randrange(0, 5), rng.randrange(0, 5), rng)
        basis = a.kernel_basis()
        if basis:
            cols = Mat(field, a.ncols, len(basis),
                       [basis[j][i] for i in range(a.ncols)
                        for j in range(len(basis))])
            assert (a * cols).is_zero()
            assert cols.rank() == len(basis)


@pytest.mark.parametrize("field", [QQ, GF5, GF2])
def test_kernel_basis_without_rows_skips_elimination(field, monkeypatch):
    """With no rows the kernel basis is read off without an elimination,
    and equals what eliminating an all-zero row gives."""
    want = [Mat.zeros(field, 1, n).kernel_basis() for n in range(5)]

    def no_rref(self):
        raise AssertionError("eliminated a matrix with no rows")

    monkeypatch.setattr(Mat, "rref", no_rref)
    for n in range(5):
        got = Mat.zeros(field, 0, n).kernel_basis()
        assert got == want[n]
        assert [type(x) for v in got for x in v] == [
            type(x) for v in want[n] for x in v
        ]


@pytest.mark.parametrize("field", [QQ, GF2, GF_BIG])
def test_coordinates_read_at_free_columns(field):
    """Combinations of a kernel basis are recovered exactly from their
    entries at the free columns, and a vector outside the span is refused."""
    rng = random.Random(6)
    refused = 0
    for _ in range(40):
        a = rand_mat(field, rng.randrange(0, 5), rng.randrange(1, 7), rng)
        basis = a.kernel_basis()
        free = Mat.free_columns(basis)
        assert len(set(free)) == len(basis)
        for v, f in zip(basis, free):
            assert v[f] == field.one()
            assert [v[g] for g in free if g != f] == [field.zero()] * (len(free) - 1)
        span = Mat.from_columns(field, basis, a.ncols)
        coeffs = rand_mat(field, len(basis), 3, rng)
        assert span.coordinates(free, span * coeffs) == coeffs
        outside = rand_mat(field, a.ncols, 1, rng)
        if not (a * outside).is_zero():
            refused += 1
            assert span.coordinates(free, outside) is None
    assert refused


# ---- the stored form over Q: an int when integral ------------------------------


def fraction_rref(rows, ncols):
    """Reference RREF with every entry a Fraction: leftmost pivots, pivot
    rows scaled to 1, every other row cleared.  Returns (rows, pivots)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def in_stored_form(x):
    """An int, or a Fraction that is not integral; never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def rand_q_rows(nrows, ncols, rng):
    """Rows over Q with denominators up to 6; about half the draws are
    of low rank (later rows are combinations of the first few)."""
    def entry():
        return Fraction(rng.randrange(-9, 10), rng.choice((1, 1, 1, 2, 3, 6)))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.5:
        k = rng.randrange(1, nrows)
        for i in range(k, nrows):
            coeffs = [entry() for _ in range(k)]
            rows[i] = [sum((a * rows[t][j] for t, a in enumerate(coeffs)), Fraction(0))
                       for j in range(ncols)]
    return rows


def test_q_elimination_matches_a_fraction_reference_in_stored_form():
    """Over Q the RREF equals a Fraction-only reference entry for entry,
    with the same pivots, and every entry of the RREF, of the kernel basis
    and of coerce and invert is an int or a non-integral Fraction."""
    rng = random.Random(7)
    fractional = integral_pivots = 0
    for _ in range(150):
        n, m = rng.randrange(0, 7), rng.randrange(0, 7)
        rows = rand_q_rows(n, m, rng)
        a = Mat.from_rows(QQ, rows, ncols=m)
        assert all(in_stored_form(x) for x in a.data)
        red, pivots = a.rref()
        want, want_pivots = fraction_rref(rows, m)
        assert pivots == want_pivots
        assert red.rows() == want
        assert all(in_stored_form(x) for x in red.data)
        fractional += any(type(x) is Fraction for x in red.data)
        integral_pivots += all(type(x) is int for x in red.data) and bool(pivots)
        basis = a.kernel_basis()
        assert len(basis) == m - len(pivots)
        assert all(in_stored_form(x) for v in basis for x in v)
        for x in a.data:
            assert in_stored_form(QQ.coerce(x))
            if x:
                inv = QQ.invert(x)
                assert in_stored_form(inv) and inv * x == 1
    assert fractional and integral_pivots
    for x in (3, -4, "6/3", " -5/10 ", "7", Fraction(8, 4), Fraction(2, 6)):
        assert in_stored_form(QQ.coerce(x))
    assert type(QQ.zero()) is int and type(QQ.one()) is int
