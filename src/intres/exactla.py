"""Exact dense linear algebra over the rationals and over prime fields.

Everything downstream (hom spaces, kernels, projective covers, homology)
reduces to row reduction of small dense matrices, so this module keeps a
single canonical kernel per field: full reduced row echelon form with
leftmost-pivot selection, in pure Python.  Entries are exact scalars.
Over Q an entry is an int when it is integral and a `fractions.Fraction`
only when it is not; `Fraction(2) == 2` and the two hash and print alike,
so values never depend on the stored form, but integral entries stay off
the slow Fraction arithmetic.  Over GF(p) entries are ints in [0, p).
"""

from __future__ import annotations

from fractions import Fraction


def _q_inverse(x):
    """The inverse of a nonzero rational, as an int when it is integral."""
    n, d = x.numerator, x.denominator
    if n == 1 or n == -1:
        return n * d
    return Fraction(d, n)


def _rref_frac(data, nrows, ncols):
    """In-place RREF for rational entries. Returns (data, pivot columns).

    Every entry written is in the stored form: an int when integral."""
    pivots = []
    r = 0
    for c in range(ncols):
        p = -1
        for i in range(r, nrows):
            if data[i * ncols + c]:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            pr, pp = r * ncols, p * ncols
            for j in range(c, ncols):
                data[pr + j], data[pp + j] = data[pp + j], data[pr + j]
        piv = data[r * ncols + c]
        if piv != 1:
            inv = _q_inverse(piv)
            for j in range(c, ncols):
                x = data[r * ncols + j]
                if x:
                    x = x * inv
                    data[r * ncols + j] = x.numerator if x.denominator == 1 else x
        for i in range(nrows):
            if i == r:
                continue
            factor = data[i * ncols + c]
            if factor:
                base = r * ncols
                row = i * ncols
                for j in range(c, ncols):
                    x = data[base + j]
                    if x:
                        y = data[row + j] - factor * x
                        data[row + j] = y.numerator if y.denominator == 1 else y
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return data, pivots


def _rref_mod(data, nrows, ncols, p):
    """In-place RREF for entries in GF(p), represented as ints in [0, p)."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv_row = -1
        for i in range(r, nrows):
            if data[i * ncols + c]:
                piv_row = i
                break
        if piv_row < 0:
            continue
        if piv_row != r:
            pr, pp = r * ncols, piv_row * ncols
            for j in range(c, ncols):
                data[pr + j], data[pp + j] = data[pp + j], data[pr + j]
        inv = pow(data[r * ncols + c], p - 2, p)
        if inv != 1:
            for j in range(c, ncols):
                if data[r * ncols + j]:
                    data[r * ncols + j] = data[r * ncols + j] * inv % p
        for i in range(nrows):
            if i == r:
                continue
            factor = data[i * ncols + c]
            if factor:
                base = r * ncols
                row = i * ncols
                for j in range(c, ncols):
                    x = data[base + j]
                    if x:
                        data[row + j] = (data[row + j] - factor * x) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return data, pivots


class Field:
    """The coefficient field: the rationals or GF(p) for a prime p."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in ("Q", "GF"):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "GF":
            if p is None or p < 2 or not _is_prime(p):
                raise ValueError(f"GF order must be prime, got {p!r}")
        self.kind = kind
        self.p = p

    @classmethod
    def rationals(cls):
        return cls("Q")

    @classmethod
    def prime(cls, p):
        return cls("GF", p)

    @property
    def characteristic(self):
        return 0 if self.kind == "Q" else self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        """Coerce an int, Fraction or 'a/b' string into this field.  Over Q
        the result is an int when the value is integral and a Fraction
        otherwise; over GF(p) it is an int in [0, p).  A float is refused
        with TypeError: it is not an exact scalar."""
        if type(x) is int:
            return x if self.kind == "Q" else x % self.p
        if isinstance(x, float):
            raise TypeError(f"{x!r} is a float; pass an int, Fraction or 'a/b' string")
        if self.kind == "Q":
            if isinstance(x, str):
                x = x.strip()
                if "/" not in x:
                    return int(x)
                num, den = x.split("/")
                x = Fraction(int(num), int(den))
            elif not isinstance(x, Fraction):
                x = Fraction(x)
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, str):
            x = x.strip()
            if "/" in x:
                num, den = x.split("/")
                return int(num) * self.invert(int(den)) % self.p
            x = int(x)
        if isinstance(x, Fraction):
            return x.numerator * self.invert(x.denominator) % self.p
        return int(x) % self.p

    def invert(self, x):
        x = self.coerce(x)
        if not x:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        if self.kind == "Q":
            return _q_inverse(x)
        return pow(x, self.p - 2, self.p)

    def __eq__(self, other):
        return (
            isinstance(other, Field) and self.kind == other.kind and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Q" if self.kind == "Q" else f"GF({self.p})"


# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n):
    if n < 2:
        return False
    if n >= _PRIME_LIMIT:
        raise ValueError(f"primality is decided only below {_PRIME_LIMIT}, got {n}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


QQ = Field.rationals()


class Mat:
    """A dense matrix over a Field, stored as a flat row-major list."""

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field, nrows, ncols, data):
        if len(data) != nrows * ncols:
            raise ValueError(
                f"data length {len(data)} does not match shape {nrows}x{ncols}"
            )
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.data = data

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        nrows = len(rows)
        if nrows == 0:
            if ncols is None:
                ncols = 0
            return cls(field, 0, ncols, [])
        width = len(rows[0])
        if ncols is not None and ncols != width:
            raise ValueError(f"expected {ncols} columns, rows have {width}")
        data = []
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            data.extend(field.coerce(x) for x in row)
        return cls(field, nrows, width, data)

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, nrows, ncols, [z] * (nrows * ncols))

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m.data[i * n + i] = one
        return m

    @classmethod
    def column(cls, field, entries):
        return cls(field, len(entries), 1, [field.coerce(x) for x in entries])

    @classmethod
    def from_columns(cls, field, cols, nrows):
        """The nrows x len(cols) matrix with the given columns (entries are
        taken as they are, already in the field)."""
        return cls(field, nrows, len(cols), [c[i] for i in range(nrows) for c in cols])

    # ---- access --------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.ncols + j]

    def row(self, i):
        return self.data[i * self.ncols : (i + 1) * self.ncols]

    def col(self, j):
        return [self.data[i * self.ncols + j] for i in range(self.nrows)]

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_zero(self):
        return not any(self.data)

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._check_same_shape(other)
        if self.field.kind == "GF":
            p = self.field.p
            data = [(a + b) % p for a, b in zip(self.data, other.data)]
        else:
            data = [a + b for a, b in zip(self.data, other.data)]
        return Mat(self.field, self.nrows, self.ncols, data)

    def __sub__(self, other):
        self._check_same_shape(other)
        if self.field.kind == "GF":
            p = self.field.p
            data = [(a - b) % p for a, b in zip(self.data, other.data)]
        else:
            data = [a - b for a, b in zip(self.data, other.data)]
        return Mat(self.field, self.nrows, self.ncols, data)

    def __neg__(self):
        if self.field.kind == "GF":
            p = self.field.p
            return Mat(self.field, self.nrows, self.ncols, [(-a) % p for a in self.data])
        return Mat(self.field, self.nrows, self.ncols, [-a for a in self.data])

    def scale(self, c):
        c = self.field.coerce(c)
        if self.field.kind == "GF":
            p = self.field.p
            return Mat(self.field, self.nrows, self.ncols, [a * c % p for a in self.data])
        return Mat(self.field, self.nrows, self.ncols, [a * c for a in self.data])

    def __mul__(self, other):
        """Matrix product self @ other."""
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch {self.shape} * {other.shape}"
            )
        n, k, m = self.nrows, self.ncols, other.ncols
        zero = self.field.zero()
        out = [zero] * (n * m)
        a, b = self.data, other.data
        modp = self.field.p if self.field.kind == "GF" else None
        for i in range(n):
            arow = i * k
            orow = i * m
            for t in range(k):
                x = a[arow + t]
                if not x:
                    continue
                brow = t * m
                if modp is None:
                    for j in range(m):
                        y = b[brow + j]
                        if y:
                            out[orow + j] = out[orow + j] + x * y
                else:
                    for j in range(m):
                        y = b[brow + j]
                        if y:
                            out[orow + j] = (out[orow + j] + x * y) % modp
        return Mat(self.field, n, m, out)

    def transpose(self):
        out = [None] * (self.nrows * self.ncols)
        for i in range(self.nrows):
            for j in range(self.ncols):
                out[j * self.nrows + i] = self.data[i * self.ncols + j]
        return Mat(self.field, self.ncols, self.nrows, out)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.shape == other.shape
            and self.field == other.field
            and all(a == b for a, b in zip(self.data, other.data))
        )

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"Mat({self.nrows}x{self.ncols})"
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.nrows)
        )
        return f"Mat[{body}]"

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    # ---- stacking -------------------------------------------------------

    @classmethod
    def hstack(cls, field, mats, nrows=None):
        mats = list(mats)
        if not mats:
            return cls.zeros(field, nrows or 0, 0)
        nrows = mats[0].nrows
        if any(m.nrows != nrows for m in mats):
            raise ValueError("hstack: row counts differ")
        data = []
        for i in range(nrows):
            for m in mats:
                data.extend(m.row(i))
        return cls(field, nrows, sum(m.ncols for m in mats), data)

    @classmethod
    def vstack(cls, field, mats, ncols=None):
        mats = list(mats)
        if not mats:
            return cls.zeros(field, 0, ncols or 0)
        ncols = mats[0].ncols
        if any(m.ncols != ncols for m in mats):
            raise ValueError("vstack: column counts differ")
        data = []
        for m in mats:
            data.extend(m.data)
        return cls(field, sum(m.nrows for m in mats), ncols, data)

    @classmethod
    def block(cls, field, grid):
        """Assemble a block matrix from a 2d grid of Mats (None = zero block
        is not allowed; pass explicit zero matrices so shapes are known)."""
        rows = [cls.hstack(field, row) for row in grid]
        return cls.vstack(field, rows)

    # ---- elimination-derived operations ---------------------------------

    def rref(self):
        """Reduced row echelon form. Returns (Mat, tuple of pivot columns)."""
        data = list(self.data)
        if self.field.kind == "GF":
            data, pivots = _rref_mod(data, self.nrows, self.ncols, self.field.p)
        else:
            data, pivots = _rref_frac(data, self.nrows, self.ncols)
        return Mat(self.field, self.nrows, self.ncols, data), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the right kernel, as a list of length-ncols coordinate
        lists, in the canonical RREF order (one vector per free column)."""
        if self.nrows:
            R, pivots = self.rref()
        else:  # no equations: every column is free, nothing to eliminate
            R, pivots = self, ()
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        zero = self.field.zero()
        one = self.field.one()
        basis = []
        for f in free:
            v = [zero] * self.ncols
            v[f] = one
            for i, c in enumerate(pivots):
                x = R.data[i * self.ncols + f]
                if x:
                    v[c] = -x if self.field.kind == "Q" else (-x) % self.field.p
            basis.append(v)
        return basis

    @staticmethod
    def free_columns(basis):
        """The free column of each vector of a `kernel_basis` basis.

        Each vector is 1 at its free column and 0 at the other free columns,
        and its remaining nonzero entries sit at pivot columns left of it, so
        its free column is its last nonzero entry.  The basis is the identity
        on these columns: the coordinates of any element of its span are the
        element's entries there (see `coordinates`).
        """
        return [next(i for i in range(len(v) - 1, -1, -1) if v[i]) for v in basis]

    def coordinates(self, free, block):
        """X with self @ X == block, where the columns of self are a kernel
        basis with free columns `free`: the rows of block at `free`, checked
        by the product.  None when a column of block is not in the span."""
        rows = [a for i in free for a in block.row(i)]
        x = Mat(self.field, len(free), block.ncols, rows)
        return x if self * x == block else None
