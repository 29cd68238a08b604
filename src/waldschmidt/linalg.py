"""Exact matrices: fraction-free rank, integer kernels, and a modular rank filter."""

from fractions import Fraction
from math import gcd, lcm


class BadPrimeError(ValueError):
    """A denominator vanishes modulo the requested prime."""


def parse_rational(s):
    """Parse "p/q" or "p" into a Fraction."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s).strip())


def format_rational(q):
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class RatMatrix:
    """Immutable dense matrix over the rationals, stored row-major.

    Integer entries are kept as int; any other entry is read as a Fraction.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = [e if isinstance(e, int) else Fraction(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError("need %d entries, got %d" % (rows * cols, len(entries)))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def from_rows(cls, row_lists):
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        flat = []
        for r in row_lists:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, flat)

    def row(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def row_lists(self):
        return [self.row(i) for i in range(self.rows)]

    def transpose(self):
        e = []
        for c in range(self.cols):
            for r in range(self.rows):
                e.append(self.entries[r * self.cols + c])
        return RatMatrix(self.cols, self.rows, e)

    def mul_vector(self, v):
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            out.append(sum(self.entries[base + j] * v[j] for j in range(self.cols)))
        return out

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return "RatMatrix(%d, %d, %r)" % (self.rows, self.cols, list(self.entries))


def primitive(values):
    """Coprime integers proportional to a rational vector, first nonzero entry positive.

    Integer entries are used as they are; otherwise every entry is read as a
    Fraction and the vector is scaled by the common denominator.  The zero
    vector comes back unchanged.
    """
    if not all(isinstance(v, int) for v in values):
        values = [Fraction(v) for v in values]
        den = lcm(*(v.denominator for v in values))
        values = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*values)
    for v in values:
        if v:
            if v < 0:
                g = -g
            break
    if g == 0 or g == 1:
        return list(values)
    return [v // g for v in values]


def _integer_rows(m):
    """Each row as a primitive integer vector; rank and kernel are unchanged."""
    return [primitive(m.row(i)) for i in range(m.rows)]


def _bareiss_echelon(rows, ncols):
    """Fraction-free (Bareiss) forward elimination in place.

    Returns the list of pivot columns.  Every intermediate entry is a minor of
    the input, so all divisions below are exact.  Pivot rows are chosen by
    smallest nonzero magnitude, which keeps the minors small in practice and
    is deterministic for a fixed input order.
    """
    nrows = len(rows)
    pivots = []
    prev = 1
    lead = 0
    for col in range(ncols):
        if lead >= nrows:
            break
        best = -1
        bestval = 0
        for r in range(lead, nrows):
            v = rows[r][col]
            if v:
                a = -v if v < 0 else v
                if best < 0 or a < bestval:
                    best, bestval = r, a
                    if a == 1:
                        break
        if best < 0:
            continue
        if best != lead:
            rows[lead], rows[best] = rows[best], rows[lead]
        p = rows[lead][col]
        for r in range(lead + 1, nrows):
            row = rows[r]
            v = row[col]
            prow = rows[lead]
            if v:
                for c in range(col + 1, ncols):
                    row[c] = (p * row[c] - v * prow[c]) // prev
                row[col] = 0
            elif p != prev:
                for c in range(col + 1, ncols):
                    row[c] = (p * row[c]) // prev
        pivots.append(col)
        prev = p
        lead += 1
    return pivots


def rank_exact(m):
    """Rank of m over the rationals by fraction-free elimination."""
    return len(_bareiss_echelon(_integer_rows(m), m.cols))


def nullspace(m):
    """Basis of the right kernel, each vector a primitive list of ints.

    Vectors are produced one per free column, in column order, with the first
    nonzero entry positive; so the kernel dimension is the length of the
    result and the rank is m.cols minus it.  Back-substitution stays in the
    integers: before a pivot entry is solved for, the partial vector is scaled
    just enough for the division to be exact.
    """
    ncols = m.cols
    rows = _integer_rows(m)
    pivots = _bareiss_echelon(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = 1
        # back-substitution over the echelon rows, bottom up
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            row = rows[i]
            s = sum(row[c] * v[c] for c in range(pc + 1, ncols) if v[c])
            if s:
                p = row[pc]
                g = gcd(s, p)
                k = abs(p) // g
                if k != 1:
                    v = [x * k for x in v]
                # p * v[pc] + k * s == 0
                v[pc] = -(s // g) if p > 0 else s // g
        basis.append(primitive(v))
    return basis


def rank_modular(m, p):
    """Rank of m reduced mod p; a lower bound for rank_exact.

    Raises BadPrimeError when some entry's denominator vanishes mod p.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    rows = []
    for i in range(m.rows):
        row = []
        for e in m.row(i):
            d = e.denominator % p
            if d == 0:
                raise BadPrimeError("denominator divisible by %d" % p)
            row.append(e.numerator * pow(d, p - 2, p) % p)
        rows.append(row)
    rank = 0
    ncols = m.cols
    for col in range(ncols):
        piv = -1
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        prow = rows[rank]
        for r in range(rank + 1, len(rows)):
            v = rows[r][col]
            if v:
                f = v * inv % p
                row = rows[r]
                for c in range(col, ncols):
                    row[c] = (row[c] - f * prow[c]) % p
        rank += 1
        if rank == len(rows):
            break
    return rank
