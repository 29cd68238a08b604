"""Exact matrices: fraction-free rank, rank mod p, and integer kernels found mod p
and checked exactly."""

from bisect import bisect_left
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from struct import Struct


class BadPrimeError(ValueError):
    """A denominator vanishes modulo the requested prime."""


# The 32 largest primes below 2**30, for the modular kernel in nullspace.
# Written out, since finding them at import would slow every import.
PRIMES = (
    1073741789, 1073741783, 1073741741, 1073741723, 1073741719, 1073741717,
    1073741689, 1073741671, 1073741663, 1073741651, 1073741621, 1073741567,
    1073741561, 1073741527, 1073741503, 1073741477, 1073741467, 1073741441,
    1073741419, 1073741399, 1073741387, 1073741381, 1073741371, 1073741329,
    1073741311, 1073741309, 1073741287, 1073741237, 1073741213, 1073741197,
    1073741189, 1073741173,
)

# Cells (rows * cols) up to which nullspace runs Bareiss elimination alone.
# On the 6098 kernels of one classify-images pass and one sweep-hinted set-up
# and pass of bench/run.py (seed 1; 2 vCPUs, Python 3.11.7), modular over
# Bareiss time was 2.29 at 5x6, 1.56 at 9x10, 1.15 at 21x21, 0.76 at 24x21,
# 0.18 at 54x45 and 0.11 at 90x78.  All took 1.29 s with SMALL = 450, against
# 1.59 s all modular and 4.87 s all Bareiss.
SMALL = 450


def parse_rational(s):
    """Parse "p/q" or "p" into a Fraction."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s).strip())


def require_int(value, what):
    """value itself when it is an int and not a bool; TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("%s must be an int, not %r" % (what, value))
    return value


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
    result and the rank is m.cols minus it.

    A matrix of more than SMALL cells goes to the modular kernel
    (_nullspace_modular) first; a smaller one, or one whose primes run out,
    to Bareiss elimination (_nullspace_exact).  Both return the same basis.
    """
    if m.rows * m.cols > SMALL:
        basis = _nullspace_modular(m, PRIMES)
        if basis is not None:
            return basis
    return _nullspace_exact(m)


def _nullspace_exact(m):
    """The kernel basis of nullspace(m) by Bareiss elimination with
    back-substitution in the integers: before a pivot entry is solved for,
    the partial vector is scaled just enough for the division to be exact."""
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


def _nullspace_modular(m, primes):
    """The kernel basis of nullspace(m) from ranks mod p, or None.

    For each prime the echelon form mod p gives a rank and, for each free
    column fc, the kernel vector that is 1 at fc and 0 at every other free
    column.  The prime of highest rank is kept, and among equal ranks the one
    whose pivot columns come earliest; residues of primes that agree with it
    are combined by CRT, rationally reconstructed and cleared to a primitive
    int vector, and a vector counts only once M.v == 0 holds exactly over Z.

    Why the result is exact.  rank mod p is at most the rank over Q, so the
    kernel has dimension at most k = cols - rank_p; full column rank mod p
    thus proves the kernel is 0.  Each verified vector is zero past its free
    column fc and nonzero at fc, so k verified vectors are independent and
    the dimension is exactly k.  A kernel vector whose last nonzero entry is
    at fc makes column fc a combination of earlier columns, so the k free
    columns mod p are the k free columns over Q.  A zero residue lifts to 0,
    so each vector also vanishes at the other free columns, which fixes it up
    to scale: the basis is the one Bareiss elimination gives.

    Returns None when the primes run out before every vector verifies.
    """
    ncols = m.cols
    kept = None
    modulus = 1
    residues = {}
    found = {}
    for p in primes:
        if modulus % p == 0:
            continue
        try:
            pivots, echelon = _echelon_mod(m, p)
        except BadPrimeError:
            continue
        if len(pivots) == ncols:
            return []
        key = (-len(pivots), pivots)
        if kept is not None and key > kept:
            continue
        if key != kept:
            kept, modulus, residues, found = key, 1, {}, {}
        pivot_set = set(pivots)
        todo = [c for c in range(ncols) if c not in pivot_set and c not in found]
        new = _kernel_mod(pivots, echelon, todo, p)
        if modulus == 1:
            residues = new
        else:
            inv = pow(modulus, -1, p)
            for fc in todo:
                residues[fc] = [a + modulus * ((b - a) * inv % p)
                                for a, b in zip(residues[fc], new[fc])]
        modulus *= p
        for fc in todo:
            v = _rational_lift(residues[fc], modulus)
            if v is not None and v[fc] and _kills(m, v):
                found[fc] = v
        if len(found) == ncols - len(pivots):
            return [found[fc] + [0] * (ncols - fc - 1) for fc in sorted(found)]
    return None


def _kernel_mod(pivots, echelon, free, p):
    """For each free column fc, the kernel vector mod p that is 1 at fc and 0
    at the other free columns, cut after entry fc (the rest is 0)."""
    out = {}
    for fc in free:
        v = [0] * (fc + 1)
        v[fc] = 1
        for i in range(bisect_left(pivots, fc) - 1, -1, -1):
            pc = pivots[i]
            v[pc] = -sum(map(mul, echelon[i][pc + 1:fc + 1], v[pc + 1:])) % p
        out[fc] = v
    return out


def _rational_lift(residues, modulus):
    """Primitive int vector proportional to the rational vector with these
    residues mod modulus, or None if some entry has no reconstruction.

    Wang's rational reconstruction bounds numerators and denominators by
    sqrt(modulus / 2).  The entries share a denominator, so each residue is
    first scaled by the denominator found so far and is usually an integer.
    """
    bound = isqrt(modulus >> 1)
    den = 1
    nums = []
    for r in residues:
        r = r * den % modulus
        if r > bound:
            if modulus - r <= bound:
                r -= modulus
            else:
                r0, r1, t0, t1 = modulus, r, 0, 1
                while r1 > bound:
                    q = r0 // r1
                    r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
                if t1 < 0:
                    r1, t1 = -r1, -t1
                den *= t1
                if den > bound:
                    return None
                nums = [x * t1 for x in nums]
                r = r1
        nums.append(r)
    return primitive(nums)


def _kills(m, v):
    """M.v == 0 over Q, for a vector cut after its last nonzero entry."""
    cols, n = m.cols, len(v)
    e = m.entries
    return all(not sum(map(mul, e[i:i + n], v))
               for i in range(0, m.rows * cols, cols))


def _residue(e, p):
    if isinstance(e, int):
        return e % p
    d = e.denominator % p
    if d == 0:
        raise BadPrimeError("denominator divisible by %d" % p)
    return e.numerator * pow(d, -1, p) % p


def _echelon_mod(m, p):
    """Row echelon form of m mod p: (pivot columns, pivot rows).

    Each pivot row is a list of residues in [0, p), zero before its pivot
    column and 1 at it.  During elimination a row is one int holding a slot
    per column (column c at bits c*w and up), so a row operation is one
    big-int multiply-add, row += f * (p - pivot row).  Slots are reduced mod p
    only when read.  A row gets at most rows - 1 such additions, each below
    p**2 per slot, so 2*bits(p) + bits(rows) + 1 bits never overflow; w
    rounds that up to whole bytes, at least 8, so that residues (p < 2**64)
    pack through struct.

    p must be a prime below 2**64: a larger p raises ValueError, and so does
    a pivot that is not invertible mod a composite p.  Raises BadPrimeError
    when some entry's denominator vanishes mod p.
    """
    if p >= 1 << 64:
        raise ValueError("p = %d is not below 2**64" % p)
    ncols = m.cols
    width = max(8, (2 * p.bit_length() + m.rows.bit_length() + 8) // 8)
    size = width * ncols
    bits = 8 * width
    mask = (1 << bits) - 1
    pack = Struct("<" + "Q%dx" % (width - 8) * ncols).pack
    e = m.entries
    rows = []
    for i in range(0, len(e), ncols or 1):
        row = int.from_bytes(pack(*[_residue(x, p) for x in e[i:i + ncols]]), "little")
        if row:
            rows.append(row)
    pivots, echelon = [], []
    for col in range(ncols):
        if not rows:
            break
        shift = col * bits
        for i, row in enumerate(rows):
            lead = (row >> shift & mask) % p
            if lead:
                break
        else:
            continue
        raw = rows.pop(i).to_bytes(size, "little")
        inv = pow(lead, -1, p)
        reduced = [0] * col + [int.from_bytes(raw[j:j + width], "little") * inv % p
                               for j in range(col * width, size, width)]
        neg = int.from_bytes(pack(*[-x % p for x in reduced]), "little")
        for j in range(i, len(rows)):
            row = rows[j]
            f = (row >> shift & mask) % p
            if f:
                rows[j] = row + f * neg
        pivots.append(col)
        echelon.append(reduced)
    return pivots, echelon


def rank_modular(m, p):
    """Rank of m reduced mod p; a lower bound for rank_exact.

    p must be a prime below 2**64; a larger p raises ValueError, and so may a
    composite p.  Raises BadPrimeError when some entry's denominator vanishes
    mod p.
    """
    return len(_echelon_mod(m, p)[0])
