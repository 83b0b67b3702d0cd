"""Finitely presented abelian groups over Z, via Smith normal form.

All arithmetic is exact (Python integers).  A group is presented on a
fixed free basis of rank k together with a list of relation vectors;
elements are reduced to canonical coordinates so that equality of
homology classes is decidable by componentwise comparison.
"""

from __future__ import annotations


def smith_normal_form(m):
    """Smith normal form of an integer matrix with transforms.

    Returns (diag, U, V) where U*m*V is the diagonal matrix with
    entries ``diag`` (padded with zeros), the diagonal entries are
    nonnegative and satisfy diag[i] | diag[i+1], and U, V are square
    unimodular matrices (det = +-1).

    ``m`` is a list of rows; the input is not modified.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(map(int, row)) for row in m]
    for row in a:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    n = min(rows, cols)
    t = 0
    while t < n:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                swap_rows(t, pivot[0])
            if pivot[1] != t:
                swap_cols(t, pivot[1])

        # clear row t and column t; remainders become smaller pivots
        restart = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t] != 0:
                    restart = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j] != 0:
                    restart = True
        if restart:
            continue

        # pivot must divide the remaining block for the chain condition
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue

        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    diag = [a[i][i] for i in range(n)]
    return diag, u, v


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class AbelianGroup:
    """Quotient of Z^k by the column span of a relation matrix.

    The Smith normal form of the relation matrix is computed once and
    cached; ``reduce`` maps integer vectors to canonical coordinates of
    their class in the quotient.
    """

    def __init__(self, rank, relations=()):
        self.rank = int(rank)
        self.relations = [tuple(int(x) for x in r) for r in relations]
        for r in self.relations:
            if len(r) != self.rank:
                raise ValueError("relation length does not match rank")
        if self.rank == 0:
            self.diag, self.u, self.v = [], [], []
        elif not self.relations:
            self.diag = []
            self.u = _identity(self.rank)
            self.v = []
        else:
            mat = [[r[i] for r in self.relations] for i in range(self.rank)]
            self.diag, self.u, self.v = smith_normal_form(mat)

    @property
    def invariant_factors(self):
        """Nontrivial torsion factors d > 1, in the divisibility chain."""
        return [d for d in self.diag if d > 1]

    @property
    def free_rank(self):
        return self.rank - sum(1 for d in self.diag if d != 0)

    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    def reduce(self, vector):
        """Canonical coordinates of the class of ``vector`` in the quotient."""
        vec = [int(x) for x in vector]
        if len(vec) != self.rank:
            raise ValueError(
                "vector length %d does not match rank %d" % (len(vec), self.rank)
            )
        if self.rank == 0:
            return GroupElement(self, ())
        w = [
            sum(self.u[i][j] * vec[j] for j in range(self.rank))
            for i in range(self.rank)
        ]
        coords = []
        for i in range(self.rank):
            d = self.diag[i] if i < len(self.diag) else 0
            coords.append(w[i] % d if d != 0 else w[i])
        return GroupElement(self, tuple(coords))

    def zero(self):
        return self.reduce([0] * self.rank)

    def describe(self):
        """Human-readable isomorphism type, e.g. 'Z + Z/2'."""
        parts = ["Z/%d" % d for d in self.invariant_factors]
        parts.extend(["Z"] * self.free_rank)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "AbelianGroup(rank=%d, %s)" % (self.rank, self.describe())


class GroupElement:
    """An element of an AbelianGroup in canonical coordinates."""

    __slots__ = ("group", "coords")

    def __init__(self, group, coords):
        self.group = group
        self.coords = tuple(coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group is other.group and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.group), self.coords))

    def __add__(self, other):
        if other.group is not self.group:
            raise ValueError("elements of different groups")
        return self._from_canonical([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        if other.group is not self.group:
            raise ValueError("elements of different groups")
        return self._from_canonical([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self._from_canonical([-a for a in self.coords])

    def _from_canonical(self, raw):
        coords = []
        for i, x in enumerate(raw):
            d = self.group.diag[i] if i < len(self.group.diag) else 0
            coords.append(x % d if d != 0 else x)
        return GroupElement(self.group, tuple(coords))

    def __repr__(self):
        return "GroupElement%r" % (self.coords,)
