"""Exact sparse linear algebra over the rationals.

``SparseVector`` is the one keyed exact sparse vector of the package: a
dict {key: Fraction} with no zero entries, plus the vector-space
operations.  ``relations.LinComb`` (keys are signed permutations) and the
oracle's simplicial and join chains (keys are simplices) subclass it.

``SparseEchelon`` is incremental row-echelon elimination.  Rows live in
dicts {column: integer coefficient} and are kept primitive (content 1,
positive leading coefficient).  Columns are plain integers and the
elimination priority is the natural integer order, so callers encode
their pivot preference in the column indexing.  No back-substitution is
performed: a registered pivot row may still mention later pivot columns,
and vector reduction simply walks columns monotonically, which terminates
because a pivot row's off-pivot entries all sit at strictly later columns.

``BasisSolver`` is the one coordinate solver: it finds the coordinates of
a vector in a fixed basis by augmented echelon elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

_REGULARIZE_BOUND = 1 << 63  # renormalize integer rows past this magnitude


class SparseVector:
    """Exact sparse vector: ``terms`` maps keys to nonzero Fractions.

    Subclasses fix the key type.  Arithmetic builds its result through
    ``_like``, so it keeps the subclass (and whatever else ``_like``
    carries over, such as a support); equality is only ever between
    vectors of the same class.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms: dict = {k: Fraction(c) for k, c in (terms or {}).items() if c}

    def _like(self, terms: dict) -> "SparseVector":
        return type(self)(terms)

    @staticmethod
    def combine(pairs: Iterable[tuple[int | Fraction, Mapping]]) -> dict:
        """The sum of c * v over pairs (c, v) with v a {key: Fraction}
        mapping, accumulated in one dict that never holds a zero."""
        out: dict = {}
        for c, v in pairs:
            for k, x in v.items():
                val = out.get(k, 0) + c * x
                if val:
                    out[k] = val
                else:
                    out.pop(k, None)
        return out

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __add__(self, other: "SparseVector") -> "SparseVector":
        return self._like(self.combine(((1, self.terms), (1, other.terms))))

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self._like(self.combine(((1, self.terms), (-1, other.terms))))

    def __neg__(self) -> "SparseVector":
        return self.scale(-1)

    def scale(self, factor: int | Fraction) -> "SparseVector":
        f = Fraction(factor)
        return self._like({k: f * c for k, c in self.terms.items()})

    def __rmul__(self, factor: int | Fraction) -> "SparseVector":
        return self.scale(factor)


def _normalize(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        for k in row:
            row[k] //= g
    if row and row[min(row)] < 0:
        for k in row:
            row[k] = -row[k]


class SparseEchelon:
    """Incremental echelon form; one pivot row per leading column."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: dict[int, int]) -> bool:
        """Reduce a row against the current pivots; register it if nonzero.

        Returns True when the row increased the rank.
        """
        row = self._reduce_int(dict(row))
        if not row:
            return False
        _normalize(row)
        self.pivots[min(row)] = row
        return True

    def _reduce_int(self, row: dict[int, int]) -> dict[int, int]:
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                return row
            a = piv[c]
            b = row.pop(c)
            g = gcd(a, b)
            ma, mb = a // g, b // g
            if ma != 1:
                for k in row:
                    row[k] *= ma
            for k, v in piv.items():
                if k == c:
                    continue
                nv = row.get(k, 0) - mb * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
            if row and max(map(abs, row.values())) > _REGULARIZE_BOUND:
                _normalize(row)
        return row

    def reduce_vector(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Eliminate every pivot column from an exact rational vector.

        The remainder is supported on non-pivot columns only; it is zero
        exactly when the input lies in the row space.
        """
        out = {k: Fraction(v) for k, v in vec.items() if v}
        while True:
            c = min((k for k in out if k in self.pivots), default=None)
            if c is None:
                return out
            piv = self.pivots[c]
            mult = out.pop(c) / piv[c]
            for k, v in piv.items():
                if k == c:
                    continue
                nv = out.get(k, 0) - mult * v
                if nv:
                    out[k] = nv
                else:
                    out.pop(k, None)

    def contains(self, vec: dict[int, Fraction]) -> bool:
        return not self.reduce_vector(vec)


class BasisSolver:
    """Coordinates in a fixed basis of sparse integer vectors.

    Basis vector j lives on the ambient columns 0..n_cols-1; it is
    augmented with the label column n_cols + j before elimination.  The
    basis is independent exactly when no pivot lands on a label column
    (a dependent vector would reduce to a combination of labels).  A
    vector in the span then reduces to a residue on label columns only,
    and the negated residue is its coordinate vector.
    """

    __slots__ = ("n_cols", "echelon")

    def __init__(self, n_cols: int, rows: Iterable[dict[int, int]]):
        """``rows`` yields the basis vectors in label order; each dict is
        augmented in place, so pass fresh ones."""
        self.n_cols = n_cols
        self.echelon = SparseEchelon()
        for j, row in enumerate(rows):
            row[n_cols + j] = 1
            self.echelon.add_row(row)

    @property
    def independent(self) -> bool:
        return all(p < self.n_cols for p in self.echelon.pivots)

    def solve(self, vec: dict[int, Fraction]) -> dict[int, Fraction] | None:
        """Coordinates {j: c} with vec = sum of c * (basis vector j), or
        None when vec lies outside the span."""
        residue = self.echelon.reduce_vector(vec)
        if any(col < self.n_cols for col in residue):
            return None
        return {col - self.n_cols: -val for col, val in residue.items()}
