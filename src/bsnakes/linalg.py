"""Exact sparse linear algebra over the rationals.

``SparseVector`` is the one keyed exact sparse vector of the package: a
dict {key: int or Fraction} with no zero entries, plus the vector-space
operations.  Integral values are stored as ints, so integer chains never
touch ``Fraction`` arithmetic.  The oracle's simplicial and join chains
(keys are simplices) subclass it, and so do ``relations.LinComb`` (keys
are signed permutations on one support) and ``ring.RingElement`` (keys
are basis snakes on the index sets inside [n]).

``SparseEchelon`` is incremental row-echelon elimination over the
integers.  Rows live in dicts {column: integer coefficient} with no zero
entries, and pivot rows are kept primitive (content 1, positive leading
coefficient).  Columns are plain integers and the elimination priority is
the natural integer order, so callers encode their pivot preference in the
column indexing.  No back-substitution is performed: a pivot row may
still mention later pivot columns.  One loop does every elimination: it
pops the columns of the working row in increasing order from a heap,
which terminates because a pivot row's other entries all sit at strictly
later columns.  A pivot coefficient a > 1 scales the working row instead
of dividing, and the loop tracks the product of those scale factors as
one denominator, so a rational vector is reduced exactly by clearing its
denominators once and dividing the integer remainder once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping


def _exact(c: int | Fraction) -> int | Fraction:
    """c as an int when it is integral, otherwise as a Fraction."""
    if type(c) is not int:
        c = c if type(c) is Fraction else Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


class SparseVector:
    """Exact sparse vector: ``terms`` maps keys to nonzero values, each an
    int when integral and a Fraction otherwise.

    Subclasses fix the key type.  Arithmetic builds its result through
    ``_like``, so it keeps the subclass (and whatever else ``_like``
    carries over, such as a support); equality is only ever between
    vectors of the same class.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        # set through object so that an immutable subclass (LinComb) can
        # share this constructor
        object.__setattr__(self, "terms", {k: v for k, c in (terms or {}).items()
                                           if (v := _exact(c))})

    def _like(self, terms: dict) -> "SparseVector":
        return type(self)(terms)

    @staticmethod
    def combine(pairs: Iterable[tuple[int | Fraction, Mapping]]) -> dict:
        """The sum of c * v over pairs (c, v) with v a {key: value}
        mapping, accumulated in one dict that never holds a zero."""
        out: dict = {}
        for c, v in pairs:
            c = _exact(c)
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
        f = _exact(factor)
        return self._like({k: f * c for k, c in self.terms.items()})

    def __rmul__(self, factor: int | Fraction) -> "SparseVector":
        return self.scale(factor)


class SparseEchelon:
    """Incremental echelon form; one pivot row per leading column."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: Mapping[int, int]) -> bool:
        """Reduce an integer row against the current pivots; register it,
        made primitive with a positive leading entry, if nonzero.

        Returns True when the row increased the rank.
        """
        row, _ = self._reduce(row, True)
        if not row:
            return False
        lead = min(row)
        g = gcd(*row.values())
        if row[lead] < 0:
            g = -g
        if g != 1:
            for k in row:
                row[k] //= g
        self.pivots[lead] = row
        return True

    def reduce_vector(self, vec: Mapping[int, int | Fraction]) -> dict[int, Fraction]:
        """Eliminate every pivot column from an exact rational vector.

        The remainder is supported on non-pivot columns only; it is zero
        exactly when the input lies in the row space.
        """
        den = lcm(*(v.denominator for v in vec.values()))
        row, d = self._reduce({k: v.numerator * (den // v.denominator)
                               for k, v in vec.items()}, False)
        den *= d
        return {k: Fraction(v, den) for k, v in row.items()}

    def _reduce(self, row: Mapping[int, int], leading_only: bool) -> tuple[dict[int, int], int]:
        """(rest, d) with rest / d = row minus a combination of pivot rows.

        Columns are visited in increasing order; ``leading_only`` stops at
        the first one without a pivot, otherwise every pivot column is
        eliminated.  A pivot entry a > 1 scales the row by a / gcd(a, b)
        before subtracting, and d is the product of those factors.
        """
        row = {k: v for k, v in row.items() if v}
        pivots, d = self.pivots, 1
        # a full reduction only ever needs to visit pivot columns
        heap = [k for k in row if leading_only or k in pivots]
        heapify(heap)
        while heap:
            c = heappop(heap)
            b = row.get(c)
            if b is None:  # cancelled, or a stale duplicate of a visited column
                continue
            piv = pivots.get(c)
            if piv is None:  # leading_only: the first column without a pivot
                break
            del row[c]
            a = piv[c]
            if a != 1:
                g = gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    d *= a
                    for k in row:
                        row[k] *= a
            for k, v in piv.items():
                if k == c:
                    continue
                nv = row.get(k)
                if nv is None:
                    row[k] = -b * v
                    if leading_only or k in pivots:
                        heappush(heap, k)
                elif nv := nv - b * v:
                    row[k] = nv
                else:
                    del row[k]
        return row, d

    def contains(self, vec: Mapping[int, int | Fraction]) -> bool:
        return not self.reduce_vector(vec)

