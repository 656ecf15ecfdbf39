"""Rational combinations of signed permutations and the relation subspace M_I.

Five generator families H1..H5, defined once in the layout table
``_LAYOUTS`` from which every instance is built, span the subspace M_I of
the free vector space Q<S^B_I> by which it is divided to reach the snake basis:

  * H1 transposes one length-2 block (two terms),
  * H2 rearranges two adjacent blocks (six terms),
  * H3 negates the leading letter of an odd-length word (two terms),
  * H4 resolves a negative leading block on an even-length word (four terms),
  * H5 resolves a leading descent on an odd-length word (twelve terms).

``relation_matrix`` assembles every generator instance into a sparse
row-echelon form over the integers, with columns ordered so that snake
words come last; reducing any vector against it therefore rewrites it into
the snake basis.  The quotient has dimension springer(|I|), i.e. the rank
equals 2^r * r! - springer(r).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .core import (IndexSet, SignedPermutation, _check_cap, _is_snake_word,
                   _words_lex, index_set, is_snake)
from .linalg import SparseEchelon, SparseVector

RELATION_CAP = 5

Terms = list[tuple[tuple[int, ...], int]]  # (word, sign) pairs


class ConventionError(RuntimeError):
    """An internal sign/orientation invariant failed; never swallowed."""


class LinComb(SparseVector):
    """Finite formal sum of signed permutations over one support.  Values
    are stored by ``SparseVector``'s rule (an int when integral, a Fraction
    otherwise), and zero coefficients are never stored."""

    __slots__ = ("support",)

    def __init__(self, support: Iterable[int], terms: Mapping | None = None):
        sup = index_set(support)
        super().__init__(terms)
        for perm in self.terms:
            if perm.support != sup:
                raise ValueError(f"term {perm} lives on {perm.support}, not {sup}")
        object.__setattr__(self, "support", sup)

    def __setattr__(self, name, value):
        raise AttributeError("LinComb is immutable")

    def _like(self, terms: dict) -> "LinComb":
        # Construction re-validates: a sum that brings in terms from
        # another support raises ValueError.
        return type(self)(self.support, terms)

    @classmethod
    def zero(cls, support: Iterable[int]) -> "LinComb":
        return cls(support)

    @classmethod
    def single(cls, perm: SignedPermutation, coeff=1) -> "LinComb":
        return cls(perm.support, {perm: coeff})

    def coefficient(self, perm: SignedPermutation) -> int | Fraction:
        return self.terms.get(perm, 0)

    def items(self) -> list[tuple[SignedPermutation, int | Fraction]]:
        """Terms sorted by word, the frozen basis order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].word)

    def __iter__(self):
        return iter(self.items())

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinComb) and self.support == other.support
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.support, frozenset(self.terms.items())))

    def all_snakes(self) -> bool:
        return all(is_snake(p) for p in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for perm, c in self.items():
            mag = abs(c)
            body = str(perm) if mag == 1 else f"{mag}*{perm}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def to_json(self, snake_basis: bool = False) -> dict:
        obj: dict = {
            "support": list(self.support),
            "terms": [{"coeff": str(c), "word": list(p.word)}
                      for p, c in self.items()],
        }
        if snake_basis:
            obj["snake_basis"] = True
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "LinComb":
        terms = {SignedPermutation(tuple(t["word"])): Fraction(t["coeff"])
                 for t in obj["terms"]}
        return cls(tuple(obj["support"]), terms)


#: The single definition of H1..H5.  Each family reads a window of
#: consecutive letters and lists its terms as (pattern, sign) pairs:
#: pattern entry k > 0 places the window's k-th letter (leftmost is 1),
#: -k its negation.  The first term is always the window itself, +1.
_LAYOUTS: dict[str, tuple[tuple[tuple[int, ...], int], ...]] = {
    "H1": (((1, 2), 1), ((2, 1), 1)),
    "H2": (((1, 2, 3, 4), 1), ((1, 3, 2, 4), -1), ((2, 3, 1, 4), 1),
           ((1, 4, 2, 3), 1), ((2, 4, 1, 3), -1), ((3, 4, 1, 2), 1)),
    "H3": (((1,), 1), ((-1,), 1)),
    "H4": (((1, 2), 1), ((1, -2), -1), ((2, -1), 1), ((-2, -1), -1)),
    "H5": (((1, 2, 3), 1), ((1, -2, 3), -1), ((1, -3, 2), 1), ((1, -3, -2), -1),
           ((2, 1, 3), -1), ((2, -1, 3), 1), ((2, -3, 1), -1), ((2, -3, -1), 1),
           ((3, 1, 2), 1), ((3, -1, 2), -1), ((3, -2, 1), 1), ((3, -2, -1), -1)),
}

#: The families indexed by block (H1^i, H2^i); H3-H5 act at the leader.
_BLOCK_FAMILIES = ("H1", "H2")


def _starts(family: str, r: int) -> range:
    """Word offsets of the family's windows on words of length r, in
    ascending block order (H1^1, H1^2, ...).  Every window ends on a block
    boundary, and a leading-letter family takes only the one at offset 0."""
    offsets = range(r - len(_LAYOUTS[family][0][0]), -1, -2)
    if family in _BLOCK_FAMILIES:
        return offsets
    return range(1 if 0 in offsets else 0)


def _instance(word: tuple[int, ...], family: str, start: int) -> Terms:
    """The (word, sign) terms of the family's instance whose window begins
    at word offset start; the first term is (word, 1)."""
    layouts = _LAYOUTS[family]
    end = start + len(layouts[0][0])
    head, window, tail = word[:start], word[start:end], word[end:]
    # letters[k] is the k-th window letter and letters[-k] its negation
    letters = (0,) + window + tuple(-v for v in reversed(window))
    return [(head + tuple([letters[k] for k in pattern]) + tail, sign)
            for pattern, sign in layouts]


def _relation(x: SignedPermutation, family: str, i: int = 1) -> LinComb:
    """The family's i-th instance on x; zero where a leading-letter family
    does not apply."""
    starts = _starts(family, x.r)
    if family in _BLOCK_FAMILIES and not 1 <= i <= len(starts):
        raise IndexError(f"{family.lower()} index {i} out of range for r={x.r}")
    terms = _instance(x.word, family, starts[i - 1]) if starts else []
    return LinComb(x.support, {SignedPermutation(w): sign for w, sign in terms})


def h1(x: SignedPermutation, i: int) -> LinComb:
    """Block transposition: x plus x with block i's letters swapped."""
    return _relation(x, "H1", i)


def h2(x: SignedPermutation, i: int) -> LinComb:
    """Six-term rearrangement of blocks i and i+1 with signs +,-,+,+,-,+."""
    return _relation(x, "H2", i)


def h3(x: SignedPermutation) -> LinComb:
    """Leader negation for odd r: x + (x with its leading letter negated)."""
    return _relation(x, "H3")


def h4(x: SignedPermutation) -> LinComb:
    """Leading-block relation for even r >= 2, signs +,-,+,-."""
    return _relation(x, "H4")


def h5(x: SignedPermutation) -> LinComb:
    """Twelve-term relation on the three leading letters for odd r >= 3."""
    return _relation(x, "H5")


def _word_instances(sup: IndexSet, families: Iterable[str] = tuple(_LAYOUTS)
                    ) -> Iterator[tuple[str, int, Terms]]:
    """(family, i, terms) for every instance on sup of the given families,
    family by family and word by word in lexicographic order; i is 0 for
    the leading-letter families."""
    words = list(_words_lex(frozenset(sup)))
    for family in families:
        starts = _starts(family, len(sup))
        for w in words:
            for i, start in enumerate(starts, 1):
                yield (family, i if family in _BLOCK_FAMILIES else 0,
                       _instance(w, family, start))


def generator_instances(I: Iterable[int]) -> Iterator[tuple[str, LinComb]]:
    """Every nonzero H1..H5 instance on I, deterministically ordered."""
    sup = index_set(I)
    for family, i, terms in _word_instances(sup):
        yield (f"{family}^{i}" if i else family,
               LinComb(sup, {SignedPermutation(w): sign for w, sign in terms}))


def _canonical_word(word: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Snake-consistent orientation via H1/H3 flips; returns (sign, word).

    Odd r: leader positive and x_{2i} < x_{2i-1} in every block; even r:
    x_{2i} > x_{2i-1}.  Each flip contributes a factor of -1, and block
    sums are unchanged, so the comparison order is blind to orientation.
    """
    w = list(word)
    r = len(w)
    sign = 1
    if r % 2 == 1 and w[0] < 0:
        w[0] = -w[0]
        sign = -sign
    start = r % 2
    want_left_gt = r % 2 == 0  # printed block is (x_{2i}, x_{2i-1})
    for j in range(start, r, 2):
        left_gt = w[j] > w[j + 1]
        if left_gt != want_left_gt:
            w[j], w[j + 1] = w[j + 1], w[j]
            sign = -sign
    return sign, tuple(w)


def canonicalize(x: SignedPermutation) -> tuple[int, SignedPermutation]:
    """Orient every block (and the odd-r leader) the way snakes are oriented.

    Returns (sign, y) with x = sign * y modulo M_I; snakes are fixed points.
    """
    sign, w = _canonical_word(x.word)
    return sign, SignedPermutation(w)


class RelationMatrix:
    """Echelonized span of all H1..H5 instances on one support.

    Columns are the 2^r * r! words in lexicographic order, non-snakes
    first; rows are added in family order, sparsest first (H1, H3, H4, H2,
    H5), and a duplicate row reduces to zero in the echelon.
    """

    def __init__(self, I: Iterable[int]):
        sup = index_set(I)
        self.support: IndexSet = sup
        self.columns: list[tuple[int, ...]] = sorted(_words_lex(frozenset(sup)),
                                                     key=_is_snake_word)
        self.col_index = {w: j for j, w in enumerate(self.columns)}
        self.n_snakes = sum(map(_is_snake_word, self.columns))

        self.echelon = SparseEchelon()
        for _, _, terms in _word_instances(sup, ("H1", "H3", "H4", "H2", "H5")):
            self.echelon.add_row({self.col_index[w]: sign for w, sign in terms})

    @property
    def rank(self) -> int:
        return self.echelon.rank

    def _vector(self, comb: LinComb) -> dict[int, int | Fraction]:
        if comb.support != self.support:
            raise ValueError("support mismatch")
        return {self.col_index[p.word]: c for p, c in comb.items()}

    def reduce_to_snakes(self, comb: LinComb) -> LinComb:
        """Rewrite a combination into the snake basis modulo the row space."""
        reduced = self.echelon.reduce_vector(self._vector(comb))
        terms = {}
        for j, c in reduced.items():
            w = self.columns[j]
            if not _is_snake_word(w):
                raise ConventionError(
                    f"non-snake column {w} survived reduction on {self.support}")
            terms[SignedPermutation(w)] = c
        return LinComb(self.support, terms)

    def contains(self, comb: LinComb) -> bool:
        """Membership of a combination in M_I."""
        return self.echelon.contains(self._vector(comb))


@lru_cache(maxsize=None)
def _relation_matrix_cached(sup: IndexSet) -> RelationMatrix:
    """One build per support, whatever cap ``relation_matrix`` was given."""
    return RelationMatrix(sup)


def relation_matrix(I: Iterable[int], cap: int = RELATION_CAP) -> RelationMatrix:
    """Memoized relation matrix for the given support."""
    sup = index_set(I)
    _check_cap("|I|", len(sup), "relation", cap)
    return _relation_matrix_cached(sup)
