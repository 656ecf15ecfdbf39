"""Rational combinations of signed permutations and the relation subspace M_I.

Five generator families H1..H5 span the subspace M_I of the free vector
space Q<S^B_I> by which it is divided to reach the snake basis:

  * H1 transposes one length-2 block (two terms),
  * H2 rearranges two adjacent blocks (six terms),
  * H3 negates the leading letter of an odd-length word (two terms),
  * H4 resolves a negative leading block on an even-length word (four terms),
  * H5 resolves a leading descent on an odd-length word (twelve terms).

``relation_matrix`` assembles every generator instance into a sparse
row-echelon form over exact rationals, with columns ordered so that snake
words come last; reducing any vector against it therefore rewrites it into
the snake basis.  The quotient has dimension springer(|I|), i.e. the rank
equals 2^r * r! - springer(r).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .core import (CapExceeded, IndexSet, SignedPermutation, _is_snake_word,
                   _words_lex, index_set, is_snake)
from .linalg import SparseEchelon, SparseVector

RELATION_CAP = 5

Coeff = int | Fraction


class ConventionError(RuntimeError):
    """An internal sign/orientation invariant failed; never swallowed."""


class LinComb(SparseVector):
    """Finite formal sum of signed permutations over one support, with exact
    rational coefficients.  Zero coefficients are never stored."""

    __slots__ = ("support",)

    def __init__(self, support: Iterable[int],
                 terms: Mapping[SignedPermutation, Coeff] | None = None):
        sup = index_set(support)
        data: dict[SignedPermutation, Fraction] = {}
        for perm, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if not c:
                continue
            if perm.support != sup:
                raise ValueError(f"term {perm} lives on {perm.support}, not {sup}")
            data[perm] = c
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "terms", data)

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
    def single(cls, perm: SignedPermutation, coeff: Coeff = 1) -> "LinComb":
        return cls(perm.support, {perm: coeff})

    def coefficient(self, perm: SignedPermutation) -> Fraction:
        return self.terms.get(perm, Fraction(0))

    def items(self) -> list[tuple[SignedPermutation, Fraction]]:
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


def _pos(r: int, i: int) -> int:
    """Word index of the right-anchored position i."""
    return r - i


def _with(word: tuple[int, ...], assignments: dict[int, int]) -> tuple[int, ...]:
    w = list(word)
    r = len(word)
    for pos, val in assignments.items():
        w[_pos(r, pos)] = val
    return tuple(w)


def h1(x: SignedPermutation, i: int) -> LinComb:
    """Block transposition: x plus x with block i's letters swapped."""
    r = x.r
    if not 1 <= i <= r // 2:
        raise IndexError(f"h1 index {i} out of range for r={r}")
    a, b = x.entry(2 * i), x.entry(2 * i - 1)
    flipped = SignedPermutation(_with(x.word, {2 * i: b, 2 * i - 1: a}))
    return LinComb(x.support, {x: 1, flipped: 1})


def h2(x: SignedPermutation, i: int) -> LinComb:
    """Six-term rearrangement of blocks i and i+1 with signs +,-,+,+,-,+."""
    r = x.r
    if not 1 <= i < r // 2:
        raise IndexError(f"h2 index {i} out of range for r={r}")
    a, b = x.entry(2 * i + 2), x.entry(2 * i + 1)
    c, d = x.entry(2 * i), x.entry(2 * i - 1)
    layouts = [((a, b, c, d), 1), ((a, c, b, d), -1), ((b, c, a, d), 1),
               ((a, d, b, c), 1), ((b, d, a, c), -1), ((c, d, a, b), 1)]
    terms = {}
    for (p, q, s, t), sign in layouts:
        word = _with(x.word, {2 * i + 2: p, 2 * i + 1: q, 2 * i: s, 2 * i - 1: t})
        terms[SignedPermutation(word)] = sign
    return LinComb(x.support, terms)


def h3(x: SignedPermutation) -> LinComb:
    """Leader negation for odd r: x + (x with its leading letter negated)."""
    r = x.r
    if r % 2 == 0:
        return LinComb.zero(x.support)
    flipped = SignedPermutation(_with(x.word, {r: -x.entry(r)}))
    return LinComb(x.support, {x: 1, flipped: 1})


def h4(x: SignedPermutation) -> LinComb:
    """Leading-block relation for even r >= 2, signs +,-,+,-."""
    r = x.r
    if r % 2 == 1 or r == 0:
        return LinComb.zero(x.support)
    a, b = x.entry(r), x.entry(r - 1)
    layouts = [((a, b), 1), ((a, -b), -1), ((b, -a), 1), ((-b, -a), -1)]
    terms = {}
    for (p, q), sign in layouts:
        terms[SignedPermutation(_with(x.word, {r: p, r - 1: q}))] = sign
    return LinComb(x.support, terms)


def h5(x: SignedPermutation) -> LinComb:
    """Twelve-term relation on the three leading letters for odd r >= 3."""
    r = x.r
    if r % 2 == 0 or r < 3:
        return LinComb.zero(x.support)
    a, b, c = x.entry(r), x.entry(r - 1), x.entry(r - 2)
    layouts = [((a, b, c), 1), ((a, -b, c), -1), ((a, -c, b), 1), ((a, -c, -b), -1),
               ((b, a, c), -1), ((b, -a, c), 1), ((b, -c, a), -1), ((b, -c, -a), 1),
               ((c, a, b), 1), ((c, -a, b), -1), ((c, -b, a), 1), ((c, -b, -a), -1)]
    terms = {}
    for (p, q, s), sign in layouts:
        terms[SignedPermutation(_with(x.word, {r: p, r - 1: q, r - 2: s}))] = sign
    return LinComb(x.support, terms)


def generator_instances(I: Iterable[int]) -> Iterator[tuple[str, LinComb]]:
    """Every nonzero H1..H5 instance on I, deterministically ordered."""
    elems = index_set(I)
    perms = [SignedPermutation(w) for w in _words_lex(frozenset(elems))]
    r = len(elems)
    for x in perms:
        for i in range(1, r // 2 + 1):
            yield f"H1^{i}", h1(x, i)
    for x in perms:
        for i in range(1, r // 2):
            yield f"H2^{i}", h2(x, i)
    for x in perms:
        comb = h3(x)
        if comb:
            yield "H3", comb
    for x in perms:
        comb = h4(x)
        if comb:
            yield "H4", comb
    for x in perms:
        comb = h5(x)
        if comb:
            yield "H5", comb


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
    first; rows are processed sparsest-family-first (H1, H3, H4, H2, H5)
    after deduplication, which pins the echelon shape deterministically.
    """

    def __init__(self, I: Iterable[int], cap: int = RELATION_CAP):
        sup = index_set(I)
        if len(sup) > cap:
            raise CapExceeded(f"|I| = {len(sup)} exceeds relation cap {cap}")
        self.support: IndexSet = sup
        words = list(_words_lex(frozenset(sup)))
        snakes = [w for w in words if _is_snake_word(w)]
        non_snakes = [w for w in words if not _is_snake_word(w)]
        self.columns: list[tuple[int, ...]] = non_snakes + snakes
        self.col_index = {w: j for j, w in enumerate(self.columns)}
        self.n_snakes = len(snakes)
        self.n_generators = 0

        by_family: dict[str, list[dict[int, int]]] = {}
        for label, comb in generator_instances(sup):
            fam = label.split("^")[0]
            row = {self.col_index[p.word]: int(c) for p, c in comb.items()}
            by_family.setdefault(fam, []).append(row)
            self.n_generators += 1

        self.echelon = SparseEchelon()
        seen: set[frozenset[tuple[int, int]]] = set()
        for fam in ("H1", "H3", "H4", "H2", "H5"):
            for row in by_family.get(fam, []):
                sgn = 1 if row[min(row)] > 0 else -1
                key = frozenset((k, sgn * v) for k, v in row.items())
                if key in seen:
                    continue
                seen.add(key)
                self.echelon.add_row(row)

    @property
    def rank(self) -> int:
        return self.echelon.rank

    def _vector(self, comb: LinComb) -> dict[int, Fraction]:
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
def _relation_matrix_cached(sup: IndexSet, cap: int) -> RelationMatrix:
    return RelationMatrix(sup, cap)


def relation_matrix(I: Iterable[int], cap: int = RELATION_CAP) -> RelationMatrix:
    """Memoized relation matrix for the given support."""
    return _relation_matrix_cached(index_set(I), cap)
