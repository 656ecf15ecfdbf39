"""The graded snake algebra: cup products, Betti numbers, product tables.

Basis elements are pairs (I, alpha) with alpha a B-snake on I; the degree
of the I-component is floor((|I|+1)/2).  The product of basis snakes alpha
on I1 and beta on I2 vanishes unless I1 and I2 are disjoint with
|I1| * |I2| even, and is otherwise supported on the snakes z of I1 u I2
whose length-2 blocks (apart from the leading remainder) stay inside one
factor; each such z contributes

    (-1)^kappa(z) * C(alpha, P_I1(z)) * C(beta, P_I2(z)) * z,

where C(-,-) are snake-basis coefficients from the normalform module,
P_J is the parity-corrected restriction, and kappa counts odd-position
crossings between the factors.  The z of one split (I1, I2) come from
one walk, a block at a time, by the walk that enumerates the snake basis
in ``core``: for odd |I1 u I2| the lead is a positive letter of the
factor of odd size, and each later block is taken whole from one factor.
Both restrictions grow with the walk, canonically oriented and relabelled
onto [|I1|] and [|I2|] by the order-preserving map, which normal forms
commute with, so every product reads the normal-form memo on words on
[k].  Two kernels read the walk: ``_cup_split`` scatters every product of
a split into one table whose keys alone go back to the factors' letters,
and ``_cup_cached``, behind ``cup_basis``, walks one pair's z pruned by
the smaller factor.  The unit is the empty snake at I = {}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Mapping

from .core import (EMPTY, IndexSet, SignedPermutation, Word, _check_cap, _is_snake_word,
                   _relabelling, _restrictable_walk, _springer, _subsets, _words_lex,
                   as_snake, enumerate_snakes, index_set)
from .linalg import SparseVector
from .normalform import _check_rewrite_cap, _nf_canonical
from .relations import LinComb, _canonical_word

BETTI_CAP = 7
RING_TABLE_CAP = 4
#: Nonvanishing basis products kept by ``cup_basis``: room for every
#: product inside [5], whose 3 263 would otherwise be recomputed.
_CUP_CACHE_SIZE = 4096


@dataclass(frozen=True)
class RestrictionContext:
    """Disjoint index sets with even cardinality product."""

    i1: IndexSet
    i2: IndexSet

    def __post_init__(self):
        object.__setattr__(self, "i1", index_set(self.i1))
        object.__setattr__(self, "i2", index_set(self.i2))
        if set(self.i1) & set(self.i2):
            raise ValueError(f"index sets overlap: {self.i1} and {self.i2}")
        if (len(self.i1) * len(self.i2)) % 2 != 0:
            raise ValueError("both index sets have odd cardinality")

    @property
    def union(self) -> IndexSet:
        return tuple(sorted(set(self.i1) | set(self.i2)))


def _kappa_word(w: tuple[int, ...], side: frozenset[int]) -> int:
    """``kappa`` on a raw word; side is the first factor."""
    count = seen_second = 0
    for v in w[len(w) - 1::-2]:  # x_1, x_3, ...; count earlier second-factor letters
        if abs(v) in side:
            count += seen_second
        else:
            seen_second += 1
    return count


def is_restrictable(z: SignedPermutation, ctx: RestrictionContext) -> bool:
    """True iff every complete block of z below the leading remainder lies
    wholly inside one factor."""
    if set(z.support) != set(ctx.union):
        raise ValueError(f"support {z.support} is not {ctx.union}")
    w, side = z.word, set(ctx.i1)
    # the blocks (x_{2i}, x_{2i-1}) for i = 1 .. (r-1)//2, as word indices
    return all((abs(w[j - 1]) in side) == (abs(w[j]) in side)
               for j in range(len(w) - 1, 1, -2))


def kappa(z: SignedPermutation, ctx: RestrictionContext) -> int:
    """Crossing count of odd-position letters: pairs (z_{2i-1}, z_{2j-1})
    with the i-th in the first factor, the j-th in the second, and i > j."""
    if not is_restrictable(z, ctx):
        raise ValueError(f"{z} is not restrictable to ({ctx.i1}, {ctx.i2})")
    return _kappa_word(z.word, frozenset(ctx.i1))


def _restriction_prefixes(k: int, word: Word) -> set[Word]:
    """The block-aligned prefixes (lengths 1, 3, ... for odd k, 2, 4, ...
    for even) of every canonically oriented word on [k] whose normal form
    mentions ``word``, itself a word on [k]: the relabelled words P_side(z)
    can take.  There are 12 such words for k = 3, the largest smaller
    factor of a union of at most 7 letters."""
    keep: set[Word] = set()
    for y in {_canonical_word(x)[1] for x in _words_lex(frozenset(range(1, k + 1)))}:
        if word in _nf_canonical(y):
            keep.update(y[:j] for j in range(2 - len(y) % 2, len(y) + 1, 2))
    return keep


def _cup_split(i1: Iterable[int], i2: Iterable[int]
               ) -> dict[tuple[Word, Word], dict[Word, int]]:
    """Every nonzero basis product over the split (I1, I2), from one walk
    of the restrictable snakes z of the union: {(alpha, beta): {z: coeff}}
    on raw words.  Each z reads the normal forms of its restrictions,
    relabelled onto [|I1|] and [|I2|], from the memo and adds
    (-1)^kappa(z) * c1 * c2 to every (alpha, beta) they mention; the keys
    are relabelled back onto I1 and I2 once, at the end.  A split whose
    parts overlap or both have odd size raises ValueError."""
    i1, i2 = frozenset(i1), frozenset(i2)
    if i1 & i2 or len(i1) * len(i2) % 2:
        raise ValueError(f"{sorted(i1)}, {sorted(i2)} overlap or both have odd size")
    table: dict[tuple[Word, Word], dict[Word, int]] = {}
    for z, w1, w2 in _restrictable_walk(i1, i2):
        nf1 = _nf_canonical(w1)
        nf2 = _nf_canonical(w2)
        sign = (-1) ** _kappa_word(z, i1)
        for a, c1 in nf1.items():
            for b, c2 in nf2.items():
                table.setdefault((a, b), {})[z] = sign * c1 * c2
    back1, back2 = (_relabelling(range(1, len(part) + 1), sorted(part)).__getitem__
                    for part in (i1, i2))
    return {(tuple(map(back1, a)), tuple(map(back2, b))): terms
            for (a, b), terms in table.items()}


def _product(union: Iterable[int], terms: Mapping[Word, int]) -> LinComb:
    return LinComb(union, {SignedPermutation(z): c for z, c in terms.items()})


def cup_basis(alpha: SignedPermutation, beta: SignedPermutation) -> LinComb:
    """Product of two basis snakes as a snake combination on I1 symdiff I2."""
    for x in (alpha, beta):
        if not _is_snake_word(x.word):
            raise ValueError(f"{x} is not a B-snake")
    s1, s2 = set(alpha.support), set(beta.support)
    if (s1 & s2) or (len(s1) * len(s2)) % 2 != 0:
        return _zero(frozenset(s1 ^ s2))
    _check_rewrite_cap(max(len(s1), len(s2)))
    return _cup_cached(alpha, beta)


@lru_cache(maxsize=1024)  # room for every support inside [10]
def _zero(support: frozenset[int]) -> LinComb:
    """The zero product on one support, shared by every vanishing pair
    (LinComb is immutable)."""
    return LinComb.zero(support)


@lru_cache(maxsize=_CUP_CACHE_SIZE)
def _cup_cached(alpha: SignedPermutation, beta: SignedPermutation) -> LinComb:
    """cup_basis on disjoint supports with even size product, from one
    pair's walk: with both words relabelled onto [k], it visits only the z
    whose restriction to the factor with fewer letters (I1 on a tie) has a
    normal form mentioning that factor's word."""
    i1, i2 = frozenset(alpha.support), frozenset(beta.support)
    left, right = (tuple(map(_relabelling(x.support, range(1, x.r + 1)).__getitem__, x.word))
                   for x in (alpha, beta))
    side, word = (i1, left) if len(i1) <= len(i2) else (i2, right)
    terms: dict[Word, int] = {}
    for z, w1, w2 in _restrictable_walk(i1, i2, side, _restriction_prefixes(len(side), word)):
        nf1 = _nf_canonical(w1)
        if left not in nf1:  # skip z before reading P_I2(z)
            continue
        nf2 = _nf_canonical(w2)
        if right in nf2:
            terms[z] = (-1) ** _kappa_word(z, i1) * nf1[left] * nf2[right]
    return _product(alpha.support + beta.support, terms)


class RingElement(SparseVector):
    """Graded element: a sparse vector over the basis snakes inside [n]."""

    __slots__ = ("n",)

    def __init__(self, n: int, components: Mapping[IndexSet, LinComb] | None = None):
        terms: dict = {}
        seen: set[IndexSet] = set()
        for sup, comb_ in (components or {}).items():
            sup = index_set(sup)
            if sup in seen:
                raise ValueError(f"support {sup} is named by two keys")
            seen.add(sup)
            if sup and sup[-1] > n:
                raise ValueError(f"component {sup} outside ambient [{n}]")
            if comb_.support != sup:
                raise ValueError("component key does not match its support")
            if not comb_.all_snakes():
                raise ValueError(f"component on {sup} has non-snake terms")
            terms.update(comb_.terms)
        super().__init__(terms)
        self.n = n

    def _like(self, terms: dict) -> "RingElement":
        out = type(self)(self.n)
        SparseVector.__init__(out, terms)  # snakes inside [n], as in self
        return out

    @classmethod
    def zero(cls, n: int) -> "RingElement":
        return cls(n)

    @classmethod
    def unit(cls, n: int) -> "RingElement":
        return cls(n, {(): LinComb.single(EMPTY)})

    @classmethod
    def basis(cls, n: int, alpha: SignedPermutation) -> "RingElement":
        as_snake(alpha)
        return cls(n, {alpha.support: LinComb.single(alpha)})

    @property
    def components(self) -> dict[IndexSet, LinComb]:
        """The terms grouped by support, ordered by size and then by elements."""
        groups: dict[IndexSet, dict] = {}
        for alpha, c in self.terms.items():
            groups.setdefault(alpha.support, {})[alpha] = c
        return {sup: LinComb(sup, groups[sup])
                for sup in sorted(groups, key=lambda s: (len(s), s))}

    def component(self, sup: Iterable[int]) -> LinComb:
        sup = index_set(sup)
        return self.components.get(sup, LinComb.zero(sup))

    def _check_ambient(self, other: "RingElement") -> None:
        if self.n != other.n:
            raise ValueError("ambient mismatch")

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.n == other.n

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check_ambient(other)
        return super().__add__(other)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check_ambient(other)
        return super().__sub__(other)

    def __str__(self) -> str:
        return "; ".join("{" + ",".join(map(str, sup)) + "}: " + str(comb_)
                         for sup, comb_ in self.components.items()) or "0"

    def to_json(self) -> dict:
        return {"n": self.n,
                "components": [comb_.to_json(snake_basis=True)
                               for comb_ in self.components.values()]}


def cup(a: RingElement, b: RingElement) -> RingElement:
    """Bilinear extension of cup_basis to graded elements."""
    a._check_ambient(b)
    return a._like(SparseVector.combine((x * y, cup_basis(alpha, beta).terms)
                                        for alpha, x in a.terms.items()
                                        for beta, y in b.terms.items()))


def betti(n: int, k: int, cap: int = BETTI_CAP) -> int:
    """Betti number in degree k: C(n,2k) b_{2k} + C(n,2k-1) b_{2k-1}."""
    _check_cap("n", n, "betti", cap)
    if k < 0 or k > n:
        return 0
    total = 0
    if 2 * k <= n:
        total += comb(n, 2 * k) * _springer(2 * k)
    if 1 <= 2 * k - 1 <= n:
        total += comb(n, 2 * k - 1) * _springer(2 * k - 1)
    return total


def betti_table(n: int, cap: int = BETTI_CAP) -> list[int]:
    """Betti numbers in degrees 0..n."""
    return [betti(n, k, cap) for k in range(n + 1)]


def graded_basis(n: int) -> list[SignedPermutation]:
    """All basis snakes over subsets of [n], supports ordered by size then
    elements, snakes in word order within a support."""
    return [alpha for sup in _subsets(n) for alpha in enumerate_snakes(sup)]


def _ring_products(n: int
                   ) -> Iterator[tuple[SignedPermutation, SignedPermutation, LinComb]]:
    """Every ordered product of basis snakes over [n] as (left, right,
    product), left outer and right inner in basis order.  Products come
    from the split tables of one left support at a time."""
    supports = _subsets(n)
    basis = {sup: enumerate_snakes(sup) for sup in supports}
    for i1 in supports:
        tables = {i2: _cup_split(i1, i2) for i2 in supports
                  if not set(i1) & set(i2) and len(i1) * len(i2) % 2 == 0}
        for left in basis[i1]:
            for i2 in supports:
                table = tables.get(i2, {})
                zero = _zero(frozenset(i1) ^ frozenset(i2))
                for right in basis[i2]:
                    terms = table.get((left.word, right.word))
                    yield left, right, _product(i1 + i2, terms) if terms else zero


def _snake_json(x: SignedPermutation) -> dict:
    return {"support": list(x.support), "word": list(x.word)}


def _record(left: SignedPermutation, right: SignedPermutation, prod: LinComb) -> dict:
    return {"left": _snake_json(left), "right": _snake_json(right),
            "product": prod.to_json(snake_basis=True)}


def ring_table(n: int, cap: int = RING_TABLE_CAP) -> list[dict]:
    """All ordered products of basis snakes over [n] as JSON-ready records,
    left outer and right inner in basis order; nothing is cached.

    The list is built whole: at n = 5 it holds 627 264 records, in 818 MB
    and 7.9 s (2 cores, CPython 3.11.7), while ``ring-table --json``
    streams the same records in 17.8 MB."""
    _check_cap("n", n, "ring-table", cap)
    return [_record(*triple) for triple in _ring_products(n)]
