"""Signed permutations, B-snakes, and their derived combinatorial data.

A signed permutation on an index set I = {i_1 < ... < i_r} ⊆ {1, ..., n} is
a word x_r ... x_2 x_1 of nonzero integers whose magnitudes are pairwise
distinct and fill exactly I.  Words are stored leftmost-first, exactly as
printed in bracket notation, and are grouped into length-2 blocks anchored
at the right end: ``[x_5/x_4x_3/x_2x_1]`` for r = 5, ``[x_4x_3/x_2x_1]``
for r = 4.  All position arithmetic in this package is right-anchored and
1-based: x_1 is the last letter of the printed word.

A B-snake is a signed permutation satisfying the alternation

    0 < x_r > x_{r-1} < x_{r-2} > ...

down to x_1.  Snakes on an r-element set are counted by the Springer
numbers 1, 1, 3, 11, 57, 361, 2763, 24611, ... (A001586); they serve as
the basis of the quotient algebra built in the sibling modules.

One block walk, ``_restrictable_walk``, yields the snakes of a split whose
length-2 blocks stay inside its parts; on the trivial split (U, {}) that is
every snake of U, so it both enumerates the basis and feeds ring products.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

IndexSet = tuple[int, ...]
Word = tuple[int, ...]
SignedSubset = frozenset[int]

#: Largest r for which exhaustive enumeration of all 2^r * r! signed
#: permutations (and hence ``springer``) is allowed by default.
ENUMERATION_CAP = 7


class CapExceeded(ValueError):
    """A desk-scale safety cap was exceeded; pass a larger cap to override."""


def _check_cap(name: str, size: int, what: str, cap: int) -> None:
    """Raise CapExceeded("<name> = <size> exceeds <what> cap <cap>") if size > cap."""
    if size > cap:
        raise CapExceeded(f"{name} = {size} exceeds {what} cap {cap}")


class ParseError(ValueError):
    """Malformed bracket notation; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at index {position})"
        super().__init__(message)
        self.position = position


def index_set(values: Iterable[int]) -> IndexSet:
    """Sorted tuple of distinct positive integers."""
    elems = tuple(sorted(set(values)))
    if elems and elems[0] < 1:
        raise ValueError(f"index set must contain positive integers: {elems}")
    return elems


def _subsets(n: int) -> list[IndexSet]:
    """Subsets of [n], ordered by size then elements."""
    base = range(1, n + 1)
    return [sup for size in range(n + 1) for sup in itertools.combinations(base, size)]


def signed_subset(members: Iterable[int]) -> SignedSubset:
    """Frozen set of nonzero integers with no {i, -i} pair."""
    s = frozenset(members)
    if 0 in s:
        raise ValueError("signed subset cannot contain 0")
    if any(-m in s for m in s):
        raise ValueError(f"signed subset contains a +/- pair: {sorted(s)}")
    return s


@dataclass(frozen=True, slots=True)
class SignedPermutation:
    """Word of distinct-magnitude signed integers, leftmost letter first."""

    word: tuple[int, ...]
    #: The magnitudes in increasing order, computed once.
    support: IndexSet = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        mags = [abs(v) for v in self.word]
        if 0 in mags:
            raise ValueError("zero entry in signed permutation")
        if len(set(mags)) != len(mags):
            raise ValueError(f"duplicate magnitude in word {self.word}")
        object.__setattr__(self, "support", tuple(sorted(mags)))

    @property
    def r(self) -> int:
        return len(self.word)

    def entry(self, i: int) -> int:
        """Right-anchored letter x_i, 1 <= i <= r."""
        if not 1 <= i <= len(self.word):
            raise IndexError(f"position {i} out of range for r={len(self.word)}")
        return self.word[len(self.word) - i]

    def __str__(self) -> str:
        return format_sp(self)

    def to_json(self) -> dict:
        obj: dict = {"word": list(self.word)}
        if is_snake(self):
            obj["snake"] = True
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SignedPermutation":
        return cls(tuple(obj["word"]))


#: Alias used in signatures where the argument must satisfy ``is_snake``.
BSnake = SignedPermutation

EMPTY = SignedPermutation(())


def parse_sp(text: str) -> SignedPermutation:
    """Parse bracket notation like ``[1/-32/-5-4]`` into a signed permutation.

    Entries are single digits 1-9 with an optional minus sign.  Block
    separators ``/`` are optional but, when present, must sit at the
    right-anchored length-2 block boundaries, one per boundary.  They are
    validated and discarded.
    """
    if not text.startswith("["):
        raise ParseError("expected leading '['", 0 if text else None)
    if not text.endswith("]"):
        raise ParseError("expected trailing ']'", len(text) - 1)
    inner = text[1:-1]
    word: list[int] = []
    at_text: list[int] = []  # text index of each letter's digit
    slashes: list[tuple[int, int]] = []  # (letters seen before, index in text)
    i = 0
    while i < len(inner):
        ch = inner[i]
        if ch == "/":
            slashes.append((len(word), i + 1))
            i += 1
            continue
        sign = 1
        if ch == "-":
            sign = -1
            i += 1
            if i >= len(inner) or inner[i] not in "0123456789":
                raise ParseError("dangling '-'", i)
            ch = inner[i]
        if ch == "0":
            raise ParseError("zero entry", i + 1)
        if ch not in "123456789":  # ASCII only; str.isdigit admits other scripts
            raise ParseError(f"unexpected character {ch!r}", i + 1)
        word.append(sign * int(ch))
        at_text.append(i + 1)
        i += 1
    r = len(word)
    previous = None
    for pos, at in slashes:
        if pos in (0, r, previous):
            raise ParseError("empty block", at)
        if (r - pos) % 2 != 0:
            raise ParseError(f"block separator after letter {pos} does not sit "
                             "on a right-anchored pair boundary", at)
        previous = pos
    mags = [abs(v) for v in word]
    for j, m in enumerate(mags):
        if m in mags[:j]:
            raise ParseError(f"duplicate magnitude {m}", at_text[j])
    return SignedPermutation(tuple(word))


def format_sp(x: SignedPermutation) -> str:
    """Canonical bracket notation; the rightmost block has length 2."""
    return _format_word(x.word)


def _format_word(w: tuple[int, ...]) -> str:
    if not w:
        return "[]"
    head = len(w) % 2  # leftmost block is a singleton iff r is odd
    blocks = []
    start = 0
    if head:
        blocks.append(w[:1])
        start = 1
    for j in range(start, len(w), 2):
        blocks.append(w[j:j + 2])
    return "[" + "/".join("".join(str(v) for v in b) for b in blocks) + "]"


def bar(x: SignedPermutation) -> SignedPermutation:
    """Negate every letter."""
    return SignedPermutation(tuple(-v for v in x.word))


def star(x: SignedPermutation) -> SignedPermutation:
    """Swap the two letters of every length-2 block; negate the leader for odd r.

    This is the companion word whose nested vertex families F_i pair with
    those of x to span a cross-polytope boundary (see oracle.chain_of).
    """
    w = list(x.word)
    r = len(w)
    start = r % 2
    if start:
        w[0] = -w[0]
    for j in range(start, r, 2):
        w[j], w[j + 1] = w[j + 1], w[j]
    return SignedPermutation(tuple(w))


def f_set(x: SignedPermutation, i: int) -> SignedSubset:
    """The nested vertex family F_i(x) = {x_1, ..., x_{2i-1}}, negated for even r."""
    r = x.r
    if not 1 <= i <= (r + 1) // 2:
        raise IndexError(f"F_{i} undefined for r={r}")
    tail = x.word[r - (2 * i - 1):]
    if r % 2 == 0:
        tail = tuple(-v for v in tail)
    return frozenset(tail)


def subperm(x: SignedPermutation, J: Iterable[int]) -> SignedPermutation:
    """Letters of magnitude in J, kept in their original relative order."""
    Jset = set(J)
    if not Jset <= set(x.support):
        raise ValueError(f"{sorted(Jset)} is not a subset of the support {x.support}")
    return SignedPermutation(tuple(v for v in x.word if abs(v) in Jset))


def restrict_p(x: SignedPermutation, J: Iterable[int]) -> SignedPermutation:
    """Parity-corrected restriction P_J: the subword of x, or of bar(x) when
    |support| + |J| is odd."""
    y = subperm(x, J)
    return bar(y) if (x.r + y.r) % 2 else y


def _relabelling(old: Iterable[int], new: Iterable[int]) -> dict[int, int]:
    """The order-preserving relabelling from the increasing magnitudes
    ``old`` to ``new``, of one size, as a map of signed letters: it carries
    a word w to ``tuple(map(to.__getitem__, w))``.  Normal forms,
    restrictions and crossings commute with it, so a word on an r-set is
    rewritten once, as its image on [r], and carried back."""
    to: dict[int, int] = {}
    for a, b in zip(old, new):
        to[a], to[-a] = b, -b
    return to


def _is_snake_word(w: tuple[int, ...]) -> bool:
    if not w:
        return True
    if w[0] <= 0:
        return False
    for j in range(len(w) - 1):
        if j % 2 == 0:
            if not w[j] > w[j + 1]:
                return False
        else:
            if not w[j] < w[j + 1]:
                return False
    return True


def is_snake(x: SignedPermutation) -> bool:
    """True iff 0 < x_r > x_{r-1} < x_{r-2} > ... holds down to x_1."""
    return _is_snake_word(x.word)


def as_snake(x: SignedPermutation) -> BSnake:
    """Validate the snake alternation; raise otherwise."""
    if not is_snake(x):
        raise ValueError(f"{x} is not a B-snake")
    return x


def _signed_values(mags: Iterable[int]) -> list[int]:
    out = [-m for m in mags] + list(mags)
    out.sort()
    return out


def enumerate_signed_perms(I: Iterable[int], cap: int = ENUMERATION_CAP
                           ) -> Iterator[SignedPermutation]:
    """All 2^r * r! signed permutations on I, in lexicographic word order."""
    elems = index_set(I)
    _check_cap("|I|", len(elems), "enumeration", cap)
    for w in _words_lex(frozenset(elems)):
        yield SignedPermutation(w)


def _words_lex(remaining: frozenset[int], prefix: tuple[int, ...] = ()
               ) -> Iterator[tuple[int, ...]]:
    if not remaining:
        yield prefix
        return
    for v in _signed_values(remaining):
        yield from _words_lex(remaining - {abs(v)}, prefix + (v,))


def enumerate_snakes(I: Iterable[int]) -> list[BSnake]:
    """All B-snakes on I in lexicographic word order (the frozen basis order).

    Every snake on I is restrictable to the trivial split (I, {}), so the
    block walk of that split generates them all without filtering the full
    hyperoctahedral group, and the count springer(|I|) stays cheap at r = 8.
    """
    return [SignedPermutation(z)
            for z, _, _ in _restrictable_walk(frozenset(index_set(I)), frozenset())]


def _restrictable_walk(i1: frozenset[int], i2: frozenset[int],
                       side: frozenset[int] | None = None,
                       prefixes: set[Word] | None = None
                       ) -> Iterator[tuple[Word, Word, Word]]:
    """The restrictable snakes z of the split (I1, I2), lazily and in
    lexicographic order, as (z, P_I1(z), P_I2(z)) with each restriction
    relabelled onto [|I1|] and [|I2|] by the order-preserving map.

    Every length-2 block of such a z lies inside one part, so for odd r the
    lead is a positive letter of the odd-sized part.  After the lead come
    r//2 blocks (p, q), each taken from one part: p < q and p below the
    previous q (or the lead) for odd r; p > q and p above the previous q
    (above 0 for the first block) for even r.  The restrictions grow a
    block at a time and are already canonically oriented with sign +1;
    the relabelling is built into the leads and blocks, so it costs nothing
    per z.  With ``side`` (I1 or I2) and ``prefixes`` (words on [|side|]),
    a lead or block of side is placed only if the relabelled restriction to
    side that it ends is in prefixes, so the words kept are those whose
    relabelled P_side(z) is in that block-prefix-closed set.  A split whose
    parts overlap or both have odd size is not checked."""
    r = len(i1) + len(i2)
    odd = r % 2
    f1 = 1 if (r + len(i1)) % 2 == 0 else -1
    f2 = 1 if (r + len(i2)) % 2 == 0 else -1
    to1, to2 = (_relabelling(sorted(part), range(1, len(part) + 1)) for part in (i1, i2))
    cut1, cut2 = (prefixes, None) if side == i1 else (None, prefixes)
    # (p, q, magnitude mask, from I1, relabelled P_part letters), in lex order
    blocks = sorted((p, q, 1 << abs(p) | 1 << abs(q), part is i1, (f * tp, f * tq))
                    for part, f, to in ((i1, f1, to1), (i2, f2, to2))
                    for p, tp in to.items() for q, tq in to.items()
                    if abs(p) != abs(q) and (p < q if odd else p > q))
    full = sum(1 << m for m in i1 | i2)
    free: dict[int, tuple[list, list[int]]] = {}  # used magnitudes -> blocks left, heads

    def rec(z: Word, used: int, last: int, w1: Word, w2: Word
            ) -> Iterator[tuple[Word, Word, Word]]:
        if used not in free:
            avail = [b for b in blocks if not used & b[2]]
            free[used] = avail, [b[0] for b in avail]
        avail, heads = free[used]
        for p, q, mask, in1, pair in (avail[:bisect_left(heads, last)] if odd
                                      else avail[bisect_right(heads, last):]):
            if in1:
                n1, n2 = w1 + pair, w2
                if cut1 is not None and n1 not in cut1:
                    continue
            else:
                n1, n2 = w1, w2 + pair
                if cut2 is not None and n2 not in cut2:
                    continue
            if used | mask == full:
                yield z + (p, q), n1, n2
            else:
                yield from rec(z + (p, q), used | mask, q, n1, n2)

    if odd:  # the lead: a positive letter of the odd-sized part
        lead_in1 = len(i1) % 2 == 1
        part, to, cut = (i1, to1, cut1) if lead_in1 else (i2, to2, cut2)
        starts = [((m,), 1 << m, m, *(((to[m],), ()) if lead_in1 else ((), (to[m],))))
                  for m in sorted(part) if cut is None or (to[m],) in cut]
    else:
        starts = [((), 0, 0, (), ())]
    for z, used, last, w1, w2 in starts:
        if used == full:
            yield z, w1, w2
        else:
            yield from rec(z, used, last, w1, w2)


def springer(r: int, cap: int = ENUMERATION_CAP) -> int:
    """Number of B-snakes on any r-element set, by enumeration (memoized)."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    _check_cap("r", r, "springer", cap)
    return _springer(r)


@lru_cache(maxsize=None)
def _springer(r: int) -> int:
    """One enumeration per r, whatever cap ``springer`` was given."""
    return sum(1 for _ in _restrictable_walk(frozenset(range(1, r + 1)), frozenset()))


def _block_sums(w: tuple[int, ...]) -> tuple[int, ...]:
    r = len(w)
    return tuple(w[r - 2 * i] + w[r - 2 * i + 1] for i in range(1, r // 2 + 1))


def block_sums(x: SignedPermutation) -> tuple[int, ...]:
    """Sums x_{2i-1} + x_{2i} over the length-2 blocks, rightmost block first."""
    return _block_sums(x.word)


def _word_lt(w1: tuple[int, ...], w2: tuple[int, ...]) -> bool:
    """``order_lt`` on raw words of one length, without the support check."""
    s1, s2 = _block_sums(w1), _block_sums(w2)
    if len(w1) % 2 == 0:
        # Negating equal-length tuples reverses their lexicographic order.
        s1, s2 = s2, s1
    return s1 < s2


def order_lt(x: SignedPermutation, y: SignedPermutation) -> bool:
    """The strict comparison x ◁ y that every rewriting step decreases.

    Block sums x_{2i-1} + x_{2i} are compared lexicographically from the
    rightmost block; for even r the comparison is applied to the negated
    words (equivalently, the first differing sum must be larger).  Words
    with equal sum vectors are incomparable.
    """
    if x.support != y.support:
        raise ValueError(f"supports differ: {x.support} vs {y.support}")
    return _word_lt(x.word, y.word)
