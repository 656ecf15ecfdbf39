import itertools
import random
from fractions import Fraction

import pytest

from bsnakes import normalform, ring
from bsnakes.core import (EMPTY, CapExceeded, SignedPermutation, _is_snake_word,
                          _relabelling, _words_lex, enumerate_snakes, parse_sp, restrict_p,
                          springer)
from bsnakes.normalform import normal_form
from bsnakes.relations import LinComb, _canonical_word
from bsnakes.ring import (_CUP_CACHE_SIZE, RestrictionContext, RingElement,
                          _cup_cached, _cup_split, _restrictable_walk, _zero, betti,
                          betti_table, cup, cup_basis, graded_basis, is_restrictable,
                          kappa, ring_table)


def sp(text):
    return parse_sp(text)


def lc(support, **kw):
    return LinComb(support, {sp(t): c for t, c in kw.items()})


def subsets(n):
    base = range(1, n + 1)
    for size in range(n + 1):
        yield from itertools.combinations(base, size)


def deg(I):
    return (len(I) + 1) // 2


# --- restriction contexts -------------------------------------------------------

def test_context_validation():
    RestrictionContext((1, 4), (2, 3))
    RestrictionContext((), (1, 2, 3))
    with pytest.raises(ValueError):
        RestrictionContext((1, 2), (2, 3))
    with pytest.raises(ValueError):
        RestrictionContext((1,), (2,))  # odd * odd


def test_is_restrictable_golden():
    ctx = RestrictionContext((1, 4), (2, 3))
    assert not is_restrictable(sp("[1-3/42]"), ctx)
    assert is_restrictable(sp("[1-4/32]"), ctx)
    assert is_restrictable(sp("[1-4/-2-3]"), ctx)
    ctx2 = RestrictionContext((1, 5), (2, 3, 4))
    assert not is_restrictable(sp("[2/-13/-45]"), ctx2)
    assert is_restrictable(sp("[2/15/-4-3]"), ctx2)
    with pytest.raises(ValueError):
        is_restrictable(sp("[21]"), ctx)


def test_restrictable_count_for_paired_split():
    ctx = RestrictionContext((1, 4), (2, 3))
    count = sum(1 for z in enumerate_snakes((1, 2, 3, 4))
                if is_restrictable(z, ctx))
    assert count == 20


def test_kappa_golden():
    ctx = RestrictionContext((1, 4), (2, 3))
    assert kappa(sp("[1-4/32]"), ctx) == 1
    assert kappa(sp("[1-4/-2-3]"), ctx) == 1
    ctx2 = RestrictionContext((1, 5), (2, 3, 4))
    assert kappa(sp("[2/15/-4-3]"), ctx2) == 1
    with pytest.raises(ValueError):
        kappa(sp("[1-3/42]"), ctx)  # not restrictable


def test_kappa_zero_with_empty_first_factor():
    for I in [(1, 2), (1, 2, 3)]:
        ctx = RestrictionContext((), I)
        for z in enumerate_snakes(I):
            assert kappa(z, ctx) == 0


# --- cup product -----------------------------------------------------------------

def test_cup_golden_rank_two_products():
    assert cup_basis(sp("[1-4]"), sp("[32]")) == lc(
        (1, 2, 3, 4), **{"[1-4/32]": -1, "[1-4/-2-3]": -1})
    assert cup_basis(sp("[41]"), sp("[3-2]")) == lc(
        (1, 2, 3, 4), **{"[41/3-2]": -1, "[3-2/41]": 1, "[3-2/-1-4]": 1})


def test_cup_golden_rank_five_product():
    assert cup_basis(sp("[51]"), sp("[2/-4-3]")) == lc(
        (1, 2, 3, 4, 5), **{"[2/15/-4-3]": -1, "[2/-5-1/-4-3]": -1,
                            "[2/15/34]": -1, "[2/-4-3/-5-1]": 1})


def test_cup_unit_and_vanishing():
    for I in [(), (2,), (1, 3), (1, 2, 3)]:
        for beta in enumerate_snakes(I):
            assert cup_basis(EMPTY, beta) == LinComb.single(beta)
            assert cup_basis(beta, EMPTY) == LinComb.single(beta)
    assert not cup_basis(sp("[1]"), sp("[2]"))  # odd * odd
    assert not cup_basis(sp("[21]"), sp("[2-1]"))  # overlapping supports
    assert cup_basis(sp("[21]"), sp("[2-1]")).support == ()


def test_cup_rejects_non_snakes():
    with pytest.raises(ValueError, match=r"^\[12\] is not a B-snake$"):
        cup_basis(sp("[12]"), sp("[3]"))
    with pytest.raises(ValueError, match=r"^\[-3\] is not a B-snake$"):
        cup_basis(sp("[21]"), sp("[-3]"))
    for alpha, beta in (("[12]", "[2]"), ("[1]", "[-2]")):  # vanishing pairs
        with pytest.raises(ValueError, match="is not a B-snake"):
            cup_basis(sp(alpha), sp(beta))


def test_cup_vanishing_exhaustive_n4():
    # overlapping supports or odd*odd cardinalities kill the product
    basis = graded_basis(4)
    for a in basis:
        for b in basis:
            if set(a.support) & set(b.support) or \
                    (len(a.support) * len(b.support)) % 2:
                assert not cup_basis(a, b), (a, b)


def test_cup_degree_additivity():
    for i1, i2 in itertools.permutations(list(subsets(4)), 2):
        if set(i1) & set(i2) or (len(i1) * len(i2)) % 2:
            continue
        for a in enumerate_snakes(i1):
            for b in enumerate_snakes(i2):
                prod = cup_basis(a, b)
                if prod:
                    assert deg(prod.support) == deg(i1) + deg(i2)


def test_cup_graded_commutativity_small():
    for i1, i2 in itertools.permutations(list(subsets(4)), 2):
        if len(set(i1) | set(i2)) > 4:
            continue
        for a in enumerate_snakes(i1):
            for b in enumerate_snakes(i2):
                sign = (-1) ** (deg(i1) * deg(i2))
                assert cup_basis(a, b) == cup_basis(b, a).scale(sign)


def test_cup_associativity_over_3():
    basis = graded_basis(3)
    for a in basis:
        for b in basis:
            ab = cup_basis(a, b)
            for c in basis:
                bc = cup_basis(b, c)
                if not ab and not bc:
                    continue
                left = LinComb.zero(_sym3(a, b, c))
                for z, coeff in ab.items():
                    left = left + cup_basis(z, c).scale(coeff)
                right = LinComb.zero(_sym3(a, b, c))
                for w, coeff in bc.items():
                    right = right + cup_basis(a, w).scale(coeff)
                assert left == right, (a, b, c)


def _sym3(a, b, c):
    s1, s2, s3 = set(a.support), set(b.support), set(c.support)
    return tuple(sorted((s1 ^ s2) ^ s3))


# --- the restrictable-only product path -------------------------------------------

def _splits(U):
    """Every (I1, I2) with I1 u I2 = U and |I1| * |I2| even."""
    for k in range(len(U) + 1):
        for i1 in itertools.combinations(U, k):
            i2 = tuple(v for v in U if v not in i1)
            if (len(i1) * len(i2)) % 2 == 0:
                yield i1, i2


def _filtered_snakes(U):
    """Every snake on U in word order, by filtering all signed permutations:
    independent of the block walk, which also generates enumerate_snakes."""
    return [SignedPermutation(w) for w in _words_lex(frozenset(U)) if _is_snake_word(w)]


def _reference_cup(alpha, beta):
    """The product formula from the public API alone: filter every snake of
    the union, read each coefficient off a whole normal form."""
    ctx = RestrictionContext(alpha.support, beta.support)
    terms = {}
    for z in enumerate_snakes(ctx.union):
        if is_restrictable(z, ctx):
            c1 = normal_form(restrict_p(z, ctx.i1)).coefficient(alpha)
            c2 = normal_form(restrict_p(z, ctx.i2)).coefficient(beta)
            terms[z] = (-1) ** kappa(z, ctx) * c1 * c2
    return LinComb(ctx.union, terms)


def _seeded_prefixes(rng, subwords):
    """A prefix-closed set: every prefix of a seeded half of the subwords,
    and some proper prefixes of the others (which must not keep a word)."""
    keep = set()
    for x in subwords:
        if rng.random() < 0.5:
            keep.update(x[:j] for j in range(1, len(x) + 1))
        elif len(x) > 1 and rng.random() < 0.5:
            keep.update(x[:j] for j in range(1, rng.randrange(1, len(x)) + 1))
    return keep


def test_pruned_search_is_the_filtered_enumeration():
    """The block walk yields (z, P_I1(z), P_I2(z)) for the restrictable z in
    word order, each restriction relabelled onto [|I1|] and [|I2|]; with a
    prefix set on one side, only the z whose relabelled restriction to that
    side is in the set."""
    rng = random.Random(6)
    for U in subsets(6):
        snakes = _filtered_snakes(U)
        for i1, i2 in _splits(U):
            ctx = RestrictionContext(i1, i2)
            std1, std2 = (_relabelling(part, range(1, len(part) + 1)).__getitem__
                          for part in (i1, i2))
            want = [(z.word, tuple(map(std1, restrict_p(z, i1).word)),
                     tuple(map(std2, restrict_p(z, i2).word)))
                    for z in snakes if is_restrictable(z, ctx)]
            s1, s2 = frozenset(i1), frozenset(i2)
            assert list(_restrictable_walk(s1, s2)) == want, (i1, i2)
            for side, at in ((s1, 1), (s2, 2)):
                prefixes = _seeded_prefixes(rng, sorted({t[at] for t in want}))
                kept = [t for t in want if not side or t[at] in prefixes]
                got = list(_restrictable_walk(s1, s2, side, prefixes))
                assert got == kept, (i1, i2, sorted(side))


def _restrictable_splits():
    """(U, splits of U): every split of every U in [6], then the 1+6, 2+5
    and 3+4 splits of one 7-set."""
    for U in subsets(6):
        yield U, list(_splits(U))
    yield tuple(range(1, 8)), [((3,), (1, 2, 4, 5, 6, 7)), ((2, 6), (1, 3, 4, 5, 7)),
                               ((1, 4, 7), (2, 3, 5, 6))]


def test_restrictable_snakes_lead_from_the_odd_part_with_canonical_restrictions():
    """The shape the block walk relies on: for odd r the lead lies in the
    part of odd size, and both parity-corrected restrictions are already
    canonically oriented, with sign +1."""
    for U, splits in _restrictable_splits():
        snakes = _filtered_snakes(U)
        for i1, i2 in splits:
            ctx = RestrictionContext(i1, i2)
            for z in snakes:
                if not is_restrictable(z, ctx):
                    continue
                if len(U) % 2:
                    odd = i1 if len(i1) % 2 else i2
                    assert abs(z.word[0]) in odd, (i1, i2, z)
                for part in (i1, i2):
                    w = restrict_p(z, part).word
                    assert _canonical_word(w) == (1, w), (i1, i2, z)


def test_cup_matches_reference_over_4():
    basis = graded_basis(4)
    checked = 0
    for a in basis:
        for b in basis:
            if not set(a.support) & set(b.support) and \
                    (len(a.support) * len(b.support)) % 2 == 0:
                assert cup_basis(a, b) == _reference_cup(a, b), (a, b)
                checked += 1
    assert checked == 373  # sum of b_|I1| * b_|I2| over the disjoint splits


#: (|I1|, |I2|) per seed: every split shape of a 7-set, then the empty
#: factor, the other shapes of a 6-set and the size tie of a 4-set.
_SEEDED_SHAPES = [(1, 6), (2, 5), (3, 4), (4, 3), (5, 2), (6, 1),
                  (0, 6), (2, 4), (4, 2), (6, 0), (2, 2), (2, 2)]


@pytest.mark.parametrize("seed", range(12))
def test_cup_matches_reference_seeded(seed):
    """Each product is checked in both orientations, so the single-pair
    walk is pruned by either factor."""
    rng = random.Random(seed)
    k, m = _SEEDED_SHAPES[seed]
    U = sorted(rng.sample(range(1, 10), k + m))
    i1 = tuple(sorted(rng.sample(U, k)))
    i2 = tuple(v for v in U if v not in i1)
    a = rng.choice(enumerate_snakes(i1))
    b = rng.choice(enumerate_snakes(i2))
    assert cup_basis(a, b) == _reference_cup(a, b)
    assert cup_basis(b, a) == _reference_cup(b, a)


def test_single_pair_walk_is_pruned_by_the_smaller_factor(monkeypatch):
    walks = []
    walk = ring._restrictable_walk

    def spy(i1, i2, side=None, prefixes=None):
        walks.append((side, prefixes is not None))
        return walk(i1, i2, side, prefixes)

    monkeypatch.setattr(ring, "_restrictable_walk", spy)
    for left, right, side in (("[6/13]", "[2-7/5-4]", {1, 3, 6}),
                              ("[62/5-4/7-3]", "[1]", {1}),
                              ("[41]", "[32]", {1, 4})):  # a tie prunes by I1
        walks.clear()
        _cup_cached.cache_clear()
        cup_basis(sp(left), sp(right))
        assert walks == [(frozenset(side), True)], (left, right)
    walks.clear()
    _cup_split((1, 4), (2, 3))  # a whole split walks unpruned
    assert walks == [(None, False)]


def test_products_share_one_memo_entry_per_relabelled_word(monkeypatch):
    """A product reads normal forms of restrictions relabelled onto [k]:
    every word it rewrites is on [k], and the same pair moved onto another
    support of the same size rewrites nothing new and gives the moved
    product."""
    memo: dict = {}
    monkeypatch.setattr(normalform, "_nf_memo", memo)
    _cup_cached.cache_clear()
    U, V = (2, 3, 4, 5, 6, 7, 8), (1, 3, 4, 5, 7, 8, 9)
    to_v = _relabelling(U, V)

    def move(x):
        return SignedPermutation(tuple(map(to_v.__getitem__, x.word)))

    a, b = sp("[5]"), sp("[7-2/63/8-4]")  # [4] x [6-1/52/7-3] moved onto U
    prod = cup_basis(a, b)
    assert prod and memo
    assert all(sorted(map(abs, key)) == list(range(1, len(key) + 1)) for key in memo)
    seen = len(memo)
    moved = cup_basis(move(a), move(b))
    assert len(memo) == seen
    assert moved == LinComb(V, {move(z): c for z, c in prod.terms.items()})


def test_split_table_rejects_invalid_splits():
    for i1, i2 in (((1,), (2,)), ((1, 2), (2, 3)), ((1, 2, 3), (4,))):
        with pytest.raises(ValueError):
            _cup_split(i1, i2)
    assert _cup_split((1,), ())  # |I2| = 0 is even


def test_cup_cap_on_an_eight_letter_factor():
    alpha = sp("[81/72/63/54]")
    with pytest.raises(CapExceeded):
        cup_basis(alpha, EMPTY)
    with pytest.raises(CapExceeded):
        cup_basis(EMPTY, alpha)
    assert not cup_basis(alpha, sp("[1]"))  # overlapping supports still vanish


def test_vanishing_products_skip_the_cache():
    assert _cup_cached.cache_info().maxsize == _CUP_CACHE_SIZE
    before = _cup_cached.cache_info().currsize
    assert not cup_basis(sp("[1]"), sp("[2]"))
    assert not cup_basis(sp("[21]"), sp("[3-1]"))
    assert _cup_cached.cache_info().currsize == before


def test_vanishing_products_share_one_zero_per_support():
    zero = cup_basis(sp("[1]"), sp("[2]"))
    assert zero == LinComb.zero((1, 2)) and zero.support == (1, 2)
    assert cup_basis(sp("[2]"), sp("[1]")) is zero
    assert cup_basis(sp("[21]"), sp("[3-1]")) is not zero  # another support
    assert _zero.cache_info().maxsize is not None


def test_split_table_is_every_product_of_the_split():
    # the whole-split kernel (which the oracle referees) against the pruned
    # pair kernel that cup_basis takes, pair by pair: every split inside
    # [5], and both orientations of one 2 + 4 split of a 6-set
    checked = 0
    for i1, i2 in [split for U in subsets(5) for split in _splits(U)] + [
            ((2, 5), (1, 3, 4, 6)), ((1, 3, 4, 6), (2, 5))]:
        table = _cup_split(i1, i2)
        for a in enumerate_snakes(i1):
            for b in enumerate_snakes(i2):
                terms = table.get((a.word, b.word), {})
                want = cup_basis(a, b)
                assert {z.word: c for z, c in want.terms.items()} == terms, (a, b)
                checked += 1
    assert checked == 3263 + 342  # every nonvanishing ordered pair over [5], and the 2 + 4


# --- ring elements ----------------------------------------------------------------

def test_ring_element_basics():
    one = RingElement.unit(3)
    a = RingElement.basis(3, sp("[21]"))
    b = RingElement.basis(3, sp("[3]"))
    assert cup(one, a) == a and cup(a, one) == a
    assert cup(one, one) == one
    total = a + b
    assert total.component((1, 2)) == LinComb.single(sp("[21]"))
    assert (total - a) == b
    assert not (a - a)
    assert cup(a, b).n == 3
    assert str(RingElement.zero(2)) == "0"
    assert "{1,2}" in str(a)


def test_ring_element_bilinearity():
    a = RingElement.basis(4, sp("[1-4]"))
    b = RingElement.basis(4, sp("[32]"))
    c = RingElement.basis(4, sp("[41]"))
    lhs = cup(a + c, b)
    rhs = cup(a, b) + cup(c, b)
    assert lhs == rhs


def test_ring_element_validation():
    with pytest.raises(ValueError):
        RingElement(2, {(1, 3): LinComb.single(sp("[31]"))})
    with pytest.raises(ValueError):
        RingElement(3, {(1, 2): LinComb.single(sp("[12]"))})
    with pytest.raises(ValueError):
        cup(RingElement.unit(2), RingElement.unit(3))
    with pytest.raises(ValueError, match="named by two keys"):  # not the last one kept
        RingElement(3, {(1, 2): LinComb.single(sp("[21]")),
                        (2, 1): LinComb.single(sp("[21]"), 5)})


def test_ring_element_json():
    a = RingElement.basis(4, sp("[21]")) + RingElement.unit(4)
    obj = a.to_json()
    assert obj["n"] == 4
    assert [c["support"] for c in obj["components"]] == [[], [1, 2]]


def test_ring_element_negation_and_scaling():
    a = RingElement.basis(3, sp("[21]")) + RingElement.basis(3, sp("[3]"))
    assert (-a).component((1, 2)) == LinComb.single(sp("[21]"), -1)
    assert -a + a == RingElement.zero(3)
    half = a.scale(Fraction(1, 2))
    assert half.component((3,)) == LinComb.single(sp("[3]"), Fraction(1, 2))
    assert half + half == a
    assert not a.scale(0)


def test_ring_element_ambient_is_part_of_the_value():
    x = sp("[21]")
    assert RingElement.basis(3, x) != RingElement.basis(4, x)
    with pytest.raises(ValueError, match="ambient mismatch"):
        RingElement.basis(3, x) - RingElement.basis(4, x)


def test_ring_elements_are_unhashable():
    with pytest.raises(TypeError):
        hash(RingElement.unit(2))


def test_ring_element_drops_zero_components():
    assert RingElement(2, {(1,): LinComb.zero((1,))}) == RingElement.zero(2)


def test_ring_element_lists_components_by_size_then_elements():
    x = RingElement(4, {(2, 3): LinComb.single(sp("[32]")),
                        (4,): LinComb.single(sp("[4]"), 2),
                        (1,): LinComb.single(sp("[1]")),
                        (1, 2): LinComb.single(sp("[21]"))})
    assert str(x) == "{1}: [1]; {4}: 2*[4]; {1,2}: [21]; {2,3}: [32]"
    assert [(c["support"], [t["coeff"] for t in c["terms"]])
            for c in x.to_json()["components"]] == [
        ([1], ["1"]), ([4], ["2"]), ([1, 2], ["1"]), ([2, 3], ["1"])]


def test_ring_element_absent_component_is_zero_on_its_support():
    comp = RingElement.basis(4, sp("[21]")).component([4, 3])
    assert comp == LinComb.zero((3, 4)) and comp.support == (3, 4)


def test_ring_element_bilinearity_over_fractions():
    a = RingElement.basis(4, sp("[1-4]"))
    b = RingElement.basis(4, sp("[41]"))
    c = RingElement.basis(4, sp("[32]"))
    p, q = Fraction(1, 2), Fraction(-2, 3)
    left = cup(a.scale(p) + b.scale(q), c)
    assert left and left == cup(a, c).scale(p) + cup(b, c).scale(q)
    assert cup(c, a.scale(p) + b.scale(q)) == cup(c, a).scale(p) + cup(c, b).scale(q)
    assert left.component((1, 2, 3, 4)).coefficient(sp("[1-4/32]")) == -p


# --- betti numbers ----------------------------------------------------------------

@pytest.mark.parametrize("n,table", [
    (1, [1, 1]),
    (2, [1, 5, 0]),
    (3, [1, 12, 11, 0]),
])
def test_betti_golden(n, table):
    assert betti_table(n) == table


@pytest.mark.parametrize("n", range(6))
def test_betti_dimension_audit(n):
    dims = {}
    for I in subsets(n):
        dims[deg(I)] = dims.get(deg(I), 0) + springer(len(I))
    for k in range(n + 1):
        assert betti(n, k) == dims.get(k, 0)
    assert betti(n, -1) == 0 and betti(n, n + 1) == 0


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_euler_characteristic_vanishes(n):
    assert sum((-1) ** k * betti(n, k) for k in range(n + 1)) == 0


def test_betti_cap():
    with pytest.raises(CapExceeded):
        betti(8, 0)
    # a lifted cap reaches the Springer numbers beneath
    assert betti_table(8, cap=8) == [1, 92, 4606, 97580, 447625, 0, 0, 0, 0]


# --- product table ----------------------------------------------------------------

def test_ring_table_n2():
    records = ring_table(2)
    assert len(records) == 36  # 6 basis elements squared
    # overlapping supports give literal zero products
    zero = [r for r in records
            if r["left"]["support"] == [1, 2] and r["right"]["support"] == [1, 2]]
    assert len(zero) == 9
    assert all(r["product"]["terms"] == [] for r in zero)
    # deterministic
    assert records == ring_table(2)


def test_ring_table_n4_contains_golden_products():
    records = ring_table(4)
    assert len(records) == len(graded_basis(4)) ** 2

    def product_of(lw, rw):
        for r in records:
            if r["left"]["word"] == lw and r["right"]["word"] == rw:
                return sorted((t["coeff"], t["word"]) for t in r["product"]["terms"])
        raise AssertionError("pair missing from table")

    assert product_of([1, -4], [3, 2]) == sorted(
        [("-1", [1, -4, 3, 2]), ("-1", [1, -4, -2, -3])])
    assert product_of([4, 1], [3, -2]) == sorted(
        [("-1", [4, 1, 3, -2]), ("1", [3, -2, 4, 1]), ("1", [3, -2, -1, -4])])


def test_ring_table_dimension_audit():
    # stored basis sizes per degree agree with the Betti numbers
    for n in range(5):
        dims = {}
        for alpha in graded_basis(n):
            d = deg(alpha.support)
            dims[d] = dims.get(d, 0) + 1
        assert dims == {k: betti(n, k) for k in range(n + 1) if betti(n, k)}


def test_ring_table_cap():
    with pytest.raises(CapExceeded):
        ring_table(5)
