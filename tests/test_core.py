import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsnakes.core import (CapExceeded, ParseError, SignedPermutation, bar,
                          block_sums, enumerate_signed_perms, enumerate_snakes,
                          f_set, format_sp, index_set, is_snake, order_lt,
                          parse_sp, restrict_p, signed_subset, springer, star,
                          subperm)
from springer_oracle import springer_boustrophedon

A001586 = [1, 1, 3, 11, 57, 361, 2763, 24611, 250737]


def sp(text):
    return parse_sp(text)


def all_perms(I):
    return list(enumerate_signed_perms(I))


# --- parsing and printing ----------------------------------------------------

@pytest.mark.parametrize("text,word,support", [
    ("[1/-32/-5-4]", (1, -3, 2, -5, -4), (1, 2, 3, 4, 5)),
    ("[]", (), ()),
    ("[2/15/-4-3]", (2, 1, 5, -4, -3), (1, 2, 3, 4, 5)),
])
def test_parse_examples(text, word, support):
    x = sp(text)
    assert x.word == word
    assert x.support == support


@pytest.mark.parametrize("word,text", [
    ((1, -4, 3), "[1/-43]"),
    ((), "[]"),
    ((2, 1, 5, -4, -3), "[2/15/-4-3]"),
])
def test_format_examples(word, text):
    assert format_sp(SignedPermutation(word)) == text


@pytest.mark.parametrize("bad", [
    "1/23]", "[1/23", "[12/3]", "[101]", "[1/2-]", "[x]", "[1-1]", "[22]",
    "[/12]", "[12/]", "[\u0661\u0662]", "[\u00b2]", "[-\u0663]", "[1//23]",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        sp(bad)


def test_parse_error_positions():
    with pytest.raises(ParseError, match="duplicate magnitude"):
        sp("[1-1]")
    with pytest.raises(ParseError, match="zero"):
        sp("[10]")
    with pytest.raises(ParseError, match=r"\["):
        sp("12]")
    # separator errors point at the offending '/'
    for text, at in [("[1//23]", 3), ("[/12]", 1), ("[12/]", 3)]:
        with pytest.raises(ParseError, match="empty block") as exc:
            sp(text)
        assert exc.value.position == at, text
    with pytest.raises(ParseError, match="pair boundary") as exc:
        sp("[1-3/2-5-4]")
    assert exc.value.position == 4
    # a repeated magnitude points at the repeated digit's text index
    for text, at in [("[1/21]", 4), ("[-3-3]", 4), ("[12/31]", 5), ("[1-1]", 3)]:
        with pytest.raises(ParseError, match="duplicate magnitude") as exc:
            sp(text)
        assert exc.value.position == at, text


_PARSE_ALPHABET = "[]/-0123456789x "


@given(st.text(_PARSE_ALPHABET, max_size=12)
       | st.text(_PARSE_ALPHABET, max_size=10).map(lambda inner: f"[{inner}]"))
@settings(max_examples=500, deadline=None)
def test_parse_accepts_or_points_into_the_text(text):
    try:
        x = sp(text)
    except ParseError as exc:
        if not text:  # the empty text has no index to point at
            assert exc.position is None
        else:
            assert 0 <= exc.position < len(text), text
        if "duplicate magnitude" in str(exc):
            assert text[exc.position] == str(exc).split()[2], text
    else:
        assert sp(format_sp(x)) == x


def test_partial_separators_validated():
    # a single separator is fine as long as it sits on a pair boundary
    assert sp("[1/-32-5-4]").word == (1, -3, 2, -5, -4)
    with pytest.raises(ParseError):
        sp("[1-3/2-5-4]")


@given(st.lists(st.sampled_from(range(1, 10)), unique=True, min_size=0,
                max_size=7).flatmap(
    lambda mags: st.tuples(*[st.sampled_from((m, -m)) for m in mags])))
@settings(max_examples=200, deadline=None)
def test_format_parse_round_trip(word):
    x = SignedPermutation(tuple(word))
    assert sp(format_sp(x)) == x


def test_word_validation():
    with pytest.raises(ValueError):
        SignedPermutation((1, -1))
    with pytest.raises(ValueError):
        SignedPermutation((0,))


def test_support_is_stored_but_not_compared():
    x = SignedPermutation((-3, 1, 2))
    assert x.support == (1, 2, 3) and x.support is x.support
    assert x == SignedPermutation((-3, 1, 2))
    assert hash(x) == hash(SignedPermutation((-3, 1, 2)))
    assert repr(x) == "SignedPermutation(word=(-3, 1, 2))"
    assert x.to_json() == {"word": [-3, 1, 2]}
    assert SignedPermutation.from_json(x.to_json()).support == (1, 2, 3)


# --- bar, star, F_i ----------------------------------------------------------

def test_bar_golden():
    assert bar(sp("[-1-6/54/-2-3]")) == sp("[16/-5-4/23]")
    assert bar(sp("[]")) == sp("[]")


def test_star_golden():
    assert star(sp("[1/-32/-5-4]")) == sp("[-1/2-3/-4-5]")
    assert star(sp("[1-4/32]")) == sp("[-41/23]")
    assert star(sp("[5]")) == sp("[-5]")


@pytest.mark.parametrize("r", range(7))
def test_involutions(r):
    # bar and star square to the identity on every word
    for x in all_perms(range(1, r + 1)):
        assert bar(bar(x)) == x
        assert star(star(x)) == x


def test_f_set_golden():
    x, y = sp("[1/-32/-5-4]"), sp("[1-4/32]")
    assert f_set(x, 1) == frozenset({-4})
    assert f_set(x, 2) == frozenset({2, -4, -5})
    assert f_set(x, 3) == frozenset({1, 2, -3, -4, -5})
    assert f_set(y, 1) == frozenset({-2})
    assert f_set(y, 2) == frozenset({-2, -3, 4})
    sx, sy = star(x), star(y)
    assert f_set(sx, 1) == frozenset({-5})
    assert f_set(sx, 2) == frozenset({-3, -4, -5})
    assert f_set(sx, 3) == frozenset({-1, 2, -3, -4, -5})
    assert f_set(sy, 1) == frozenset({-3})
    assert f_set(sy, 2) == frozenset({-1, -2, -3})


def test_f_set_range_errors():
    with pytest.raises(IndexError):
        f_set(sp("[1/-43]"), 3)
    with pytest.raises(IndexError):
        f_set(sp("[21]"), 0)


@pytest.mark.parametrize("r", range(1, 7))
def test_f_set_nesting_and_size(r):
    for x in all_perms(range(1, r + 1)):
        prev = None
        for i in range(1, (r + 1) // 2 + 1):
            fi = f_set(x, i)
            assert len(fi) == 2 * i - 1
            signed_subset(fi)  # no +/- pair
            if prev is not None:
                assert prev < fi
            prev = fi


@pytest.mark.parametrize("r", range(1, 6))
def test_f_set_distinct_from_star(r):
    for x in all_perms(range(1, r + 1)):
        sx = star(x)
        for i in range(1, (r + 1) // 2 + 1):
            assert f_set(x, i) != f_set(sx, i)


# --- restriction -------------------------------------------------------------

def test_subperm():
    z = sp("[2/15/-4-3]")
    assert subperm(z, {1, 5}) == sp("[15]")
    assert subperm(z, z.support) == z
    assert subperm(z, ()) == sp("[]")
    with pytest.raises(ValueError):
        subperm(z, {6})


def test_restrict_p_golden():
    z = sp("[2/15/-4-3]")
    assert restrict_p(z, {1, 5}) == sp("[-1-5]")
    assert restrict_p(z, {2, 3, 4}) == sp("[2/-4-3]")
    assert restrict_p(sp("[1-4/32]"), {1, 4}) == sp("[1-4]")
    assert restrict_p(z, iter([5, 1])) == sp("[-1-5]")  # J is read once
    msg = r"^\[1, 6\] is not a subset of the support \(1, 2, 3, 4, 5\)$"
    with pytest.raises(ValueError, match=msg):
        restrict_p(z, {1, 6})


# --- snakes ------------------------------------------------------------------

def test_is_snake():
    assert is_snake(sp("[2/-31]"))
    assert not is_snake(sp("[1/23]"))
    assert is_snake(sp("[]"))
    assert not is_snake(sp("[-1]"))


def test_enumerate_snakes_small():
    assert [str(s) for s in enumerate_snakes(())] == ["[]"]
    assert {str(s) for s in enumerate_snakes({1, 2})} == {"[21]", "[2-1]", "[1-2]"}
    assert len(enumerate_snakes({1, 2})) == 3


def test_snakes_on_123_are_the_expansion_terms():
    # the 11 snakes on {1,2,3} are exactly the terms expanding [1/23]
    expected = {"[1/-23]", "[1/-32]", "[1/-3-2]", "[2/13]", "[2/-13]",
                "[2/-31]", "[2/-3-1]", "[3/12]", "[3/-12]", "[3/-21]",
                "[3/-2-1]"}
    assert {str(s) for s in enumerate_snakes({1, 2, 3})} == expected


def test_enumerate_snakes_order_and_filter():
    """Every subset of [6], against the filter of all signed permutations."""
    for k in range(7):
        for I in itertools.combinations(range(1, 7), k):
            snakes = enumerate_snakes(I)
            assert snakes == sorted(snakes, key=lambda s: s.word)
            brute = [x for x in all_perms(I) if is_snake(x)]
            assert snakes == sorted(brute, key=lambda s: s.word)


@pytest.mark.parametrize("r,count", [(2, 8), (3, 48), (4, 384)])
def test_enumerate_signed_perms_counts(r, count):
    perms = all_perms(range(1, r + 1))
    assert len(perms) == count
    assert len(set(perms)) == count
    assert perms == sorted(perms, key=lambda p: p.word)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_signed_perms(range(1, 9)))
    with pytest.raises(CapExceeded):
        springer(8)


def test_springer_values():
    assert [springer(r) for r in range(8)] == A001586[:8]
    assert springer(2) == len(enumerate_snakes({1, 2}))
    assert springer(1) == 1


@pytest.mark.parametrize("r", range(9))
def test_springer_boustrophedon_cross_check(r):
    assert springer(r, 8) == springer_boustrophedon(r) == A001586[r]


def test_springer_count_matches_enumeration():
    for I in [(), (1,), (2, 5), (1, 2, 3), (3, 4, 6, 7)]:
        assert len(enumerate_snakes(I)) == springer(len(I))


# --- comparison order --------------------------------------------------------

def test_order_example_chains():
    x, y, z = sp("[2/45/31]"), sp("[4/-52/31]"), sp("[4/21/-53]")
    assert order_lt(z, y) and order_lt(y, x) and order_lt(z, x)
    assert not (order_lt(y, z) or order_lt(x, y) or order_lt(x, z))
    x2, y2, z2 = sp("[-1-6/54/-2-3]"), sp("[61/54/-2-3]"), sp("[61/5-2/4-3]")
    assert order_lt(z2, y2) and order_lt(y2, x2) and order_lt(z2, x2)


def test_order_support_mismatch():
    with pytest.raises(ValueError):
        order_lt(sp("[21]"), sp("[31]"))


@pytest.mark.parametrize("r", range(6))
def test_order_irreflexive(r):
    for x in all_perms(range(1, r + 1)):
        assert not order_lt(x, x)


@pytest.mark.parametrize("r", range(1, 4))
def test_order_strict_partial_exhaustive(r):
    perms = all_perms(range(1, r + 1))
    rel = {(a.word, b.word) for a in perms for b in perms if order_lt(a, b)}
    for a in perms:
        for b in perms:
            ab = (a.word, b.word) in rel
            ba = (b.word, a.word) in rel
            assert not (ab and ba)  # antisymmetry
    for (a, b) in rel:
        for c in perms:
            if (b, c.word) in rel:
                assert (a, c.word) in rel  # transitivity


def test_order_transitive_r4_via_keys():
    # at r = 4 the triple sweep is large; the order is the lexicographic
    # comparison of block-sum keys, so antisymmetry/transitivity reduce to
    # the tuple order once order_lt is shown to match the key comparison
    perms = all_perms(range(1, 5))
    keys = {x.word: tuple(-s for s in block_sums(x)) for x in perms}
    for a in perms:
        for b in perms:
            assert order_lt(a, b) == (keys[a.word] < keys[b.word])


def test_index_set_and_signed_subset_validation():
    assert index_set([3, 1, 2]) == (1, 2, 3)
    with pytest.raises(ValueError):
        index_set([0, 1])
    with pytest.raises(ValueError):
        signed_subset({2, -2})
    with pytest.raises(ValueError):
        signed_subset({0})


def test_entry_indexing():
    z = sp("[2/15/-4-3]")
    assert [z.entry(i) for i in range(1, 6)] == [-3, -4, 5, 1, 2]
    with pytest.raises(IndexError):
        z.entry(6)


def test_json_round_trip():
    x = sp("[12]")
    assert x.to_json() == {"word": [1, 2]}
    snake = sp("[2/15/-4-3]")
    assert snake.to_json() == {"word": [2, 1, 5, -4, -3], "snake": True}
    assert SignedPermutation.from_json(x.to_json()) == x
