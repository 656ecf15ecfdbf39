import random
from fractions import Fraction

import pytest

from bsnakes import normalform
from bsnakes.core import (CapExceeded, enumerate_signed_perms,
                          enumerate_snakes, parse_sp)
from bsnakes.normalform import (coefficient, coefficient_range_experiment,
                                normal_form, normal_form_lincomb)
from bsnakes.oracle import chain_of, chain_of_lincomb
from bsnakes.relations import LinComb, h5, relation_matrix


def sp(text):
    return parse_sp(text)


def lc(support, **kw):
    return LinComb(support, {sp(t): c for t, c in kw.items()})


ELEVEN_TERMS = {"[1/-23]": 1, "[1/-32]": -1, "[1/-3-2]": 1, "[2/13]": 1,
          "[2/-13]": -1, "[2/-31]": 1, "[2/-3-1]": -1, "[3/12]": -1,
          "[3/-12]": 1, "[3/-21]": -1, "[3/-2-1]": 1}


@pytest.mark.parametrize("backend", ["rewrite", "solve"])
def test_golden_eleven_term_expansion(backend):
    nf = normal_form(sp("[1/23]"), backend)
    assert {str(p): int(c) for p, c in nf.items()} == ELEVEN_TERMS


@pytest.mark.parametrize("backend", ["rewrite", "solve"])
def test_golden_three_term_expansion(backend):
    nf = normal_form(sp("[-2-3]"), backend)
    assert nf == lc((2, 3), **{"[32]": 1, "[3-2]": -1, "[2-3]": 1})


@pytest.mark.parametrize("backend", ["rewrite", "solve"])
def test_golden_block_pair_rearrangement(backend):
    # the five-term rearrangement holds modulo M_I
    lhs = normal_form(sp("[-4-3/-2-1]"), backend)
    rhs = normal_form_lincomb(lc((1, 2, 3, 4), **{
        "[-4-2/-3-1]": 1, "[-3-2/-4-1]": -1, "[-4-1/-3-2]": -1,
        "[-3-1/-4-2]": 1, "[-2-1/-4-3]": -1}), backend)
    assert lhs == rhs


@pytest.mark.parametrize("r", range(6))
def test_identity_on_snakes(r):
    for alpha in enumerate_snakes(range(1, r + 1)):
        assert normal_form(alpha) == LinComb.single(alpha)


def test_coefficient_golden():
    assert coefficient(sp("[-2-3]"), sp("[32]")) == 1
    assert coefficient(sp("[1/23]"), sp("[3/12]")) == -1
    assert coefficient(sp("[2/13]"), sp("[3/12]")) == 0


def test_coefficient_is_kronecker_on_snakes():
    for I in [(1, 2), (1, 2, 3)]:
        snakes = enumerate_snakes(I)
        for a in snakes:
            for b in snakes:
                assert coefficient(a, b) == (1 if a == b else 0)


def test_coefficient_validates():
    with pytest.raises(ValueError):
        coefficient(sp("[21]"), sp("[12]"))  # not a snake
    with pytest.raises(ValueError):
        coefficient(sp("[21]"), sp("[31]"))  # support mismatch


def test_coefficient_reads_the_normal_form():
    snakes = enumerate_snakes((1, 2, 3, 4))
    for x in enumerate_signed_perms((1, 2, 3, 4)):
        nf = normal_form(x)
        for alpha in snakes:
            c = coefficient(x, alpha)
            assert type(c) is Fraction and c == nf.coefficient(alpha), (x, alpha)
    x, alpha = sp("[1-4/32]"), sp("[4/-12]")
    with pytest.raises(ValueError):
        coefficient(x, alpha)  # support mismatch
    x, alpha = sp("[1/23]"), sp("[3/12]")
    assert coefficient(x, alpha, "solve") == coefficient(x, alpha) == -1
    assert type(coefficient(x, alpha, "solve")) is Fraction
    with pytest.raises(ValueError):
        coefficient(x, alpha, "guess")


def test_coefficient_cap():
    from bsnakes.core import SignedPermutation
    alpha = sp("[81/72/63/54]")
    with pytest.raises(CapExceeded):
        coefficient(SignedPermutation(tuple(range(8, 0, -1))), alpha)


@pytest.mark.parametrize("I", [(1,), (1, 2), (2, 3), (1, 2, 3), (1, 3, 5),
                               (1, 2, 3, 4), (2, 3, 5, 7)])
def test_backend_agreement_exhaustive(I):
    for x in enumerate_signed_perms(I):
        assert normal_form(x, "rewrite") == normal_form(x, "solve"), x


def test_backend_agreement_random_r5():
    rng = random.Random(5)
    perms = list(enumerate_signed_perms((1, 2, 3, 4, 5)))
    for x in rng.sample(perms, 200):
        assert normal_form(x, "rewrite") == normal_form(x, "solve"), x


@pytest.mark.parametrize("I", [(1, 2), (1, 2, 3)])
def test_soundness_difference_in_row_space(I):
    m = relation_matrix(I)
    for x in enumerate_signed_perms(I):
        nf = normal_form(x, "rewrite")
        assert m.contains(LinComb.single(x) - nf)


def test_linearity_and_idempotence():
    assert normal_form_lincomb(h5(sp("[1/23]"))) == LinComb.zero((1, 2, 3))
    assert normal_form_lincomb(LinComb.zero((1, 2))) == LinComb.zero((1, 2))
    alpha = sp("[21]")
    assert normal_form_lincomb(2 * LinComb.single(alpha)) == 2 * LinComb.single(alpha)
    for x in enumerate_signed_perms((1, 2, 3)):
        nf = normal_form(x)
        assert normal_form_lincomb(nf) == nf


def test_caps():
    word = tuple(range(8, 0, -1))
    from bsnakes.core import SignedPermutation
    with pytest.raises(CapExceeded):
        normal_form(SignedPermutation(word), "rewrite")
    with pytest.raises(CapExceeded):
        normal_form(SignedPermutation(word[:6]), "solve")
    with pytest.raises(ValueError):
        normal_form(sp("[21]"), backend="guess")


def test_rewrite_handles_r6():
    # above the solve cap the rewrite backend is the only route; sanity-check
    # a value against the oracle-free invariant nf(x) - x in M via r=5 truncation
    x = sp("[65/-4-3/-2-1]")
    nf = normal_form(x, "rewrite")
    assert nf.all_snakes()
    assert nf


@pytest.mark.parametrize("r,expected_values", [
    (1, {"-1", "1"}),
    (2, {"-1", "1"}),
    (3, {"-1", "1"}),
])
def test_experiment_small(r, expected_values):
    report = coefficient_range_experiment(range(1, r + 1))
    assert report.words == len(list(enumerate_signed_perms(range(1, r + 1))))
    assert set(report.value_counts) == expected_values
    assert report.all_in_unit_range
    assert "all coefficients in {-1,0,1}" in str(report)
    obj = report.to_json()
    assert obj["all_in_unit_range"] is True
    assert obj["words"] == report.words


def test_experiment_cap(monkeypatch):
    with pytest.raises(CapExceeded):
        coefficient_range_experiment(range(1, 7))
    # the experiment's cap reaches the normal forms it computes
    monkeypatch.setattr(normalform, "SOLVE_CAP", 3)
    solved = coefficient_range_experiment(range(1, 5), backend="solve", cap=4)
    assert solved.to_json() == coefficient_range_experiment(range(1, 5), cap=4).to_json()


def test_experiment_r4_all_unit_range():
    report = coefficient_range_experiment(range(1, 5))
    assert report.words == 384
    assert report.all_in_unit_range


def test_rewrite_steps_strictly_decrease():
    # the runtime assertion inside the rewriting engine enforces this on
    # every step; exercise it directly on every canonical non-snake at r = 4
    from bsnakes.core import _is_snake_word
    from bsnakes.normalform import _replacements, _word_lt
    from bsnakes.relations import _canonical_word
    count = 0
    for x in enumerate_signed_perms((1, 2, 3, 4)):
        _, cw = _canonical_word(x.word)
        if _is_snake_word(cw):
            continue
        for _, _, tw in _replacements(cw):
            count += 1
            assert _word_lt(tw, cw)
    assert count > 100


def test_r8_coefficients_beyond_unit(monkeypatch):
    """Every nonzero coefficient is +-1 through r = 7; at r = 8 five words
    have coefficients +-2.  One of them, from a cold memo, and its chain
    identity; the independence of the r = 8 snake cycles is not checked
    here."""
    monkeypatch.setattr(normalform, "_nf_memo", {})
    x = sp("[1-2/-5-7/-3-4/-6-8]")
    nf = normal_form(x, cap=8)
    assert len(nf) == 3657
    assert sorted(c for _, c in nf.items() if abs(c) != 1) == [-2] * 4 + [2] * 4
    assert chain_of_lincomb(nf) == chain_of(x)
