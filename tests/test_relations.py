from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsnakes.core import (SignedPermutation, enumerate_signed_perms,
                          enumerate_snakes, is_snake, parse_sp, springer)
from bsnakes.normalform import normal_form
from bsnakes.oracle import (SimplicialChain, chain_of, hat_complex,
                            solve_in_snake_cycles)
from bsnakes.relations import (LinComb, _instance, _starts, canonicalize,
                               generator_instances, h1, h2, h3, h4, h5,
                               relation_matrix)
from bsnakes.ring import cup_basis


def sp(text):
    return parse_sp(text)


def lc(support, **kw):
    return LinComb(support, {sp(t): c for t, c in kw.items()})


# --- LinComb vector-space behaviour -------------------------------------------

def test_lincomb_basics():
    a = LinComb((1, 2), {sp("[21]"): 1, sp("[12]"): Fraction(1, 2)})
    b = LinComb((1, 2), {sp("[21]"): -1})
    assert (a + b).coefficient(sp("[21]")) == 0
    assert len(a + b) == 1
    assert (a - a) == LinComb.zero((1, 2))
    assert not (a - a)
    assert (2 * a).coefficient(sp("[12]")) == 1
    assert a.scale(0) == LinComb.zero((1, 2))
    # values follow SparseVector's rule: an int when integral, else a Fraction
    p = sp("[12]")
    assert type(LinComb((1, 2), {p: Fraction(4, 2)}).terms[p]) is int
    assert LinComb((1, 2), {p: Fraction(4, 2)}).terms[p] == 2
    assert type(LinComb((1, 2), {p: Fraction(1, 2)}).terms[p]) is Fraction
    assert LinComb((1, 2), {p: Fraction(0)}).terms == {}
    x = sp("[1-4/-2-3]")
    for comb in (normal_form(sp("[1/23]")), cup_basis(sp("[1-4]"), sp("[32]")),
                 solve_in_snake_cycles(chain_of(x), x.support)):
        assert comb and all(type(c) is int for c in comb.terms.values())


def test_lincomb_support_checks():
    with pytest.raises(ValueError):
        LinComb((1, 2), {sp("[31]"): 1})
    with pytest.raises(ValueError):
        LinComb((1, 2), {sp("[21]"): 1}) + LinComb((1, 3), {sp("[31]"): 1})


coeffs = st.integers(-4, 4).map(Fraction)


# Eight basis vectors and the zero vector of each sparse-vector class.
SPACES = {
    "LinComb": lambda: ([LinComb.single(p) for p in enumerate_signed_perms((1, 2))],
                        LinComb.zero((1, 2))),
    "SimplicialChain": lambda: ([SimplicialChain({s: 1})
                                 for s in hat_complex((1, 2, 3)).simplices(1)[:8]],
                                SimplicialChain()),
}


@pytest.mark.parametrize("space", SPACES)
@given(st.lists(st.tuples(st.sampled_from(range(8)), coeffs), max_size=6),
       st.lists(st.tuples(st.sampled_from(range(8)), coeffs), max_size=6),
       coeffs, coeffs)
@settings(max_examples=100, deadline=None)
def test_lincomb_axioms(space, ta, tb, lam, mu):
    basis, zero = SPACES[space]()
    build = lambda ts: sum((c * basis[i] for i, c in ts), zero)
    a, b = build(ta), build(tb)
    assert a + b == b + a
    assert (a + b) - b == a
    assert (lam * (a + b)) == lam * a + lam * b
    assert ((lam + mu) * a) == lam * a + mu * a
    assert 1 * a == a and 0 * a == zero


def test_lincomb_json_round_trip():
    a = lc((2, 3), **{"[32]": 1, "[3-2]": -1})
    obj = a.to_json(snake_basis=True)
    assert obj["snake_basis"] is True
    assert obj["support"] == [2, 3]
    assert {"coeff": "-1", "word": [3, -2]} in obj["terms"]
    assert LinComb.from_json(obj) == a


def test_lincomb_str():
    assert str(LinComb.zero((1,))) == "0"
    assert str(lc((2, 3), **{"[32]": 1, "[3-2]": -1})) == "-[3-2] + [32]"
    assert str(LinComb((1,), {sp("[1]"): Fraction(3, 2)})) == "3/2*[1]"


# --- generator families --------------------------------------------------------

def test_h1_golden():
    c = h1(sp("[1/-43]"), 1)
    assert c == lc((1, 3, 4), **{"[1/-43]": 1, "[1/3-4]": 1})
    assert h1(sp("[21]"), 1) == lc((1, 2), **{"[21]": 1, "[12]": 1})
    with pytest.raises(IndexError):
        h1(sp("[1]"), 1)


def test_h2_golden_shape():
    q = h2(sp("[-4-3/-2-1]"), 1)
    assert len(q) == 6
    assert {int(c) for _, c in q.items()} == {1, -1}
    # the five-term rearrangement: x = T2 - T3 - T4 + T5 - T6
    assert q.coefficient(sp("[-4-3/-2-1]")) == 1
    assert q.coefficient(sp("[-4-2/-3-1]")) == -1
    assert q.coefficient(sp("[-3-2/-4-1]")) == 1
    assert q.coefficient(sp("[-4-1/-3-2]")) == 1
    assert q.coefficient(sp("[-3-1/-4-2]")) == -1
    assert q.coefficient(sp("[-2-1/-4-3]")) == 1
    with pytest.raises(IndexError):
        h2(sp("[21]"), 1)


@pytest.mark.parametrize("r", [4, 5])
@pytest.mark.parametrize("family,length", [
    ("H1", 2), ("H2", 6), ("H3", 2), ("H4", 4), ("H5", 12)])
def test_instances_distinct_unit_and_led_by_x(family, length, r):
    # _replacements solves each instance for its first term, so it needs
    # distinct terms, +-1 coefficients and x itself first at +1
    for x in enumerate_signed_perms(range(1, r + 1)):
        if not _starts(family, r):  # a leading-letter family of other parity
            assert not {"H3": h3, "H4": h4, "H5": h5}[family](x)
        for start in _starts(family, r):
            terms = _instance(x.word, family, start)
            assert len(terms) == length
            assert len({w for w, _ in terms}) == length
            assert all(c in (1, -1) for _, c in terms)
            assert terms[0] == (x.word, 1)


def test_h3_golden():
    assert h3(sp("[1/-43]")) == lc((1, 3, 4), **{"[1/-43]": 1, "[-1/-43]": 1})
    assert h3(sp("[21]")) == LinComb.zero((1, 2))
    assert h3(sp("[]")) == LinComb.zero(())


def test_h4_golden():
    g = h4(sp("[32]"))
    assert g == lc((2, 3), **{"[32]": 1, "[3-2]": -1, "[2-3]": 1, "[-2-3]": -1})
    assert h4(sp("[1/-43]")) == LinComb.zero((1, 3, 4))
    assert h4(sp("[]")) == LinComb.zero(())


def test_h5_golden():
    f = h5(sp("[1/23]"))
    assert len(f) == 12
    assert all(v in (1, -1) for _, v in f.items())
    # solving for the leading term reproduces the 11-term snake expansion
    rest = LinComb.single(sp("[1/23]")) - f
    expected = lc((1, 2, 3), **{
        "[1/-23]": 1, "[1/-32]": -1, "[1/-3-2]": 1, "[2/13]": 1, "[2/-13]": -1,
        "[2/-31]": 1, "[2/-3-1]": -1, "[3/12]": -1, "[3/-12]": 1,
        "[3/-21]": -1, "[3/-2-1]": 1})
    assert rest == expected
    assert h5(sp("[1]")) == LinComb.zero((1,))
    assert h5(sp("[21]")) == LinComb.zero((1, 2))


def test_generator_instances_counts():
    by_family = {}
    for label, comb in generator_instances((1, 2, 3, 4)):
        fam = label.split("^")[0]
        by_family[fam] = by_family.get(fam, 0) + 1
    assert by_family == {"H1": 768, "H2": 384, "H4": 384}
    by_family = {}
    for label, comb in generator_instances((1, 2, 3)):
        fam = label.split("^")[0]
        by_family[fam] = by_family.get(fam, 0) + 1
    assert by_family == {"H1": 48, "H3": 48, "H5": 48}


# --- canonicalization ----------------------------------------------------------

def test_canonicalize_golden():
    assert canonicalize(sp("[12]")) == (-1, sp("[21]"))
    assert canonicalize(sp("[-1/-43]")) == (-1, sp("[1/-43]"))
    assert canonicalize(sp("[-1/3-4]")) == (1, sp("[1/-43]"))


@pytest.mark.parametrize("r", range(6))
def test_canonicalize_fixes_snakes_and_is_idempotent(r):
    for x in enumerate_signed_perms(range(1, r + 1)):
        sign, y = canonicalize(x)
        assert sign in (1, -1)
        assert canonicalize(y) == (1, y)
        if is_snake(x):
            assert (sign, y) == (1, x)


@pytest.mark.parametrize("I", [(1,), (1, 2), (1, 2, 3)])
def test_canonicalize_stays_in_class(I):
    m = relation_matrix(I)
    for x in enumerate_signed_perms(I):
        sign, y = canonicalize(x)
        diff = LinComb.single(x) - LinComb.single(y, sign)
        assert m.contains(diff), (x, sign, y)


# --- relation matrix ------------------------------------------------------------

@pytest.mark.parametrize("I,rank", [
    ((), 0), ((1,), 1), ((1, 2), 5), ((1, 2, 3), 37), ((2, 3, 5), 37),
    ((1, 2, 3, 4), 327),
])
def test_relation_matrix_rank(I, rank):
    m = relation_matrix(I)
    assert m.rank == rank
    r = len(I)
    assert m.rank == 2 ** r * __import__("math").factorial(r) - springer(r)


def test_relation_matrix_columns_order():
    m = relation_matrix((1, 2))
    kinds = [is_snake(SignedPermutation(w)) for w in m.columns]
    assert kinds == sorted(kinds)  # non-snakes first, snakes last
    assert sum(kinds) == m.n_snakes == 3


def test_reduce_golden():
    m = relation_matrix((2, 3))
    nf = m.reduce_to_snakes(LinComb.single(sp("[-2-3]")))
    assert nf == lc((2, 3), **{"[32]": 1, "[3-2]": -1, "[2-3]": 1})


@pytest.mark.parametrize("I", [(1,), (1, 2), (1, 2, 3)])
def test_generators_live_in_row_space(I):
    m = relation_matrix(I)
    for label, comb in generator_instances(I):
        assert m.contains(comb), label
        assert m.reduce_to_snakes(comb) == LinComb.zero(I)


@pytest.mark.parametrize("I", [(1, 2), (1, 2, 3)])
def test_reduction_soundness(I):
    m = relation_matrix(I)
    for x in enumerate_signed_perms(I):
        nf = m.reduce_to_snakes(LinComb.single(x))
        assert nf.all_snakes()
        assert m.contains(LinComb.single(x) - nf)


def test_snake_reduction_is_identity():
    m = relation_matrix((1, 2, 3))
    for alpha in enumerate_snakes((1, 2, 3)):
        assert m.reduce_to_snakes(LinComb.single(alpha)) == LinComb.single(alpha)
