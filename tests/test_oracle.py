import itertools
import random
from fractions import Fraction

import pytest

from bsnakes import oracle, ring
from bsnakes.core import (CapExceeded, SignedPermutation, _springer,
                          enumerate_signed_perms, enumerate_snakes, parse_sp,
                          springer, star)
from bsnakes.linalg import SparseVector
from bsnakes.normalform import normal_form
from bsnakes.oracle import (CheckResult, JoinChain,
                            NestedChainComplex, SimplicialChain,
                            _cycle_solver, _hat_complex, _subsets,
                            _TopCycleSolver, boundary_matrix, chain_of,
                            chain_of_lincomb, check_betti_identity,
                            check_cup_against_topology,
                            check_relations_vanish, full_subcomplex,
                            hat_complex, join_chains, join_closed_form,
                            join_image, reduced_betti, retract_pi,
                            solve_in_snake_cycles, verify_suite)
from bsnakes.relations import (ConventionError, LinComb, generator_instances,
                               relation_matrix)


def sp(text):
    return parse_sp(text)


def fs(*members):
    return frozenset(members)


# --- complexes -----------------------------------------------------------------

def test_hat_small():
    c1 = hat_complex((1,))
    assert [sorted(v) for v in c1.vertices] == [[-1], [1]]
    assert c1.dim == 0 and c1.n_simplices(1) == 0

    c2 = hat_complex((1, 2))
    assert len(c2.vertices) == 4
    assert c2.n_simplices(1) == 0  # only odd sizes fit, so no edges

    c3 = hat_complex((1, 2, 3))
    assert len(c3.vertices) == 14
    assert c3.n_simplices(1) == 24
    assert boundary_matrix(c3, 1).shape == (14, 24)
    assert boundary_matrix(c3, 1).rank() == 13  # connected graph


def test_hat_r5_cell_counts():
    c5 = hat_complex((1, 2, 3, 4, 5))
    counts = [c5.n_simplices(k) for k in range(3)]
    assert counts == [122, 720, 960]
    # Euler characteristic of the wedge: -1 + 122 - 720 + 960 = 361
    assert -1 + counts[0] - counts[1] + counts[2] == springer(5)


def test_hat_cap():
    with pytest.raises(CapExceeded):
        hat_complex((1, 2, 3, 4, 5, 6))


def test_hat_complex_built_once_per_support():
    assert hat_complex((1, 2)) is hat_complex([2, 1], 6)
    with pytest.raises(CapExceeded):
        hat_complex((1, 2, 3), 2)


def test_builders_are_cached_by_what_they_build():
    # the cap is checked where the caller enters, never part of a cache key
    chain = chain_of(sp("[3/-58]"))
    misses = _cycle_solver.cache_info().misses
    for cap in (5, 6):
        solve_in_snake_cycles(chain, (3, 5, 8), cap=cap)
    assert _cycle_solver.cache_info().misses - misses <= 1
    with pytest.raises(CapExceeded):
        solve_in_snake_cycles(chain, (3, 5, 8), cap=2)
    assert relation_matrix((2, 4, 6)) is relation_matrix([6, 4, 2], 6)
    assert full_subcomplex(3, [1]) is full_subcomplex(3, (1,), 4)
    with pytest.raises(CapExceeded):
        full_subcomplex(3, [1], 2)
    _springer.cache_clear()
    assert springer(7) == springer(7, 8)
    assert _springer.cache_info().misses == 1


def test_empty_complex():
    c = hat_complex(())
    assert c.dim == -1
    assert reduced_betti(c, -1) == 1 == springer(0)
    assert reduced_betti(c, 0) == 0


@pytest.mark.parametrize("I,top,value", [
    ((1, 2), 0, 3),
    ((1, 2, 3), 1, 11),
    ((1, 2, 3, 4), 1, 57),
    ((2, 3, 5), 1, 11),
])
def test_reduced_betti_hat(I, top, value):
    c = hat_complex(I)
    assert reduced_betti(c, top) == value == springer(len(I))
    for k in range(top):
        assert reduced_betti(c, k) == 0


def test_fullsub_example_two_cones():
    c = full_subcomplex(3, (1,))
    assert len(c.vertices) == 18
    assert c.dim == 2
    assert fs(1) in c.vertices and fs(-1) in c.vertices
    # two contractible cone components
    assert reduced_betti(c, 0) == 1
    assert reduced_betti(c, 1) == 0
    assert reduced_betti(c, 2) == 0


def test_fullsub_full_set_equals_hat():
    full = full_subcomplex(3, (1, 2, 3))
    hat = hat_complex((1, 2, 3))
    assert set(full.vertices) == set(hat.vertices)


def test_fullsub_empty_J():
    c = full_subcomplex(3, ())
    assert not c.vertices
    assert reduced_betti(c, -1) == 1


@pytest.mark.parametrize("J", [(), (1,), (2,), (1, 2), (1, 3), (2, 3),
                               (1, 2, 3)])
def test_prop_2_2_betti_agreement(J):
    full = full_subcomplex(3, J)
    hat = hat_complex(J)
    for k in range(-1, 3):
        assert reduced_betti(full, k) == reduced_betti(hat, k)


def test_boundary_squared_zero():
    for c in [hat_complex((1, 2, 3)), hat_complex((1, 2, 3, 4)),
              full_subcomplex(3, (1,)), full_subcomplex(2, (1, 2))]:
        for k in range(c.dim + 1):
            for sigma in c.simplices(k):
                chain = SimplicialChain({sigma: Fraction(1)})
                assert not chain.boundary().boundary()


def test_retract_pi():
    assert retract_pi((fs(1, 2, 3),), (1,)) == (fs(1),)
    # identity on hat simplices
    c3 = hat_complex((1, 2, 3))
    for sigma in c3.simplices(1):
        assert retract_pi(sigma, (1, 2, 3)) == sigma
    # cone simplices of the fullsub component collapse onto the hat point
    comp = full_subcomplex(3, (1,))
    for sigma in comp.simplices(0):
        assert retract_pi(sigma, (1,)) in ((fs(1),), (fs(-1),))
    for sigma in comp.simplices(1):
        assert retract_pi(sigma, (1,)) is None  # degenerate: both map to a point


# --- chain realization ------------------------------------------------------------

def test_chain_of_four_term_golden():
    ch = chain_of(sp("[1/-43]"))
    assert ch.terms == {
        (fs(3), fs(3, -4, 1)): 1, (fs(3), fs(3, -4, -1)): -1,
        (fs(-4), fs(3, -4, 1)): -1, (fs(-4), fs(3, -4, -1)): 1,
    }
    ch2 = chain_of(sp("[1-4/32]"))
    assert ch2.terms == {
        (fs(-2), fs(-2, -3, 4)): 1, (fs(-2), fs(-2, -3, -1)): -1,
        (fs(-3), fs(-2, -3, 4)): -1, (fs(-3), fs(-2, -3, -1)): 1,
    }


def test_chain_of_rank_one():
    assert chain_of(sp("[5]")).terms == {(fs(5),): 1, (fs(-5),): -1}
    assert chain_of(sp("[]")).terms == {(): 1}


@pytest.mark.parametrize("I", [(1, 2), (1, 2, 3), (1, 3, 4), (1, 2, 3, 4)])
def test_chain_of_star_sign(I):
    k = (len(I) + 1) // 2
    for x in enumerate_signed_perms(I):
        assert chain_of(star(x)) == chain_of(x).scale((-1) ** k)


@pytest.mark.parametrize("I", [(1, 2), (1, 2, 3), (1, 2, 3, 4)])
def test_chain_of_is_top_cycle_in_hat(I):
    c = hat_complex(I)
    top = c.simplex_index(c.dim)
    for x in enumerate_signed_perms(I):
        ch = chain_of(x)
        assert len(ch.terms) == 2 ** ((len(I) + 1) // 2)
        assert all(sigma in top for sigma in ch.terms)
        assert not ch.boundary()


@pytest.mark.parametrize("I", [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)])
def test_relations_vanish_at_chain_level(I):
    for label, comb in generator_instances(I):
        assert not chain_of_lincomb(comb), (I, label)


def test_relations_vanish_realizes_each_word_once_per_support(monkeypatch):
    words = {perm for I in _subsets(4) if I
             for _, comb in generator_instances(I) for perm in comb.terms}
    calls = []

    def counted(x, real=chain_of):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(oracle, "chain_of", counted)
    res = check_relations_vanish(4)
    assert res.passed and res.instances == 2216
    assert len(calls) == len(set(calls)) == len(words) == 632
    assert set(calls) == words


@pytest.mark.parametrize("I", [(1,), (1, 2), (1, 2, 3), (2, 3, 5),
                               (1, 2, 3, 4)])
def test_face_condition_forces_order(I):
    # if the simplex {F_1(x), ..., F_k(x)} is a face of the cross-polytope
    # boundary of y, then x = y or x comes strictly below y in the
    # comparison order; this is what makes the snake cycles triangular
    from bsnakes.core import f_set, order_lt
    snakes = enumerate_snakes(I)
    k = (len(I) + 1) // 2
    hits = 0
    for y in snakes:
        sy = star(y)
        levels = [{f_set(y, i), f_set(sy, i)} for i in range(1, k + 1)]
        for x in snakes:
            if all(f_set(x, i) in levels[i - 1] for i in range(1, k + 1)):
                hits += 1
                assert x == y or order_lt(x, y), (x, y)
    assert hits >= len(snakes)  # at least the diagonal


# --- cycle solve -------------------------------------------------------------------

def test_solve_reproduces_eleven_term_expansion():
    sol = solve_in_snake_cycles(chain_of(sp("[1/23]")), (1, 2, 3))
    assert sol == normal_form(sp("[1/23]"))


def test_solve_identity_on_snakes():
    for alpha in enumerate_snakes((1, 2, 3)):
        sol = solve_in_snake_cycles(chain_of(alpha), (1, 2, 3))
        assert sol == LinComb.single(alpha)


@pytest.mark.parametrize("I", [(1,), (1, 2), (2, 3), (1, 2, 3), (1, 3, 4)])
def test_solve_matches_normal_form(I):
    for x in enumerate_signed_perms(I):
        assert solve_in_snake_cycles(chain_of(x), I) == normal_form(x)


def test_solve_matches_normal_form_past_five_letters():
    # every permutation of a 6-set once, the j-th signed by the bits of
    # j mod 64, so that every sign pattern occurs 11 or 12 times
    S = (2, 3, 5, 7, 8, 9)
    for j, perm in enumerate(itertools.permutations(S)):
        x = SignedPermutation(tuple(-m if (j % 64) >> k & 1 else m
                                    for k, m in enumerate(perm)))
        assert solve_in_snake_cycles(chain_of(x), S, cap=6) == normal_form(x), x


def test_solve_rejects_foreign_simplices():
    with pytest.raises(ValueError):
        solve_in_snake_cycles(chain_of(sp("[21]")), (1, 2, 3))


def test_vector_equality_is_per_class():
    assert LinComb.zero(()) != SimplicialChain()
    assert SimplicialChain() != JoinChain()


def test_solve_rejects_chains_outside_the_snake_cycle_span():
    top = hat_complex((1, 2, 3)).simplices(1)[0]
    with pytest.raises(ConventionError, match=r"\(1, 2, 3\)"):
        solve_in_snake_cycles(SimplicialChain({top: 1}), (1, 2, 3))
    with pytest.raises(ValueError):
        solve_in_snake_cycles(SimplicialChain({top[:1]: 1}), (1, 2, 3))


@pytest.mark.parametrize("I", [(1, 3, 4, 6), (2, 3, 5, 6, 9)])
def test_solve_round_trips_combinations_of_snake_cycles(I):
    rng = random.Random(len(I))
    snakes = enumerate_snakes(I)
    for size in (1, 2, 5, len(snakes) // 2, len(snakes)):
        want = {alpha: rng.choice((-3, -2, -1, 1, 2, 3))
                for alpha in rng.sample(snakes, size)}
        chain = SimplicialChain(SparseVector.combine(
            (c, chain_of(alpha).terms) for alpha, c in want.items()))
        assert solve_in_snake_cycles(chain, I) == LinComb(I, want)


def test_peel_rejects_dependent_snake_cycles(monkeypatch):
    I = (1, 2, 3, 4)
    snakes = enumerate_snakes(I)
    monkeypatch.setattr(oracle, "enumerate_snakes", lambda sup: snakes + snakes[5:6])
    with pytest.raises(ConventionError, match=r"hat\(1, 2, 3, 4\).* not independent"):
        _TopCycleSolver(I)


def test_peel_rejects_pivot_entries_other_than_one(monkeypatch):
    monkeypatch.setattr(oracle, "chain_of", lambda x, real=chain_of: real(x).scale(2))
    with pytest.raises(ConventionError, match=r"hat\(1, 2, 3\).* pivot entry 2"):
        _TopCycleSolver((1, 2, 3))


def test_solve_rejects_non_top_simplices_without_the_hat_complex():
    _hat_complex.cache_clear()
    I = (2, 4, 5, 7)
    x = sp("[2-4/75]")
    assert solve_in_snake_cycles(chain_of(x), I) == normal_form(x)
    top = next(iter(chain_of(x).terms))
    for bad in [top[:1], top + (fs(2, 4, 5, 7, -1),), (fs(2), fs(2, 4)),
                (fs(2), fs(-2, 4, 5)), (fs(2), fs(2, -2, 4)), (fs(2), fs(2, 4, 3)),
                (fs(4), fs(2, 5, 7)), (fs(2), (2, 4, 5)), "x"]:
        with pytest.raises(ValueError):
            solve_in_snake_cycles(SimplicialChain({top: 1, bad: 1}), I)
    assert _hat_complex.cache_info().currsize == 0
    # the check from the simplex alone agrees with the complex
    for J in [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)]:
        solver = _TopCycleSolver(J)
        c = hat_complex(J)
        assert all(solver._is_top(s) for s in c.simplices(c.dim))
        assert not any(solver._is_top(s) for k in range(-1, c.dim)
                       for s in c.simplices(k))


def test_cup_referee_flags_perturbed_products(monkeypatch):
    clean = check_cup_against_topology(4)
    assert clean.passed
    # a wrong sign rule: every crossing count read as zero
    monkeypatch.setattr(ring, "_kappa_word", lambda w, side: 0)
    kappa_mutant = check_cup_against_topology(4)
    assert not kappa_mutant.passed
    assert kappa_mutant.instances == clean.instances
    monkeypatch.undo()
    # one coefficient of one split table negated: exactly that z is flagged
    cup_split = ring._cup_split
    flipped = []

    def one_flipped(i1, i2, *rest):
        table = cup_split(i1, i2, *rest)
        if (tuple(i1), tuple(i2)) == ((1, 2), (3, 4)):
            products = table[min(table)]
            z = min(products)
            products[z] = -products[z]
            flipped.append(z)
        return table

    monkeypatch.setattr(ring, "_cup_split", one_flipped)
    res = check_cup_against_topology(4)
    assert res.failures == [{"I1": [1, 2], "I2": [3, 4],
                             "z": str(SignedPermutation(flipped[0]))}]
    assert res.instances == clean.instances


def test_chains_hold_int_values():
    x = sp("[1/-32]")
    top = next(iter(chain_of(x).terms))
    for chain in (chain_of(x), SimplicialChain({top: 1}).boundary(),
                  join_image(sp("[1-4/32]"), (1, 4), (2, 3)),
                  chain_of_lincomb(LinComb.single(x, Fraction(3)))):
        assert chain and all(type(c) is int for c in chain.terms.values())
    # integral values are stored as ints, the rest stay exact Fractions
    assert SimplicialChain({top: Fraction(4, 2)}).terms == {top: 2}
    assert type(SimplicialChain({top: Fraction(4, 2)}).terms[top]) is int
    half = SimplicialChain({top: 0.5}).terms[top]
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert SimplicialChain({top: 1}).scale(Fraction(1, 2)).terms == {top: half}


# --- joins -------------------------------------------------------------------------

def test_join_image_golden_examples():
    # splits whose single odd-position crossing flips the sign
    z = sp("[1-4/32]")
    assert join_image(z, (1, 4), (2, 3)) == join_chains(
        chain_of(sp("[1-4]")), chain_of(sp("[32]"))).scale(-1)
    assert not join_image(sp("[1-3/42]"), (1, 4), (2, 3))
    z2 = sp("[2/15/-4-3]")
    assert join_image(z2, (1, 5), (2, 3, 4)) == join_chains(
        chain_of(sp("[-1-5]")), chain_of(sp("[2/-4-3]"))).scale(-1)


def test_join_image_validation():
    with pytest.raises(ValueError):
        join_image(sp("[21]"), (1,), (1, 2))
    with pytest.raises(ValueError):
        join_image(sp("[21]"), (1,), (3,))


@pytest.mark.parametrize("split", [
    ((1, 2), ()), ((), (1, 2)), ((1,), (2, 3)), ((2, 3), (1,)),
    ((1, 4), (2, 3)), ((1, 2), (3, 4)), ((2, 4), (1, 3)),
    ((1, 2, 3, 4), ()),
])
def test_join_image_matches_closed_form(split):
    i1, i2 = split
    union = tuple(sorted(set(i1) | set(i2)))
    for z in enumerate_snakes(union):
        assert join_image(z, i1, i2) == join_closed_form(z, i1, i2), z


# --- verification driver -------------------------------------------------------------

def test_verify_suite_n2_trivially_passes():
    results = verify_suite(2)
    assert all(r.passed for r in results)
    names = {r.check for r in results}
    assert names == {"betti-identity", "retraction-equivalence", "relations-vanish", "snake-cycle-basis",
                     "normal-form-agreement", "join-factorization", "cup-topology"}


def test_verify_suite_n3_passes():
    results = verify_suite(3)
    for r in results:
        assert r.passed, (r.check, r.failures[:3])
        assert r.instances > 0


def test_verify_suite_n4_passes():
    # includes the four-letter rearrangement sweep over all 4-subsets and
    # the cup-vs-topology agreement at |I1 u I2| <= 4
    results = verify_suite(4)
    for r in results:
        assert r.passed, (r.check, r.failures[:3])


def test_join_spot_check_size_5():
    i1, i2 = (1, 5), (2, 3, 4)
    for z in enumerate_snakes((1, 2, 3, 4, 5)):
        assert join_image(z, i1, i2) == join_closed_form(z, i1, i2), z


def test_complex_json_export():
    c = hat_complex((1, 2))
    obj = c.to_json()
    assert obj["vertices"] == [[-2], [-1], [1], [2]]
    assert obj["simplices"] == {"0": [[0], [1], [2], [3]]}
    c3 = hat_complex((1, 2, 3))
    obj3 = c3.to_json()
    assert len(obj3["simplices"]["1"]) == 24
    assert all(a < b for a, b in obj3["simplices"]["1"])


def test_verify_suite_filter_and_cap():
    results = verify_suite(3, only=["join-factorization"])
    assert [r.check for r in results] == ["join-factorization"]
    with pytest.raises(CapExceeded):
        verify_suite(5)


def test_verify_suite_rejects_unknown_checks():
    # otherwise all(r.passed for r in ...) would hold with nothing checked
    with pytest.raises(ValueError, match=r"unknown checks \['cup'\]; known: betti-identity, "):
        verify_suite(3, only=["cup", "join-factorization"])


def test_check_result_reporting():
    res = CheckResult("demo")
    assert res.passed
    res.record({"bad": 1})
    assert not res.passed
    assert res.to_json() == {"check": "demo", "instances": 0,
                             "failures": [{"bad": 1}]}
    for i in range(2, 26):
        res.record({"bad": i})
    assert res.failures == ([{"bad": i} for i in range(1, 21)]
                            + ["... more failures suppressed"])
