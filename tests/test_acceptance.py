"""Acceptance suite: one test per criterion, one printed line per outcome.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact equality; all arithmetic is rational.
The headline objects (the full cohomology rings at n <= 4) are pinned by
criteria 4-9 together, since everything involved is finite.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from bsnakes.cli import main as cli_main
from bsnakes.core import (SignedPermutation, _words_lex, enumerate_signed_perms,
                          enumerate_snakes, parse_sp, springer)
from bsnakes.normalform import normal_form, normal_form_lincomb
from bsnakes.oracle import (chain_of, chain_of_lincomb,
                            check_join_factorization, full_subcomplex,
                            hat_complex, reduced_betti, solve_in_snake_cycles)
from bsnakes.relations import LinComb, generator_instances, relation_matrix
from bsnakes.ring import betti, cup_basis, graded_basis
from springer_oracle import springer_boustrophedon

A001586 = [1, 1, 3, 11, 57, 361, 2763, 24611]


def sp(text):
    return parse_sp(text)


def lc(support, **kw):
    return LinComb(support, {sp(t): c for t, c in kw.items()})


def subsets(n, max_size=None):
    base = range(1, n + 1)
    for size in range(n + 1 if max_size is None else max_size + 1):
        yield from itertools.combinations(base, size)


@contextmanager
def criterion(num, budget_s, summary):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {summary}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s) - {summary}")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_1_springer_sequence():
    with criterion(1, 10, "snake counts r=0..7 match A001586 and the "
                      "boustrophedon oracle"):
        for r in range(8):
            count = len(enumerate_snakes(range(1, r + 1)))
            assert count == A001586[r]
            assert count == springer_boustrophedon(r)
            assert count == springer(r)


def test_criterion_2_golden_normal_forms(capsys):
    with criterion(2, 1, "golden normal forms (11-term, 3-term, 4-letter "
                      "rearrangement) hold exactly"):
        eleven = {"[1/-23]": 1, "[1/-32]": -1, "[1/-3-2]": 1, "[2/13]": 1,
                  "[2/-13]": -1, "[2/-31]": 1, "[2/-3-1]": -1, "[3/12]": -1,
                  "[3/-12]": 1, "[3/-21]": -1, "[3/-2-1]": 1}
        nf = normal_form(sp("[1/23]"))
        assert {str(p): int(c) for p, c in nf.items()} == eleven

        assert cli_main(["normal-form", "[1/23]"]) == 0
        out = capsys.readouterr().out.strip()
        got = _parse_combination(out)
        assert got == eleven

        assert cli_main(["normal-form", "[-2-3]"]) == 0
        out = capsys.readouterr().out.strip()
        assert _parse_combination(out) == {"[32]": 1, "[3-2]": -1, "[2-3]": 1}

        lhs = normal_form(sp("[-4-3/-2-1]"))
        rhs = normal_form_lincomb(lc((1, 2, 3, 4), **{
            "[-4-2/-3-1]": 1, "[-3-2/-4-1]": -1, "[-4-1/-3-2]": -1,
            "[-3-1/-4-2]": 1, "[-2-1/-4-3]": -1}))
        assert lhs == rhs


def _parse_combination(text):
    """Read the CLI's combination syntax back into {word: coeff}."""
    out = {}
    for chunk in text.replace("- ", "-").replace("+ ", "").split():
        sign = -1 if chunk.startswith("-") else 1
        out[chunk.lstrip("-")] = sign
    return out


def test_criterion_3_golden_products():
    with criterion(3, 5, "the three golden cup products hold term-for-term and "
                      "sign-for-sign"):
        assert cup_basis(sp("[1-4]"), sp("[32]")) == lc(
            (1, 2, 3, 4), **{"[1-4/32]": -1, "[1-4/-2-3]": -1})
        assert cup_basis(sp("[41]"), sp("[3-2]")) == lc(
            (1, 2, 3, 4), **{"[41/3-2]": -1, "[3-2/41]": 1, "[3-2/-1-4]": 1})
        assert cup_basis(sp("[51]"), sp("[2/-4-3]")) == lc(
            (1, 2, 3, 4, 5), **{"[2/15/-4-3]": -1, "[2/-5-1/-4-3]": -1,
                                "[2/15/34]": -1, "[2/-4-3/-5-1]": 1})


def test_criterion_4_quotient_dimension():
    with criterion(4, 300, "rank of the relation matrix is 2^r*r! - b_r for all "
                      "|I| <= 4 plus the r = 5 spot check"):
        import math
        for I in subsets(4):
            r = len(I)
            assert relation_matrix(I).rank == 2 ** r * math.factorial(r) - springer(r)
        assert relation_matrix((1, 2, 3, 4, 5)).rank == 3840 - 361


def test_criterion_5_oracle_homology():
    with criterion(5, 120, "hat-complex homology is b_r on top and 0 below for "
                      "|I| <= 5; full subcomplexes agree for J within [3]"):
        for I in subsets(5):
            c = hat_complex(I)
            top = (len(I) - 1) // 2 if I else -1
            assert reduced_betti(c, top) == springer(len(I)), I
            for k in range(0, top):
                assert reduced_betti(c, k) == 0, (I, k)
        for J in subsets(3):
            full = full_subcomplex(3, J)
            hat = hat_complex(J)
            for k in range(-1, 3):
                assert reduced_betti(full, k) == reduced_betti(hat, k), (J, k)


def test_criterion_6_chain_level_vanishing():
    with criterion(6, 300, "every H1..H5 instance realizes to the literal zero "
                      "chain for all |I| <= 5"):
        total = 0
        for I in subsets(5):
            if not I:
                continue
            for label, comb in generator_instances(I):
                total += 1
                assert not chain_of_lincomb(comb), (I, label)
        assert total == 28490  # audit of the sweep size


def test_criterion_7_triple_agreement():
    with criterion(7, 600, "rewrite = solve = oracle cycle-solve on every word "
                      "with |I| <= 4 and on 1000 random words at r = 5"):
        for I in subsets(4):
            for x in enumerate_signed_perms(I):
                nf = normal_form(x, "rewrite")
                assert nf == normal_form(x, "solve"), x
                assert nf == solve_in_snake_cycles(chain_of(x), I), x
        I5 = (1, 2, 3, 4, 5)
        words = list(_words_lex(frozenset(I5)))
        rng = random.Random(20240601)
        for w in rng.sample(words, 1000):
            x = SignedPermutation(w)
            nf = normal_form(x, "rewrite")
            assert nf == normal_form(x, "solve"), x
            assert nf == solve_in_snake_cycles(chain_of(x), I5), x


def test_criterion_8_join_factorization():
    with criterion(8, 120, "join images match the closed form on every snake and "
                      "every valid split with |I1 u I2| <= 4"):
        result = check_join_factorization(4)
        assert result.instances == 853  # audit of the sweep size
        assert result.passed, result.failures[:3]


def test_criterion_9_ring_axioms():
    with criterion(9, 600, "unit laws, graded sign rule, associativity, Betti "
                      "tables with dimension audit, and vanishing Euler "
                      "characteristics"):
        deg = lambda sup: (len(sup) + 1) // 2

        # unit laws over the whole n = 4 basis
        unit = sp("[]")
        for alpha in graded_basis(4):
            assert cup_basis(unit, alpha) == LinComb.single(alpha)
            assert cup_basis(alpha, unit) == LinComb.single(alpha)

        # graded commutativity on disjoint even-product pairs, union <= 5;
        # overlapping or odd*odd pairs vanish on both sides (checked too)
        for i1 in subsets(5):
            rest = [j for j in range(1, 6) if j not in i1]
            for size in range(len(rest) + 1):
                for i2 in itertools.combinations(rest, size):
                    disjoint_even = (len(i1) * len(i2)) % 2 == 0
                    for a in enumerate_snakes(i1):
                        for b in enumerate_snakes(i2):
                            sign = (-1) ** (deg(i1) * deg(i2))
                            left = cup_basis(a, b)
                            right = cup_basis(b, a).scale(sign)
                            assert left == right, (a, b)
                            if not disjoint_even:
                                assert not left

        # associativity over every basis triple inside [4]; each b * c is
        # computed once, not once per a
        basis = graded_basis(4)
        right_of = {b: [cup_basis(b, c) for c in basis] for b in basis}
        checked = 0
        for a in basis:
            for b in basis:
                ab = cup_basis(a, b)
                for c, bc in zip(basis, right_of[b]):
                    if not ab and not bc:
                        continue  # both sides are zero products
                    sym = tuple(sorted(set(a.support) ^ set(b.support)
                                       ^ set(c.support)))
                    left = LinComb.zero(sym)
                    for z, coeff in ab.items():
                        left = left + cup_basis(z, c).scale(coeff)
                    right = LinComb.zero(sym)
                    for w, coeff in bc.items():
                        right = right + cup_basis(a, w).scale(coeff)
                    assert left == right, (a, b, c)
                    checked += 1
        assert checked > 10000

        # Betti tables: formula vs the basis-dimension audit
        for n in range(6):
            dims = {}
            for I in subsets(n):
                dims[deg(I)] = dims.get(deg(I), 0) + springer(len(I))
            for k in range(n + 1):
                assert betti(n, k) == dims.get(k, 0), (n, k)

        # compact odd-dimensional manifolds have vanishing Euler characteristic
        for n in (1, 3, 5, 7):
            assert sum((-1) ** k * betti(n, k) for k in range(n + 1)) == 0
