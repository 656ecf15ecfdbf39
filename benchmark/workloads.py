"""The four workloads: their inputs, their ops and the checks on the outputs.

Every workload draws its inputs from a ``random.Random`` seeded by
(workload, run seed, round); the program sees only the words built here.
The supports are relabelled: a workload on [r] runs on a seeded r-subset
of [9] under the order-preserving map, which changes the words the
program sees and none of the work (normal forms and products are
equivariant under order-preserving relabelling).  Where a seeded draw
moved the work itself enough to widen the run-to-run spread, that part
is fixed instead: see ``op_order``, ``sample_round`` and ``oracle_round``.

The checks are untimed.  They use this module's own snake, restriction
and crossing-count code, or a second route through the program (the
simplicial oracle, the ring axioms), never stored output.  A failed check
marks the op whose output it read as failed.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from dataclasses import dataclass
from typing import Callable

from stats import Tally

MAX_LABEL = 9


# --- independent combinatorics ----------------------------------------------

def is_snake_word(w: tuple[int, ...]) -> bool:
    """0 < w[0] > w[1] < w[2] > ... (words are stored leftmost-first)."""
    if not w:
        return True
    if w[0] <= 0:
        return False
    return all((w[j] > w[j + 1]) if j % 2 == 0 else (w[j] < w[j + 1])
               for j in range(len(w) - 1))


def snake_words(mags: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every snake on the given magnitudes, by a pruned search."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], rest: frozenset[int]) -> None:
        if not rest:
            out.append(prefix)
            return
        last, want_lower = prefix[-1], len(prefix) % 2 == 1
        for m in rest:
            for v in (m, -m):
                if (v < last) if want_lower else (v > last):
                    grow(prefix + (v,), rest - {m})

    if not mags:
        return [()]
    for m in mags:
        grow((m,), frozenset(mags) - {m})
    return sorted(out)


def signed_words(mags: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All 2^r r! signed permutations of the magnitudes."""
    return [tuple(s * m for s, m in zip(signs, perm))
            for perm in itertools.permutations(mags)
            for signs in itertools.product((1, -1), repeat=len(mags))]


def signed_word(mags: tuple[int, ...], index: int) -> tuple[int, ...]:
    """``signed_words(mags)[index]``, without building the list: the
    permutation's rank in lexicographic order, then one sign bit per letter
    (the last letter's lowest)."""
    r = len(mags)
    rank, signs = divmod(index, 2 ** r)
    rest, word = list(mags), []
    for k in range(r):
        digit, rank = divmod(rank, math.factorial(r - 1 - k))
        m = rest.pop(digit)
        word.append(-m if signs >> (r - 1 - k) & 1 else m)
    return tuple(word)


def support_of(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(abs(v) for v in w))


def restrictable(w: tuple[int, ...], i1: frozenset[int]) -> bool:
    """Each complete block x_{2i-1} x_{2i} below the leading remainder has
    both letters on the same side of the split."""
    r = len(w)
    return all((abs(w[r - 2 * i + 1]) in i1) == (abs(w[r - 2 * i]) in i1)
               for i in range(1, (r - 1) // 2 + 1))


def crossings(w: tuple[int, ...], i1: frozenset[int]) -> int:
    """Pairs of odd-position letters x_{2i-1} in I1, x_{2j-1} in I2, i > j."""
    r, count, second = len(w), 0, 0
    for i in range(1, (r + 1) // 2 + 1):
        if abs(w[r - 2 * i + 1]) in i1:
            count += second
        else:
            second += 1
    return count


def restrict(w: tuple[int, ...], part: tuple[int, ...]) -> tuple[int, ...]:
    """Parity-corrected restriction: the subword on part, of the negated
    word when |w| + |part| is odd."""
    sign = -1 if (len(w) + len(part)) % 2 else 1
    keep = set(part)
    return tuple(sign * v for v in w if abs(v) in keep)


def degree(support: tuple[int, ...]) -> int:
    return (len(support) + 1) // 2


def relabel(rng: random.Random, r: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1, MAX_LABEL + 1), r)))


def op_order() -> random.Random:
    """The generator that orders a memoising workload's ops, the same for
    every seed and round.  With a memo, the order decides which ops pay
    for cold normal forms and where collector pauses fall: a seeded order
    doubled the spread of cup-table's p99, and an order per round index
    moved nf-sweep's p99.9 with the number of rounds a run made."""
    return random.Random("order:0")


# --- workload framework -----------------------------------------------------

@dataclass
class Round:
    """One round's inputs plus the state its checks need."""

    inputs: list                       # one entry per op
    make: Callable                     # input -> op argument(s), untimed
    context: dict                      # "keep": op indices whose outputs to store


@dataclass
class Workload:
    name: str
    min_rounds: int                    # a run does at least this many rounds
    round_ops: int                     # ops per round (fixed)
    build_round: Callable              # (bs, rng, round index) -> Round
    setup: Callable                    # (bs, rnd) -> None, timed as set-up
    op: Callable                       # (bs, arg) -> output, timed
    inline_check: Callable             # (bs, arg, out, rnd) -> str | None
    keep_output: bool                  # store every output for the post checks
    post_check: Callable               # (bs, rnd, outputs, rng, tally, deep)
    replicas: int = 1                  # processes per round; an op's time is their least
    # Set-up samples per run (one per process, topped up by set-up-only
    # workers); setup_s is their median.  An import-only set-up (about
    # 50 ms, a set-up-only worker costs about 0.3 s) takes 11: a few of
    # its samples read half or twice the median when the machine changes
    # speed between the import and the kernel runs around it.
    setup_samples: int = 11


def no_setup(bs, rnd: Round) -> None:
    return None


def lincomb_terms(comb) -> list[tuple[tuple[int, ...], object]]:
    return [(perm.word, c) for perm, c in comb.items()]


def terms_are_snakes_on(comb, support: tuple[int, ...]) -> str | None:
    if tuple(comb.support) != support:
        return f"support {comb.support} is not {support}"
    for w, c in lincomb_terms(comb):
        if not c:
            return f"zero coefficient stored for {w}"
        if not is_snake_word(w) or support_of(w) != support:
            return f"term {w} is not a snake on {support}"
    return None


# --- nf-sweep ----------------------------------------------------------------

NF_R = 6
NF_INSTANCE_WORDS = 12     # seeded words whose H1..H5 instances are checked
NF_ORACLE_SAMPLE = 24      # seeded words checked against the oracle (deep)


def nf_round(bs, rng: random.Random, index: int) -> Round:
    """The ops are held as an array of word indices (see ``signed_word``)
    and decoded one at a time, untimed, so that the round's inputs add
    little to the worker's peak RSS next to the memo."""
    sup = relabel(rng, NF_R)
    order = list(range(2 ** NF_R * math.factorial(NF_R)))
    op_order().shuffle(order)
    keep = set(rng.sample(range(len(order)), NF_ORACLE_SAMPLE))
    return Round(array("l", order), lambda i: bs.SignedPermutation(signed_word(sup, i)),
                 {"support": sup, "keep": keep})


def nf_op(bs, x):
    return bs.normal_form(x)


def nf_inline(bs, x, out, rnd: Round) -> str | None:
    bad = terms_are_snakes_on(out, rnd.context["support"])
    if bad is None and is_snake_word(x.word) and lincomb_terms(out) != [(x.word, 1)]:
        bad = f"snake {x.word} is not its own normal form"
    return bad


def nf_post(bs, rnd: Round, outputs: dict, rng: random.Random, tally: Tally,
            deep: bool) -> None:
    sup = rnd.context["support"]
    op_of: dict[tuple[int, ...], int] = {}
    r = len(sup)
    for op in rng.sample(range(len(rnd.inputs)), NF_INSTANCE_WORDS):
        w = signed_word(sup, rnd.inputs[op])
        with tally.guard([op], f"relation instances through {w}"):
            x = bs.SignedPermutation(w)
            instances = ([bs.h1(x, i) for i in range(1, r // 2 + 1)]
                         + [bs.h2(x, i) for i in range(1, r // 2)]
                         + [bs.h3(x), bs.h4(x), bs.h5(x)])
            for inst in instances:
                if bs.normal_form_lincomb(inst):
                    op_of = op_of or {signed_word(sup, c): i
                                      for i, c in enumerate(rnd.inputs)}
                    for tw, _ in lincomb_terms(inst):
                        tally.fail(op_of[tw], f"relation instance through {w} "
                                              "has a nonzero normal form")
    if deep:
        for i, out in outputs.items():
            with tally.guard([i], "oracle check"):
                x = bs.SignedPermutation(signed_word(sup, rnd.inputs[i]))
                oracle = bs.solve_in_snake_cycles(bs.chain_of(x), sup, cap=NF_R)
                tally.check(oracle == out, i, "rewrite and oracle disagree")


# --- cup-table ---------------------------------------------------------------

TABLE_N = 5
TABLE_TRIPLES = 40


def splits(union: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Ordered (I1, I2), both nonempty, union exactly ``union``, |I1||I2| even."""
    out = []
    for k in range(1, len(union)):
        for i1 in itertools.combinations(union, k):
            i2 = tuple(m for m in union if m not in i1)
            if (len(i1) * len(i2)) % 2 == 0:
                out.append((i1, i2))
    return out


def table_round(bs, rng: random.Random, index: int) -> Round:
    U = relabel(rng, TABLE_N)
    pairs = [(a, b) for i1, i2 in splits(U)
             for a in snake_words(i1) for b in snake_words(i2)]
    op_order().shuffle(pairs)
    return Round(pairs, lambda p: (bs.SignedPermutation(p[0]), bs.SignedPermutation(p[1])),
                 {"union": U})


def cup_op(bs, pair):
    return bs.cup_basis(*pair)


def table_inline(bs, pair, out, rnd: Round) -> str | None:
    return terms_are_snakes_on(out, rnd.context["union"])


def table_post(bs, rnd: Round, outputs: dict, rng: random.Random, tally: Tally,
               deep: bool) -> None:
    U = rnd.context["union"]
    op_of = {p: i for i, p in enumerate(rnd.inputs)}
    for i, (a, b) in enumerate(rnd.inputs):
        j = op_of[(b, a)]
        if i in outputs and j in outputs:
            sign = (-1) ** (degree(support_of(a)) * degree(support_of(b)))
            with tally.guard([i], "graded commutativity"):
                tally.check(outputs[j] == outputs[i].scale(sign), i,
                            "graded commutativity fails")
    # Associativity on seeded triples of basis snakes whose supports split U
    # with sizes a permutation of (1, 2, 2): the only size patterns for
    # which neither bracketing vanishes for parity reasons.
    n = U[-1]
    for _ in range(TABLE_TRIPLES):
        sizes = rng.choice([(1, 2, 2), (2, 1, 2), (2, 2, 1)])
        rest = list(U)
        rng.shuffle(rest)
        parts = [tuple(sorted(rest[:sizes[0]])),
                 tuple(sorted(rest[sizes[0]:sizes[0] + sizes[1]])),
                 tuple(sorted(rest[sizes[0] + sizes[1]:]))]
        a, b, c = (rng.choice(snake_words(p)) for p in parts)
        # The table ops either bracketing can read: (g, c) and (a, d).
        readable = ([op_of[(g, c)] for g in snake_words(tuple(sorted(parts[0] + parts[1])))]
                    + [op_of[(a, d)] for d in snake_words(tuple(sorted(parts[1] + parts[2])))])
        with tally.guard(readable, f"associativity on {(a, b, c)}"):
            A, B, C = (bs.RingElement.basis(n, bs.SignedPermutation(w)) for w in (a, b, c))
            AB, BC = bs.cup(A, B), bs.cup(B, C)
            if bs.cup(AB, C) != bs.cup(A, BC):
                used = ([(g, c) for g, _ in lincomb_terms(AB.component(parts[0] + parts[1]))]
                        + [(a, d) for d, _ in lincomb_terms(BC.component(parts[1] + parts[2]))])
                for key in used:
                    if key in op_of:
                        tally.fail(op_of[key], f"associativity fails on {(a, b, c)}")


# --- cup-sample --------------------------------------------------------------

SAMPLE_N = 7
#: Splits (|I1|, |I2|) drawn per round, in proportion to the 7, 21 and 35
#: splits of [7] of each shape.  A round holds each shape in both
#: orientations, and no two of its splits share a part, so no two of its
#: products share a normal-form support.
SAMPLE_MIX = {1: 1, 2: 3, 3: 5}
SAMPLE_ORACLE_OPS = 2      # ops per round whose coefficients the oracle rechecks
SAMPLE_ORACLE_TERMS = 8    # restrictable snakes rechecked per such op


def sample_round(bs, rng: random.Random, index: int) -> Round:
    """The singleton of a 1+6 split must lead every restrictable snake, so
    the product's cost follows the number of snakes of [7] it can lead:
    from 0.4 s to 1 s here.  Its rank therefore cycles with the round
    index instead of being drawn, and every run of k rounds sees the same
    singleton ranks; all else is drawn from the seed."""
    U = relabel(rng, SAMPLE_N)
    singles = [(U[index % SAMPLE_N],), (U[(index + 3) % SAMPLE_N],)]
    pairs = []
    for small, count in SAMPLE_MIX.items():
        if small == 1:
            parts = singles
        else:
            parts = rng.sample(list(itertools.combinations(U, small)), 2 * count)
        for j, part in enumerate(parts):
            other = tuple(m for m in U if m not in part)
            i1, i2 = (part, other) if j % 2 else (other, part)
            pairs.append((rng.choice(snake_words(i1)), rng.choice(snake_words(i2))))
    rng.shuffle(pairs)
    return Round(pairs, lambda p: (bs.SignedPermutation(p[0]), bs.SignedPermutation(p[1])),
                 {"union": U})


def sample_inline(bs, pair, out, rnd: Round) -> str | None:
    bad = terms_are_snakes_on(out, rnd.context["union"])
    if bad is None:
        i1 = frozenset(pair[0].support)
        for w, _ in lincomb_terms(out):
            if not restrictable(w, i1):
                return f"term {w} is not restrictable"
    return bad


def sample_post(bs, rnd: Round, outputs: dict, rng: random.Random, tally: Tally,
                deep: bool) -> None:
    """Recompute seeded coefficients as (-1)^kappa times the oracle's
    cycle-solve coordinates of the two parity-corrected restrictions."""
    U = rnd.context["union"]
    small = [i for i, (a, b) in enumerate(rnd.inputs)
             if max(len(a), len(b)) <= 5 and i in outputs]
    all_snakes = snake_words(U)
    for i in rng.sample(small, SAMPLE_ORACLE_OPS):
        a, b = rnd.inputs[i]
        i1, i2 = support_of(a), support_of(b)
        side1 = frozenset(i1)
        pool = [z for z in all_snakes if restrictable(z, side1)]
        with tally.guard([i], "oracle recheck"):
            product = outputs[i]
            terms = [w for w, _ in lincomb_terms(product)]
            zs = rng.sample(terms, min(len(terms), SAMPLE_ORACLE_TERMS // 2))
            zs += rng.sample(pool, SAMPLE_ORACLE_TERMS - len(zs))
            for z in zs:
                c1 = bs.solve_in_snake_cycles(
                    bs.chain_of(bs.SignedPermutation(restrict(z, i1))), i1
                ).coefficient(bs.SignedPermutation(a))
                c2 = bs.solve_in_snake_cycles(
                    bs.chain_of(bs.SignedPermutation(restrict(z, i2))), i2
                ).coefficient(bs.SignedPermutation(b))
                want = (-1) ** crossings(z, side1) * c1 * c2
                tally.check(product.coefficient(bs.SignedPermutation(z)) == want, i,
                            f"coefficient of {z} disagrees with the oracle")


# --- oracle-r6 ---------------------------------------------------------------

ORACLE_R = 6


def oracle_round(bs, rng: random.Random, index: int) -> Round:
    """Every permutation of the support once, the j-th (in lexicographic
    order) signed by the bits of j mod 64, so every sign pattern occurs
    11 or 12 times.  Solve times are heavy-tailed (p50 near 1.5 ms, p99
    near 80 ms), so the seed only relabels the support and orders the ops:
    a seeded draw of signs moved the run's mean op time by several
    percent on its own."""
    sup = relabel(rng, ORACLE_R)
    words = [tuple(-m if (j % 2 ** ORACLE_R) >> k & 1 else m for k, m in enumerate(perm))
             for j, perm in enumerate(itertools.permutations(sup))]
    rng.shuffle(words)
    return Round(words, lambda w: (bs.SignedPermutation(w), sup), {"support": sup})


def oracle_setup(bs, rnd: Round) -> None:
    # Solving the zero chain builds the cycle solver and does nothing else.
    bs.solve_in_snake_cycles(bs.SimplicialChain(), rnd.context["support"], cap=ORACLE_R)


def oracle_op(bs, arg):
    x, sup = arg
    return bs.solve_in_snake_cycles(bs.chain_of(x), sup, cap=ORACLE_R)


def oracle_inline(bs, arg, out, rnd: Round) -> str | None:
    return terms_are_snakes_on(out, rnd.context["support"])


def chain_sum(bs, chains: list):
    """Sum of SimplicialChains, added in pairs: a running sum would copy
    itself once per term, which made this check most of a round's
    untimed time."""
    chains = chains or [bs.SimplicialChain()]
    while len(chains) > 1:
        chains = ([a + b for a, b in zip(chains[::2], chains[1::2])]
                  + chains[len(chains) // 2 * 2:])
    return chains[0]


def oracle_post(bs, rnd: Round, outputs: dict, rng: random.Random, tally: Tally,
                deep: bool) -> None:
    for i, out in outputs.items():
        with tally.guard([i], "rewrite and chain checks"):
            x = bs.SignedPermutation(rnd.inputs[i])
            tally.check(out == bs.normal_form(x), i, "oracle and rewrite disagree")
            total = chain_sum(bs, [bs.chain_of(alpha).scale(c) for alpha, c in out.items()])
            tally.check(total == bs.chain_of(x), i,
                        "coefficients do not reproduce the cycle")


WORKLOADS = {
    "nf-sweep": Workload("nf-sweep", 1, 2 ** NF_R * 720, nf_round, no_setup, nf_op,
                         nf_inline, False, nf_post),
    # cup-table's op times are narrow (p99 under twice p50), so millisecond
    # stalls of the VM, not the program, decide which ops form its tail.
    # Each round runs in three processes on identical inputs, and the tail
    # is read from each op's least time: over ten runs its spread fell from
    # 9-16 % to about 3 % (interquartile range over median).
    "cup-table": Workload("cup-table", 1, 1230, table_round, no_setup, cup_op,
                          table_inline, True, table_post, replicas=3),
    "cup-sample": Workload("cup-sample", 3, 2 * sum(SAMPLE_MIX.values()), sample_round,
                           no_setup, cup_op, sample_inline, True, sample_post),
    # A set-up here builds the cycle solver (about 1.6 s), so fewer samples.
    "oracle-r6": Workload("oracle-r6", 2, 720, oracle_round, oracle_setup, oracle_op,
                          oracle_inline, True, oracle_post, setup_samples=5),
}
