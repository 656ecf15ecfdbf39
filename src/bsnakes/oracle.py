"""Brute-force simplicial ground truth for the snake presentation.

Everything here is computed from first principles on nested-chain
simplicial complexes, independently of the relation/rewriting machinery,
so that the two routes can referee each other:

  * ``hat_complex(I)`` is the complex whose vertices are the odd-size
    signed subsets over +/-I and whose simplices are strictly nested
    chains; its top reduced Betti number is the Springer number.
  * ``full_subcomplex(n, J)`` is the induced subcomplex of the full
    nested-chain complex on [n] spanned by vertices with odd signed
    incidence to J; ``retract_pi`` collapses it onto the hat complex.
    Either builder makes a new complex per call, which lists its levels
    of simplices once; ``reduced_betti`` keeps each boundary rank on it.
  * ``chain_of(x)`` realizes a signed permutation as the fundamental cycle
    of an embedded cross-polytope boundary: one simplex per choice of
    x-or-star(x) at each level, signed by the number of star choices.
    Chains are integer vectors: no ``Fraction`` arithmetic builds them.
  * ``solve_in_snake_cycles`` expresses any top-dimensional cycle in the
    basis of snake cycles (top dimension means homology equals the cycle
    space, so no quotient is needed) by forward substitution along a peel
    of those cycles, which also proves them independent.
  * ``join_image`` pushes a snake cycle through the factor retractions
    into the join of two hat complexes, the simplicial carrier of the
    cup product.  The product check compares it, as a chain, with the
    product's coefficients times the joins of snake cycles.
  * ``verify_suite`` sweeps the named structural facts and reports
    failures with counterexample payloads.

Orientation conventions are fixed once: simplex vertices are ordered by
cardinality (ascending), and joins put the first factor's vertices before
the second's.  All sign-sensitive golden tests pin these conventions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator

from .core import (IndexSet, SignedPermutation, SignedSubset, _check_cap, _subsets,
                   enumerate_snakes, f_set, index_set, restrict_p, springer, star)
from .linalg import SparseEchelon, SparseVector
from .relations import ConventionError, LinComb, _word_instances

ORACLE_CAP = 5
FULLSUB_CAP = 3

Simplex = tuple[SignedSubset, ...]  # vertices in cardinality-ascending order


def _vkey(v: SignedSubset) -> tuple[int, tuple[int, ...]]:
    return (len(v), tuple(sorted(v)))


class NestedChainComplex:
    """Simplicial complex whose simplices are strictly nested vertex chains.

    Every level is built once, here: a k-simplex is a (k-1)-simplex
    extended by a strict superset of its last vertex.  ``reduced_betti``
    keeps the rank of each boundary map it computes on the complex."""

    def __init__(self, vertices: Iterable[SignedSubset], description: str):
        self.description = description
        self.vertices: list[SignedSubset] = sorted(set(vertices), key=_vkey)
        supersets = {v: [w for w in self.vertices if len(w) > len(v) and v < w]
                     for v in self.vertices}
        self._levels: list[list[Simplex]] = [[()]]  # the k-simplices at k + 1
        level = [(v,) for v in self.vertices]
        while level:
            self._levels.append(level)
            level = [s + (w,) for s in level for w in supersets[s[-1]]]
        self._faces = [{s: i for i, s in enumerate(sims)} for sims in self._levels]
        self._ranks: dict[int, int] = {}  # k -> rank of the boundary of k-chains

    def __repr__(self):
        return f"NestedChainComplex({self.description}, {len(self.vertices)} vertices)"

    def simplices(self, k: int) -> list[Simplex]:
        """All k-simplices; k = -1 yields the single empty simplex."""
        return self._levels[k + 1] if 0 <= k + 1 < len(self._levels) else []

    def simplex_index(self, k: int) -> dict[Simplex, int]:
        return self._faces[k + 1] if 0 <= k + 1 < len(self._faces) else {}

    def n_simplices(self, k: int) -> int:
        return len(self.simplices(k))

    @property
    def dim(self) -> int:
        return len(self._levels) - 2

    def to_json(self) -> dict:
        """Face-list export for external inspection."""
        vertex = self.simplex_index(0)
        return {
            "description": self.description,
            "vertices": [sorted(v) for v in self.vertices],
            "simplices": {
                str(k): [[vertex[(v,)] for v in s] for s in self.simplices(k)]
                for k in range(self.dim + 1)
            },
        }


def hat_complex(I: Iterable[int], cap: int = ORACLE_CAP) -> NestedChainComplex:
    """Complex of odd-cardinality signed subsets over +/-I, nested chains."""
    sup = index_set(I)
    _check_cap("|I|", len(sup), "oracle", cap)
    verts = []
    for size in range(1, len(sup) + 1, 2):
        for mags in itertools.combinations(sup, size):
            for signs in itertools.product((1, -1), repeat=size):
                verts.append(frozenset(s * m for s, m in zip(signs, mags)))
    return NestedChainComplex(verts, f"hat{sup}")


def full_subcomplex(n: int, J: Iterable[int], cap: int = FULLSUB_CAP) -> NestedChainComplex:
    """Induced subcomplex of the full nested-chain complex on [n] spanned by
    vertices whose signed incidence with J has odd cardinality."""
    _check_cap("n", n, "full-subcomplex", cap)
    J = index_set(J)
    verts = []
    for signs in itertools.product((0, 1, -1), repeat=n):
        L = frozenset(s * (i + 1) for i, s in enumerate(signs) if s)
        if L and sum(1 for m in J if m in L or -m in L) % 2 == 1:
            verts.append(L)
    return NestedChainComplex(verts, f"fullsub(n={n}, J={J})")


def retract_pi(sigma: Simplex, J: Iterable[int]) -> Simplex | None:
    """Intersect every vertex with +/-J; None marks a degenerate image."""
    pm = {m for j in index_set(J) for m in (j, -j)}
    images = [v & pm for v in sigma]
    if any(not img for img in images):
        return None
    if len(set(images)) != len(images):
        return None
    return tuple(images)


class SimplicialChain(SparseVector):
    """Exact chain keyed by nested vertex chains (integral values are ints)."""

    __slots__ = ()

    def boundary(self) -> "SimplicialChain":
        out: dict[Simplex, int | Fraction] = {}
        for sigma, c in self.terms.items():
            for i in range(len(sigma)):
                face = sigma[:i] + sigma[i + 1:]
                out[face] = out.get(face, 0) + (-c if i % 2 else c)
        return SimplicialChain(out)


def chain_of(x: SignedPermutation) -> SimplicialChain:
    """Fundamental cycle of the cross-polytope boundary attached to x.

    One simplex per selection of x or star(x) at each nesting level i,
    taking the vertex F_i of the selected word, with sign (-1)^(number of
    star selections).  The empty word yields the empty-simplex unit chain.
    """
    sx = star(x)
    terms: dict[Simplex, int] = {(): 1}
    for i in range(1, (x.r + 1) // 2 + 1):
        # F_i(x) != F_i(star(x)), so the two extensions never collide
        a, b = f_set(x, i), f_set(sx, i)
        terms = {t: c for s, c0 in terms.items() for t, c in ((s + (a,), c0), (s + (b,), -c0))}
    return SimplicialChain(terms)


def chain_of_lincomb(comb: LinComb) -> SimplicialChain:
    return SimplicialChain(SparseVector.combine(
        (c, chain_of(perm).terms) for perm, c in comb.terms.items()))


class SparseMatrix:
    """Column-sparse integer matrix with exact rank."""

    def __init__(self, nrows: int, columns: list[dict[int, int]]):
        self.nrows = nrows
        self.columns = columns

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, len(self.columns))

    def rank(self) -> int:
        return sum(map(SparseEchelon().add_row, self.columns))


def boundary_matrix(c: NestedChainComplex, k: int) -> SparseMatrix:
    """Boundary from k-chains to (k-1)-chains; k = 0 is the augmentation."""
    rows = c.simplex_index(k - 1)
    cols = [{rows[sigma[:i] + sigma[i + 1:]]: (-1) ** i for i in range(len(sigma))}
            for sigma in c.simplices(k)]
    return SparseMatrix(len(rows), cols)


def reduced_betti(c: NestedChainComplex, k: int) -> int:
    """Dimension of reduced homology in degree k, by exact rank computation.

    Degree -1 is meaningful: the empty complex has a single unit of reduced
    homology there, which accounts for the empty index set.
    """
    if k < -1:
        return 0
    for j in (k, k + 1):
        if j not in c._ranks:
            c._ranks[j] = boundary_matrix(c, j).rank()
    return c.n_simplices(k) - c._ranks[k] - c._ranks[k + 1]


def _top_dim(I: IndexSet) -> int:
    return (len(I) - 1) // 2 if I else -1


class _TopCycleSolver:
    """Coordinates of top chains of hat(I) in the basis of its snake cycles.

    Each round of the peel removes every cycle that is the last remaining
    holder of some simplex, its pivot; a complete peel proves the cycles
    independent.  No later cycle holds a pivot, so a solve reads each
    coefficient off the residual at the pivot, in peel order.  A simplex
    keeps a holder count and the XOR of its holders' indices: at count 1
    the XOR names the last holder."""

    def __init__(self, sup: IndexSet):
        self.sup, self.where = sup, f"hat{sup}"
        labels = enumerate_snakes(sup)
        cycles = [chain_of(alpha).terms for alpha in labels]
        count: dict[Simplex, int] = {}
        xor: dict[Simplex, int] = {}
        for j, cycle in enumerate(cycles):
            for s in cycle:
                count[s] = count.get(s, 0) + 1
                xor[s] = xor.get(s, 0) ^ j
        self.peel: list[tuple[SignedPermutation, dict, Simplex]] = []
        self.position: dict[Simplex, int] = {}  # pivot -> peel position
        while len(self.peel) < len(cycles):
            # cycle j -> its pivot, for every cycle that is the last holder of a simplex
            peeled = {xor[s]: s for s, c in count.items() if c == 1}
            if not peeled:
                raise ConventionError(f"basis cycles on {self.where} are not independent")
            for j, pivot in peeled.items():
                if cycles[j][pivot] not in (1, -1):
                    raise ConventionError(f"basis cycle {labels[j]} on {self.where} "
                                          f"has pivot entry {cycles[j][pivot]}")
                self.position[pivot] = len(self.peel)
                self.peel.append((labels[j], cycles[j], pivot))
                for s in cycles[j]:
                    count[s] -= 1
                    xor[s] ^= j

    def _is_top(self, s) -> bool:
        """Whether s is a top simplex of hat(I): strictly nested signed
        subsets over +/-I of sizes 1, 3, 5, ..., as many as fit in I."""
        return (type(s) is tuple and len(s) == _top_dim(self.sup) + 1
                and all(type(v) is frozenset and len(v) == 2 * i + 1 for i, v in enumerate(s))
                and all(a < b for a, b in zip(s, s[1:]))
                and all(abs(m) in self.sup and -m not in v for v in s[-1:] for m in v))

    def solve(self, chain: SimplicialChain) -> dict:
        """Forward substitution in peel order: the coefficient of a cycle is
        the residual at its pivot times the pivot entry."""
        residual, heap = dict(chain.terms), []
        for s in residual:
            if s in self.position:
                heap.append(self.position[s])
            elif not self._is_top(s):
                raise ValueError(f"{s} is not a top simplex of {self.where}")
        heapify(heap)
        coords = {}
        while heap:
            label, cycle, pivot = self.peel[heappop(heap)]
            if pivot not in residual:  # a stale duplicate of a visited position
                continue
            a = coords[label] = residual[pivot] * cycle[pivot]
            for s, v in cycle.items():  # a cycle holds no earlier pivot
                if s not in residual and s in self.position:
                    heappush(heap, self.position[s])
                if r := residual.pop(s, 0) - a * v:
                    residual[s] = r
        if residual:
            raise ConventionError(
                f"chain on {self.where} is outside the span of its basis cycles")
        return coords


_cycle_solver = lru_cache(maxsize=None)(_TopCycleSolver)  # one build per support


def solve_in_snake_cycles(chain: SimplicialChain, I: Iterable[int],
                          cap: int = ORACLE_CAP) -> LinComb:
    """Unique coefficients with chain = sum of coeff * chain_of(snake)."""
    sup = index_set(I)
    _check_cap("|I|", len(sup), "oracle", cap)
    return LinComb(sup, _cycle_solver(sup).solve(chain))


# --- simplicial joins -------------------------------------------------------

JoinSimplex = tuple[Simplex, Simplex]


class JoinChain(SparseVector):
    """Chain in the join of two complexes, first factor's vertices first."""

    __slots__ = ()


def join_chains(c1: SimplicialChain, c2: SimplicialChain) -> JoinChain:
    """Bilinear join; the orientation is the concatenated vertex order."""
    return JoinChain({(s1, s2): a * b for s1, a in c1.terms.items()
                      for s2, b in c2.terms.items()})


def join_image(z: SignedPermutation, I1: Iterable[int], I2: Iterable[int]
               ) -> JoinChain:
    """Chain image of chain_of(z) in hat(I1) * hat(I2).

    Each vertex of a simplex has odd signed incidence with exactly one of
    I1, I2; it is retracted into that factor.  Moving the first factor's
    vertices in front of the second's contributes the sign of that
    permutation; degenerate retractions kill the simplex.
    """
    i1, i2 = index_set(I1), index_set(I2)
    if set(i1) & set(i2):
        raise ValueError("factors must be disjoint")
    if set(z.support) != set(i1) | set(i2):
        raise ValueError(f"support {z.support} is not the union of {i1} and {i2}")
    pm1 = {m for j in i1 for m in (j, -j)}
    pm2 = {m for j in i2 for m in (j, -j)}
    out: dict[JoinSimplex, int] = {}
    for sigma, coeff in chain_of(z).terms.items():
        in_first = [len(v & pm1) % 2 == 1 for v in sigma]
        inversions = 0
        seen_second = 0
        for first in in_first:
            if first:
                inversions += seen_second
            else:
                seen_second += 1
        f1 = [v & pm1 for v, first in zip(sigma, in_first) if first]
        f2 = [v & pm2 for v, first in zip(sigma, in_first) if not first]
        if len(set(f1)) != len(f1) or len(set(f2)) != len(f2):
            continue  # degenerate retraction
        key = (tuple(f1), tuple(f2))
        sign = -1 if inversions % 2 else 1
        out[key] = out.get(key, 0) + sign * coeff
    return JoinChain(out)


def join_closed_form(z: SignedPermutation, I1: Iterable[int], I2: Iterable[int]
                     ) -> JoinChain:
    """(-1)^kappa * chain_of(P_I1 z) * chain_of(P_I2 z) for restrictable z,
    the zero chain otherwise."""
    from .ring import RestrictionContext, is_restrictable, kappa
    ctx = RestrictionContext(index_set(I1), index_set(I2))
    if not is_restrictable(z, ctx):
        return JoinChain()
    sign = (-1) ** kappa(z, ctx)
    return join_chains(chain_of(restrict_p(z, ctx.i1)),
                       chain_of(restrict_p(z, ctx.i2))).scale(sign)


# --- verification driver ----------------------------------------------------

@dataclass
class CheckResult:
    check: str
    instances: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, payload) -> None:
        if len(self.failures) < 20:  # enough to diagnose, bounded output
            self.failures.append(payload)
        elif len(self.failures) == 20:
            self.failures.append("... more failures suppressed")

    def to_json(self) -> dict:
        return {"check": self.check, "instances": self.instances,
                "failures": list(self.failures)}


def _split_contexts(n: int) -> Iterator[tuple[IndexSet, IndexSet]]:
    """Ordered disjoint pairs (I1, I2) with |I1|*|I2| even, union inside [n]."""
    for union in _subsets(n):
        u = set(union)
        for size1 in range(len(union) + 1):
            for c1 in itertools.combinations(union, size1):
                i1 = tuple(c1)
                i2 = tuple(sorted(u - set(c1)))
                if (len(i1) * len(i2)) % 2 == 0:
                    yield i1, i2


def check_betti_identity(n: int) -> CheckResult:
    """Top reduced Betti number of hat(I) is springer(|I|); all lower vanish."""
    res = CheckResult("betti-identity")
    for I in _subsets(n):
        c = hat_complex(I, n)
        top = _top_dim(I)
        res.instances += 1
        got = reduced_betti(c, top)
        want = springer(len(I), n)
        if got != want:
            res.record({"I": list(I), "dim": top, "got": got, "want": want})
        for k in range(-1 + (0 if I else 1), top):
            res.instances += 1
            low = reduced_betti(c, k)
            if low != 0:
                res.record({"I": list(I), "dim": k, "got": low, "want": 0})
    return res


def check_retraction_equivalence(n: int) -> CheckResult:
    """Reduced Betti numbers of the full subcomplex match the hat complex."""
    res = CheckResult("retraction-equivalence")
    n = min(n, FULLSUB_CAP)
    for J in _subsets(n):
        full = full_subcomplex(n, J, n)
        hat = hat_complex(J, n)
        for k in range(-1, max(full.dim, hat.dim) + 1):
            res.instances += 1
            a, b = reduced_betti(full, k), reduced_betti(hat, k)
            if a != b:
                res.record({"J": list(J), "dim": k, "fullsub": a, "hat": b})
    return res


def check_relations_vanish(n: int) -> CheckResult:
    """Every H1..H5 instance realizes to the zero chain (not merely to a
    boundary): the hat complex has no cells above the chains' dimension."""
    res = CheckResult("relations-vanish")
    for I in _subsets(n):
        chains: dict[tuple[int, ...], dict] = {}  # each word on I realized once
        for label, terms in _word_instances(I):
            res.instances += 1
            for w, _ in terms:
                if w not in chains:
                    chains[w] = chain_of(SignedPermutation(w)).terms
            if SparseVector.combine((sign, chains[w]) for w, sign in terms):
                res.record({"I": list(I), "generator": label, "instance": LinComb(
                    I, {SignedPermutation(w): sign for w, sign in terms}).to_json()})
    return res


def check_snake_cycles_independent(n: int) -> CheckResult:
    """Snake cycles are independent: they peel completely, pivot entries +/-1."""
    res = CheckResult("snake-cycle-basis")
    for I in _subsets(n):
        res.instances += 1
        try:
            _cycle_solver(I)
        except ConventionError as exc:
            res.record({"I": list(I), "error": str(exc)})
    return res


def check_triple_agreement(n: int) -> CheckResult:
    """normal_form via rewriting == via the relation matrix == via the
    oracle cycle solve, for every signed permutation."""
    from .core import enumerate_signed_perms
    from .normalform import normal_form
    res = CheckResult("normal-form-agreement")
    for I in _subsets(n):
        for x in enumerate_signed_perms(I, n):
            res.instances += 1
            nf_r = normal_form(x, backend="rewrite", cap=n)
            nf_s = normal_form(x, backend="solve", cap=n)
            nf_o = solve_in_snake_cycles(chain_of(x), I, n)
            if not (nf_r == nf_s == nf_o):
                res.record({"I": list(I), "x": str(x),
                            "rewrite": str(nf_r), "solve": str(nf_s),
                            "oracle": str(nf_o)})
    return res


def check_join_factorization(n: int) -> CheckResult:
    """join_image matches its closed form on every snake and every valid
    split; non-restrictable snakes map to the zero chain."""
    from .ring import RestrictionContext, is_restrictable
    res = CheckResult("join-factorization")
    for i1, i2 in _split_contexts(n):
        union = tuple(sorted(set(i1) | set(i2)))
        ctx = RestrictionContext(i1, i2)
        for z in enumerate_snakes(union):
            res.instances += 1
            got = join_image(z, i1, i2)
            want = join_closed_form(z, i1, i2)
            if got != want:
                res.record({"I1": list(i1), "I2": list(i2), "z": str(z),
                            "restrictable": is_restrictable(z, ctx)})
    return res


def check_cup_against_topology(n: int) -> CheckResult:
    """The algebraic cup product equals the simplicial pairing, on chains:
    join_image(z) = sum of (coefficient of z in cup(alpha, beta)) *
    chain_of(alpha) * chain_of(beta).  Each factor's snake cycles are
    independent (building their solvers proves it), hence so are their
    joins, and equal chains mean equal coefficients without any solve."""
    from .ring import _cup_split
    res = CheckResult("cup-topology")
    for i1, i2 in _split_contexts(n):
        for i in (i1, i2):
            _cycle_solver(i)  # raises ConventionError if its snake cycles are dependent
        snakes1, snakes2 = enumerate_snakes(i1), enumerate_snakes(i2)
        cycles = {a.word: chain_of(a) for a in snakes1 + snakes2}
        by_z: dict[tuple[int, ...], list] = {}  # z -> [(coefficient, join chain)]
        for (a, b), products in _cup_split(i1, i2).items():
            joined = join_chains(cycles[a], cycles[b]).terms
            for z, c in products.items():
                by_z.setdefault(z, []).append((c, joined))
        for z in enumerate_snakes(i1 + i2):
            res.instances += len(snakes1) * len(snakes2)
            if join_image(z, i1, i2) != JoinChain(SparseVector.combine(by_z.get(z.word, ()))):
                res.record({"I1": list(i1), "I2": list(i2), "z": str(z)})
    return res


CHECKS = {
    "betti-identity": check_betti_identity,
    "retraction-equivalence": check_retraction_equivalence,
    "relations-vanish": check_relations_vanish,
    "snake-cycle-basis": check_snake_cycles_independent,
    "normal-form-agreement": check_triple_agreement,
    "join-factorization": check_join_factorization,
    "cup-topology": check_cup_against_topology,
}

VERIFY_CAP = 4


def verify_suite(n: int, only: Iterable[str] | None = None,
                 cap: int = VERIFY_CAP) -> list[CheckResult]:
    """Run the named structural checks over all index sets inside [n]; a
    name outside ``CHECKS`` raises ValueError."""
    _check_cap("n", n, "verification", cap)
    wanted = None if only is None else set(only)
    if wanted is not None and (unknown := wanted - CHECKS.keys()):
        raise ValueError(f"unknown checks {sorted(unknown)}; known: {', '.join(CHECKS)}")
    results = []
    for name, fn in CHECKS.items():
        if wanted is not None and name not in wanted:
            continue
        results.append(fn(n))
    return results
