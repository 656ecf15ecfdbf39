"""Normal forms: any signed permutation as its unique snake combination.

Two independent backends compute the coefficients of x in the snake basis
of Q<S^B_I>/M_I and are required to agree:

  * ``solve`` reduces x against the echelonized relation matrix, which
    eliminates every non-snake coordinate.  It is the authoritative route
    wherever the matrix is affordable (|I| <= 5).
  * ``rewrite`` is directed: orient blocks canonically, then repeatedly
    resolve the leftmost violation of the snake alternation by solving the
    matching H2/H4/H5 instance for the current word.  Every replacement
    word is strictly smaller in the block-sum comparison order, which is
    asserted at runtime on every step; the rewriting therefore terminates
    and, by the backend-agreement tests, is confluent in practice.

A third route lives in the oracle module (cycle solve over the hat
complex); the acceptance suite checks all three against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (IndexSet, SignedPermutation, Word, _check_cap, _format_word,
                   _is_snake_word, _word_lt, as_snake, enumerate_signed_perms,
                   index_set)
from .linalg import SparseVector
from .relations import (ConventionError, LinComb, _canonical_word, _instance,
                        _relation_matrix_cached, _starts)

REWRITE_CAP = 7
SOLVE_CAP = 5

BACKENDS = ("rewrite", "solve")

_nf_memo: dict[Word, dict[Word, int]] = {}


def _find_rule(w: Word) -> tuple[str, int]:
    """First applicable resolution (family, window offset) for a
    canonically oriented non-snake; raises when none applies.

    Checks for a monotone quadruple across adjacent blocks (smallest block
    index first), then the leading-letter conditions.
    """
    for start in _starts("H2", len(w)):
        a, b, c, d = w[start:start + 4]
        if a < b < c < d or a > b > c > d:
            return ("H2", start)
    if _starts("H4", len(w)) and w[0] < 0:
        return ("H4", 0)
    if _starts("H5", len(w)) and w[0] < w[1]:
        return ("H5", 0)
    raise ConventionError(f"no rewriting rule applies to non-snake {w}")


def _replacements(w: Word) -> list[tuple[int, int, Word]]:
    """Solve the applicable relation instance for w.

    Returns (coefficient, orientation sign, canonical word) triples with
    w = sum of coefficient * sign * word modulo M_I.  Raises when no rule
    applies or when a replacement fails to decrease the comparison order;
    either would be a convention bug, never silently ignored.
    """
    family, start = _find_rule(w)
    inst = _instance(w, family, start)
    if inst[0] != (w, 1):
        raise ConventionError(f"{family} instance does not lead with {_format_word(w)}")
    out = []
    for term, c in inst[1:]:
        sign, cw = _canonical_word(term)
        if not _word_lt(cw, w):
            raise ConventionError(f"rewriting step {family} on {_format_word(w)} "
                                  f"failed to decrease: {_format_word(term)}")
        out.append((-c, sign, cw))
    return out


def _nf_canonical(cw: Word) -> dict[Word, int]:
    """Normal form of a canonically oriented word, memoized.

    Evaluated with an explicit stack: recursion depth equals the length of
    the longest strictly decreasing chain in the comparison order, which
    is data-dependent and can exceed the interpreter limit at r = 7.
    """
    if cw in _nf_memo:
        return _nf_memo[cw]
    pending: dict[Word, list[tuple[int, int, Word]]] = {}
    stack = [cw]
    while stack:
        w = stack[-1]
        if w in _nf_memo:
            stack.pop()
            continue
        if _is_snake_word(w):
            _nf_memo[w] = {w: 1}
            stack.pop()
            continue
        if w not in pending:
            pending[w] = _replacements(w)
        todo = [tw for (_, _, tw) in pending[w] if tw not in _nf_memo]
        if todo:
            stack.extend(todo)
            continue
        _nf_memo[w] = SparseVector.combine(
            (coeff * sign, _nf_memo[tw]) for coeff, sign, tw in pending[w])
        del pending[w]
        stack.pop()
    return _nf_memo[cw]


def _check_rewrite_cap(r: int, cap: int | None = None) -> None:
    """Raise CapExceeded when r letters exceed the rewrite cap."""
    _check_cap("r", r, "rewrite", REWRITE_CAP if cap is None else cap)


def normal_form(x: SignedPermutation, backend: str = "rewrite",
                cap: int | None = None) -> LinComb:
    """Express x in the snake basis modulo M_I."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    r = x.r
    if backend == "rewrite":
        _check_rewrite_cap(r, cap)
        sign, cw = _canonical_word(x.word)
        table = _nf_canonical(cw)
        return LinComb(x.support,
                       {SignedPermutation(w): sign * c for w, c in table.items()})
    _check_cap("r", r, "solve", SOLVE_CAP if cap is None else cap)
    return _relation_matrix_cached(x.support).reduce_to_snakes(LinComb.single(x))


def coefficient(x: SignedPermutation, alpha: SignedPermutation,
                backend: str = "rewrite") -> Fraction:
    """The alpha-coordinate of the normal form of x."""
    as_snake(alpha)
    if x.support != alpha.support:
        raise ValueError(f"supports differ: {x.support} vs {alpha.support}")
    return Fraction(normal_form(x, backend).coefficient(alpha))


def normal_form_lincomb(c: LinComb, backend: str = "rewrite") -> LinComb:
    """Linear extension of normal_form to combinations."""
    return LinComb(c.support, SparseVector.combine(
        (coeff, normal_form(perm, backend).terms) for perm, coeff in c.terms.items()))


@dataclass
class CoefficientReport:
    """Observed range of snake-basis coefficients over a full support sweep.

    An experiment, never an assertion.  Measured: every nonzero
    coefficient is +-1 through r = 7; at r = 8, 56 of them are +-2 (28
    each way), on five canonical words such as [1-2/-5-7/-3-4/-6-8].
    """

    support: IndexSet
    words: int = 0
    value_counts: dict[str, int] = field(default_factory=dict)
    beyond_unit: list[dict] = field(default_factory=list)

    @property
    def all_in_unit_range(self) -> bool:
        return not self.beyond_unit

    def to_json(self) -> dict:
        return {
            "support": list(self.support),
            "words": self.words,
            "value_counts": dict(sorted(self.value_counts.items())),
            "all_in_unit_range": self.all_in_unit_range,
            "beyond_unit": list(self.beyond_unit),
        }

    def __str__(self) -> str:
        lines = [f"support {{{', '.join(map(str, self.support))}}}: "
                 f"{self.words} words scanned"]
        counts = ", ".join(f"{v}: {n}" for v, n in sorted(self.value_counts.items()))
        lines.append(f"coefficient counts: {counts}")
        if self.all_in_unit_range:
            lines.append("all coefficients in {-1,0,1}")
        else:
            lines.append(f"coefficients beyond {{-1,0,1}}: {len(self.beyond_unit)} "
                         "instances (see JSON report)")
        return "\n".join(lines)


def coefficient_range_experiment(I, backend: str = "rewrite",
                                 cap: int = SOLVE_CAP) -> CoefficientReport:
    """Scan every x on I and tabulate the nonzero snake coefficients."""
    sup = index_set(I)
    _check_cap("|I|", len(sup), "experiment", cap)
    report = CoefficientReport(sup)
    for x in enumerate_signed_perms(sup, cap):
        report.words += 1
        for alpha, c in normal_form(x, backend, cap).items():
            key = str(c)
            report.value_counts[key] = report.value_counts.get(key, 0) + 1
            if c not in (1, -1):
                if len(report.beyond_unit) < 20:
                    report.beyond_unit.append(
                        {"x": str(x), "alpha": str(alpha), "coeff": str(c)})
    return report
