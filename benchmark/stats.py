"""Order statistics and failure accounting shared by the runner and worker."""

from __future__ import annotations

import math
from contextlib import contextmanager

#: Percentiles a tail may be reported at, lowest first.
LADDER = (75.0, 90.0, 95.0, 99.0, 99.5, 99.9)

#: A tail percentile must leave at least this many ops beyond it.
MIN_BEYOND = 10


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of an empty list")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(n: int, p: float) -> int:
    """Number of the n samples that lie beyond the nearest-rank p-th one."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int) -> float:
    """Highest percentile on the ladder with at least MIN_BEYOND of n
    samples beyond it.  Below forty samples there is no tail, and the
    median (50) is returned."""
    best = 50.0
    if n < 4 * MIN_BEYOND:
        return best
    for p in LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


class Tally:
    """Ops attempted and the set of those that failed.

    An op fails when it raises or when any check on its output fails; an
    op that fails several checks is still one failed op.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: dict[int, str] = {}

    def attempt(self) -> int:
        """Register one op; returns its index."""
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, reason: str) -> None:
        if not 0 <= op < self.attempted:
            raise IndexError(f"op {op} was never attempted")
        self.failed.setdefault(op, reason)

    def check(self, ok: bool, op: int, reason: str) -> None:
        if not ok:
            self.fail(op, reason)

    @contextmanager
    def guard(self, ops, what: str):
        """Run a check on the program's outputs.  If the program raises
        inside it, every op whose output the check reads fails, and the
        round goes on."""
        try:
            yield
        except Exception as exc:
            for op in ops:
                self.fail(op, f"{what} raised {type(exc).__name__}: {exc}")

    @property
    def n_failed(self) -> int:
        return len(self.failed)
