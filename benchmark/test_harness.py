"""Tests of the benchmark harness itself (not of bsnakes).

    python3 -m pytest benchmark/test_harness.py
"""

import itertools

import pytest

import calibrate
from stats import Tally, beyond, percentile, tail_percentile
from tracer import Tracer
from workloads import (chain_sum, crossings, is_snake_word, restrict, restrictable,
                       signed_word, signed_words, snake_words, splits)


# --- percentile rule ----------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 99.5) == 100.0
    assert percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (39, 50.0),        # under forty samples: the median alone
    (40, 75.0),        # 10 beyond p75
    (45, 75.0),        # the five-round cup-sample run
    (99, 75.0),        # p90 leaves only 9
    (100, 90.0),
    (200, 95.0),
    (1230, 99.0),      # one cup-table round: 12 beyond
    (1440, 99.0),      # two oracle-r6 rounds: 14 beyond
    (2000, 99.5),
    (46080, 99.9),     # one nf-sweep round: 46 beyond
])
def test_tail_percentile_leaves_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected != 50.0:
        assert beyond(n, expected) >= 10


def test_tail_percentile_is_the_highest_such_rung():
    for n in range(40, 5000, 7):
        p = tail_percentile(n)
        higher = [q for q in (75.0, 90.0, 95.0, 99.0, 99.5, 99.9) if q > p]
        assert all(beyond(n, q) < 10 for q in higher)


def test_tail_reads_least_times_while_rate_and_median_read_all():
    from run import least, summarize
    replicas = [{"lat_s": [0.001, 0.005, 0.002]}, {"lat_s": [0.003, 0.001, 0.002]}]
    assert least(replicas, "lat_s") == [0.001, 0.001, 0.002]
    every = [t for r in replicas for t in r["lat_s"]]
    m = summarize(every, least(replicas, "lat_s"), 75.0)
    assert m["ops_per_s"] == pytest.approx(6 / 0.014)
    assert m["op_p50_ms"] == pytest.approx(2.0)
    assert m["op_tail_ms"] == pytest.approx(2.0)


# --- failure counting ---------------------------------------------------------

def test_an_op_failing_two_checks_counts_once():
    tally = Tally()
    ops = [tally.attempt() for _ in range(5)]
    assert ops == [0, 1, 2, 3, 4]
    tally.check(True, 0, "fine")
    tally.fail(1, "raised")
    tally.check(False, 1, "also wrong")
    tally.check(False, 3, "wrong")
    assert tally.attempted == 5
    assert tally.n_failed == 2
    assert tally.failed[1] == "raised"


def test_a_check_that_raises_fails_the_ops_it_reads():
    tally = Tally()
    for _ in range(4):
        tally.attempt()
    with tally.guard([0, 2], "commutativity"):
        tally.check(True, 0, "fine")
        raise ValueError("bad support")
    with tally.guard([3], "untouched"):
        tally.check(True, 3, "fine")
    assert tally.n_failed == 2
    assert tally.failed[2] == "commutativity raised ValueError: bad support"


def test_failing_an_unattempted_op_is_an_error():
    tally = Tally()
    tally.attempt()
    with pytest.raises(IndexError):
        tally.fail(1, "never ran")


# --- self-time arithmetic -----------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.active = True

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        clock.now += 0.5
        traced_leaf(3.0)

    def outer():
        clock.now += 4.0
        traced_middle()

    traced_leaf = tr.wrap("leaf", leaf)
    traced_middle = tr.wrap("middle", middle)
    tr.wrap("outer", outer)()

    assert tr.calls == {"leaf": 2, "middle": 1, "outer": 1}
    assert tr.self_s["leaf"] == pytest.approx(5.0)
    assert tr.self_s["middle"] == pytest.approx(1.5)
    assert tr.self_s["outer"] == pytest.approx(4.0)
    assert not tr.stack


def test_inactive_tracer_records_nothing_and_exceptions_close_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    wrapped = tr.wrap("boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    assert not tr.calls
    tr.active = True
    with pytest.raises(KeyError):
        wrapped()
    assert tr.calls["boom"] == 1 and tr.self_s["boom"] == pytest.approx(1.0)
    assert not tr.stack


def test_observer_sees_the_parent_span():
    seen = []
    tr = Tracer(FakeClock())
    tr.active = True
    tr.observe("child", lambda t, result, parent: seen.append((result, parent)))
    child = tr.wrap("child", lambda: 7)
    tr.wrap("parent", lambda: child())()
    child()
    assert seen == [(7, "parent"), (7, None)]


# --- calibration --------------------------------------------------------------

def test_chunk_factors_use_the_two_samples_around_each_chunk():
    nominal = calibrate.NOMINAL_KERNEL_S
    samples = [nominal, nominal, 3 * nominal, nominal]
    assert calibrate.chunk_factors(samples) == [1.0, 0.5, 0.5]
    with pytest.raises(ValueError):
        calibrate.chunk_factors([nominal])


def test_kernel_restores_the_collector_state():
    import gc
    assert gc.isenabled()
    assert calibrate.kernel_time() > 0
    assert gc.isenabled()


# --- the checks' own combinatorics --------------------------------------------

def test_snake_counts_are_the_springer_numbers():
    springer = [1, 1, 3, 11, 57, 361, 2763, 24611]
    for r, count in enumerate(springer):
        words = snake_words(tuple(range(1, r + 1)))
        assert len(words) == count
        assert all(is_snake_word(w) for w in words)


def test_snakes_are_exactly_the_alternating_words():
    mags = (2, 5, 7, 8)
    assert snake_words(mags) == sorted(w for w in signed_words(mags) if is_snake_word(w))


def test_cup_table_has_1230_pairs_over_30_splits():
    union = (1, 2, 3, 4, 5)
    assert len(splits(union)) == 30
    assert sum(len(snake_words(a)) * len(snake_words(b)) for a, b in splits(union)) == 1230


def test_restriction_crossings_and_restrictability():
    # z = [1-4/-2-3]: right-anchored, x1 = -3, x2 = -2, x3 = -4, x4 = 1.
    z = (1, -4, -2, -3)
    i1 = frozenset({1, 4})
    assert not restrictable(z, frozenset({1, 2}))
    assert restrictable((1, -4, -3, -2), frozenset({2, 3}))
    assert restrict(z, (1, 4)) == (1, -4)
    assert restrict((3, -1, 2), (1, 2)) == (1, -2)
    # odd letters x1 = -3 (second factor), x3 = -4 (first): one crossing
    assert crossings(z, i1) == 1
    assert crossings(z, frozenset({2, 3})) == 0


def test_chain_sum_adds_each_chain_once():
    class Numbers:
        SimplicialChain = int          # the empty sum

    for n in range(9):
        assert chain_sum(Numbers, list(range(1, n + 1))) == n * (n + 1) // 2


def test_signed_word_indexes_signed_words():
    for mags in [(), (2,), (1, 5, 7), (2, 3, 4, 9)]:
        words = signed_words(mags)
        assert [signed_word(mags, i) for i in range(len(words))] == words


def test_signed_words_count():
    for r in range(5):
        words = signed_words(tuple(range(1, r + 1)))
        assert len(words) == len(set(words)) == 2 ** r * len(list(itertools.permutations(range(r))))
