from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bsnakes.linalg import SparseEchelon

N_COLS = 6

# integer rows with entries in -4..4: zeros are stored explicitly, and
# non-unit pivots make the elimination scale rows instead of dividing
int_rows = st.lists(st.dictionaries(st.integers(0, N_COLS - 1), st.integers(-4, 4),
                                    max_size=N_COLS),
                    min_size=1, max_size=N_COLS)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
vectors = st.dictionaries(st.integers(0, 2 * N_COLS - 1), rationals, max_size=2 * N_COLS)


def _ref_reduce(pivots, vec):
    """Reference elimination over Fractions: clear the smallest pivot column
    of the vector until none is left."""
    out = {k: Fraction(v) for k, v in vec.items() if v}
    while cols := [k for k in out if k in pivots]:
        c = min(cols)
        mult = out.pop(c)
        for k, v in pivots[c].items():
            if k != c:
                out[k] = out.get(k, 0) - mult * v
                if not out[k]:
                    del out[k]
    return out


def _ref_echelon(rows):
    """Pivot rows with leading coefficient 1, and the rank after each row."""
    pivots, ranks = {}, []
    for row in rows:
        rest = _ref_reduce(pivots, row)
        if rest:
            c = min(rest)
            pivots[c] = {k: v / rest[c] for k, v in rest.items()}
        ranks.append(len(pivots))
    return pivots, ranks


def test_zero_entries_never_become_pivots():
    ech = SparseEchelon()
    assert ech.add_row({0: 0, 1: 3})
    assert ech.pivots == {1: {1: 1}}
    assert not ech.add_row({0: 0, 1: 2})
    assert ech.reduce_vector({0: 1}) == {0: 1}
    assert ech.reduce_vector({0: Fraction(0), 1: Fraction(5, 2)}) == {}


def test_non_unit_pivots_scale_the_row():
    ech = SparseEchelon()
    assert ech.add_row({0: 2, 1: 1})
    assert ech.add_row({0: 3, 2: 1})
    # 2*(3, 0, 1) - 3*(2, 1, 0) = (0, -3, 2), made primitive with a positive lead
    assert ech.pivots == {0: {0: 2, 1: 1}, 1: {1: 3, 2: -2}}
    assert ech.reduce_vector({0: 1}) == {2: Fraction(-1, 3)}
    assert ech.reduce_vector({0: Fraction(1, 2), 3: Fraction(1, 5)}) == {
        2: Fraction(-1, 6), 3: Fraction(1, 5)}


@given(int_rows, vectors)
@settings(max_examples=100, deadline=None)
def test_echelon_matches_fraction_elimination(rows, vec):
    ref, ranks = _ref_echelon(rows)
    ech = SparseEchelon()
    for row, rank in zip(rows, ranks):
        before = ech.rank
        assert ech.add_row(row) == (rank > before)
        assert ech.rank == rank
    assert ech.pivots.keys() == ref.keys()
    # the remainder off the pivot columns is unique, so it must agree exactly
    residue = ech.reduce_vector(vec)
    assert residue == _ref_reduce(ref, vec)
    assert all(type(v) is Fraction for v in residue.values())
    assert ech.contains(vec) == (not residue)

