"""Property tests of ``zz2._Coboundaries`` on random cochain complexes: the
cleared Smith forms against the whole coboundaries and the
determinantal-divisor oracle, and the dd = 0 check against dense products."""

import pytest

from equihom import zz2
from equihom.errors import InvariantViolationError
from equihom.snf import SparseMat, smith_normal_form

from oracles import add_at, determinantal_invariants, to_dense

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def unimodular_pairs(draw, size):
    """(P, P^-1) from a product of elementary row additions and swaps."""
    p = [[int(i == j) for j in range(size)] for i in range(size)]
    p_inv = [row[:] for row in p]
    if size < 2:
        return p, p_inv
    for _ in range(draw(st.integers(0, 3 * size))):
        i, j = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(st.integers(-2, 2))
        if c:
            # P <- E P with E adding c * row j to row i, so P^-1 <- P^-1 E^-1
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
            for row in p_inv:
                row[j] -= c * row[i]
        else:
            p[i], p[j] = p[j], p[i]
            for row in p_inv:
                row[i], row[j] = row[j], row[i]
    assert _matmul(p, p_inv) == [[int(i == j) for j in range(size)]
                                 for i in range(size)]
    return p, p_inv


@st.composite
def cochain_complexes(draw):
    """delta_k = P_(k+1) D_k P_k^-1 with unimodular P and D_k pairing the
    "source" basis vectors of C^k with the "target" ones of C^(k+1) by
    entries that are units or torsion, so consecutive D compose to zero."""
    length = draw(st.integers(1, 4))
    pairs = draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
    free = draw(st.lists(st.integers(0, 1), min_size=length + 1,
                         max_size=length + 1))
    # C^k lists the targets of D_(k-1), then the sources of D_k, then free ones
    dims = [(pairs[k - 1] if k else 0) + (pairs[k] if k < length else 0) + free[k]
            for k in range(length + 1)]
    bases = [draw(unimodular_pairs(dim)) for dim in dims]
    deltas = []
    for k in range(length):
        d = [[0] * dims[k] for _ in range(dims[k + 1])]
        source = pairs[k - 1] if k else 0
        for i in range(pairs[k]):
            d[i][source + i] = draw(st.sampled_from((1, -1, 1, 2, -2, 3, 4, 6)))
        dense = _matmul(_matmul(bases[k + 1][0], d), bases[k][1])
        deltas.append(SparseMat(dims[k + 1], dims[k],
                                [{j: v for j, v in enumerate(row) if v}
                                 for row in dense]))
    return deltas


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(cochain_complexes())
def test_cleared_smith_forms_keep_every_invariant(deltas):
    coboundaries = zz2._Coboundaries(deltas)
    for k, delta in enumerate(deltas):
        cleared = coboundaries.smith(k).invariants
        assert cleared == smith_normal_form(delta).invariants
        if delta.nrows and delta.ncols:
            assert list(cleared) == determinantal_invariants(to_dense(delta))
        else:
            assert cleared == ()


@st.composite
def coboundary_lists(draw):
    """A cochain complex as above with up to two entries changed, so that the
    list may or may not compose to zero."""
    deltas = draw(cochain_complexes())
    for _ in range(draw(st.integers(0, 2))):
        delta = deltas[draw(st.integers(0, len(deltas) - 1))]
        if delta.nrows and delta.ncols:
            add_at(delta, draw(st.integers(0, delta.nrows - 1)),
                   draw(st.integers(0, delta.ncols - 1)),
                   draw(st.sampled_from((-2, -1, 1, 2))))
    return deltas


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(coboundary_lists())
def test_coboundaries_are_refused_exactly_when_a_product_is_nonzero(deltas):
    dense = [to_dense(delta) for delta in deltas]
    nonzero = [k for k in range(len(dense) - 1)
               if any(map(any, _matmul(dense[k + 1], dense[k])))]
    hypothesis.event(f"refused: {bool(nonzero)}")
    if nonzero:
        k = nonzero[0]
        with pytest.raises(InvariantViolationError,
                           match=rf"delta_{k + 1} delta_{k} != 0$"):
            zz2._Coboundaries(deltas)
    else:
        zz2._Coboundaries(deltas)
