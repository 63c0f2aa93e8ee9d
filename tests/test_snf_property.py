"""Property tests of the Smith form against the determinantal-divisor oracle
and the dense textbook phase, on matrices and their transposes."""

import pytest

from equihom.snf import SparseMat, _dense_smith_invariants, smith_normal_form

from oracles import determinantal_invariants, from_dense

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


@st.composite
def shaped_matrices(draw):
    """Tall, wide and square matrices up to 7 x 7, with some rows and
    columns zeroed."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    mat = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                        min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return [[0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
            for i, row in enumerate(mat)]


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(small_matrices)
def test_smith_form_matches_determinantal_divisors(mat):
    invariants = smith_normal_form(from_dense(mat)).invariants
    assert list(invariants) == determinantal_invariants(mat)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(shaped_matrices())
def test_transpose_has_the_same_invariants(mat):
    transposed = [list(column) for column in zip(*mat)]
    invariants = smith_normal_form(from_dense(mat)).invariants
    assert smith_normal_form(from_dense(transposed)).invariants == invariants
    assert list(invariants) == _dense_smith_invariants([list(r) for r in mat])
    assert list(invariants) == _dense_smith_invariants(transposed)


@pytest.mark.parametrize("shape", [(4, 0), (0, 4), (0, 0), (3, 5), (5, 3)])
def test_zero_matrices_have_no_invariants(shape):
    assert smith_normal_form(SparseMat(*shape)).invariants == ()
