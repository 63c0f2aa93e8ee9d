"""Property test of the Smith form against the determinantal-divisor oracle."""

import pytest

from equihom.snf import smith_normal_form

from oracles import determinantal_invariants

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(small_matrices)
def test_smith_form_matches_determinantal_divisors(mat):
    assert list(smith_normal_form(mat).invariants) == determinantal_invariants(mat)
