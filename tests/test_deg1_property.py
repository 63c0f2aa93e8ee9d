"""Property tests of the torus degree against the brute-force pattern count."""

from itertools import product

import pytest

from equihom.degrees import torus_complex, torus_tables

from oracles import brute_deg1

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SIDES = (4, 8, 12)


def colourings(sides):
    """(sides, bits): a 0/1 list with one entry per vertex, row-major."""
    return sides.flatmap(
        lambda ls: st.tuples(st.just(ls),
                             st.lists(st.integers(0, 1), min_size=ls[0] * ls[1],
                                      max_size=ls[0] * ls[1])))


SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                               database=None)


@SETTINGS
@hypothesis.given(colourings(st.tuples(st.sampled_from(SIDES), st.sampled_from(SIDES))))
def test_deg1_matches_brute_force(case):
    (L, Lp), bits = case
    colour = dict(zip(product(range(L), range(Lp)), bits)).__getitem__
    assert torus_complex(L, Lp).deg1(bits) == brute_deg1(colour, L, Lp)


@SETTINGS
@hypothesis.given(colourings(st.sampled_from(SIDES).map(lambda L: (L, L))))
def test_kernel_slices_match_brute_force(case):
    # slice 1 reads the colouring as it is, slice 2 with the coordinates swapped
    (L, _), bits = case
    first = lambda v: bits[v[0] * L + v[1]]
    second = lambda v: bits[v[1] * L + v[0]]
    tables = torus_tables(L, 2)
    assert tables.degrees([bits[p] for p in tables.positions]) == [
        brute_deg1(first, L, L), brute_deg1(second, L, L)]


@SETTINGS
@hypothesis.given(st.sampled_from((12, 20)), st.integers(1, 4), st.data())
def test_slot_degrees_match_the_slice_kernel(L, n, data):
    # blue bits at the slice positions, laid out one byte per slot
    tables = torus_tables(L, n)
    size = len(tables.positions)
    word = data.draw(st.integers(0, (1 << size) - 1))
    bits = [word >> k & 1 for k in range(size)]
    w = int.from_bytes(bytes(bits[k] for k in tables.slots), "little")
    assert tables.slot_degrees(w) == tables.degrees(bits)
