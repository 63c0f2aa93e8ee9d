import random
import time
from itertools import product as iproduct

import pytest

from equihom import homcomplexes
from equihom.errors import (CapacityExceededError, InternalError, InvalidParameterError,
                            UnsupportedInputError)
from equihom.degrees import CellLanes, SideMasks, torus_tables
from equihom.graphs import (Graph, GraphHom, MinorSpec, complete_graph, cycle_graph,
                            enumerate_homs, minor, power, sample_homs)
from equihom.homcomplexes import (MAX_MULTIHOMS, UNLABELLED, CyclePipeline, Multihom,
                                  TColouring, canonical_cycle_iso, hom_complex,
                                  mu_prime, multihoms, search_t_colouring)
from equihom.simplicial import (SimplicialSet, map_from_colouring, mod2_homology_ranks,
                                torus)

import oracles
from oracles import (BLUE, YELLOW, brute_multihom_count, colour_bits, colour_dict, decode,
                     gamma, involution, iota, is_equivariant,
                     is_valid_multihom, labelled_cells, mu_bits_reference,
                     mu_colours_reference, mu_map, multihoms_reference,
                     search_t_reference, side_table_reference, vertex_labels)


def test_multihom_counts_against_brute_force():
    for g, expected in ((complete_graph(4), None), (cycle_graph(3), None),
                        (cycle_graph(5), None)):
        brute = brute_multihom_count(g.edges, g.vertex_count)
        assert len(multihoms(g)) == brute
    assert len(multihoms(complete_graph(4))) == 50
    assert len(multihoms(cycle_graph(3))) == 12
    assert len(multihoms(cycle_graph(5))) == 20


def test_multihoms_match_the_subset_enumeration():
    rng = random.Random(11)
    graphs = ([cycle_graph(ell) for ell in range(3, 14)]
              + [complete_graph(k) for k in range(1, 7)])
    for _ in range(30):
        n = rng.randrange(1, 9)
        graphs.append(Graph(n, {(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < 0.5}))
    for g in graphs:
        assert multihoms(g) == multihoms_reference(g)


def test_multihoms_of_a_long_cycle_take_no_subset_search():
    # trying every vertex subset as a left side takes about 1 s at ell = 19
    # and four times as long for each step of 2 in ell
    start = time.perf_counter()
    mh = multihoms(cycle_graph(41))
    assert time.perf_counter() - start < 1
    assert len(mh) == 4 * 41


def test_multihoms_past_the_limit_are_refused_before_they_are_listed():
    # K_k has 3^k - 2^(k+1) + 1 multihomomorphisms: 1 932 for k = 7, 6 050
    # for k = 8, and about 3^40 for k = 40, refused at its first left side
    assert len(multihoms(complete_graph(7))) == 1932 <= MAX_MULTIHOMS
    assert len(multihoms(cycle_graph(211))) == 4 * 211
    for k in (8, 40):
        start = time.perf_counter()
        with pytest.raises(CapacityExceededError,
                           match=f"^a graph on {k} vertices has more than "
                                 f"{MAX_MULTIHOMS} multihomomorphisms from K_2$"):
            multihoms(complete_graph(k))
        assert time.perf_counter() - start < 1


def test_multihom_validity_invariant():
    for g in (complete_graph(4), cycle_graph(5)):
        for m in multihoms(g):
            assert is_valid_multihom(m, g)
            assert not set(m.left) & set(m.right)


def test_hom_complex_k4_is_sphere():
    x = hom_complex(complete_graph(4))
    assert len(x.vertices) == 50
    assert x.euler_characteristic() == 2
    assert mod2_homology_ranks(x, top=2) == (1, 0, 1)
    assert x.has_free_involution()


def test_hom_complex_rejects_loops():
    loopy = type(complete_graph(2))(2, {(0, 0), (0, 1)})
    with pytest.raises(UnsupportedInputError):
        hom_complex(loopy)


def test_hom_complex_c3_isomorphic_to_gamma12():
    vm = canonical_cycle_iso(3)
    circle, target = gamma(12), hom_complex(cycle_graph(3))
    assert sorted(vm) == list(circle.vertices)
    assert len(target.vertices) == 12
    assert is_equivariant(circle, vm, involution(target))
    edge_images = {(vm[a], vm[b]) for a, b in labelled_cells(circle, 1)}
    assert edge_images == labelled_cells(target, 1)


def test_hom_complex_c5_counts():
    x = hom_complex(cycle_graph(5))
    assert len(x.vertices) == 20
    assert x.n_cells(1) == 20
    assert x.n_cells(2) == 0
    assert x.euler_characteristic() == 0


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_cycle_iso_full_verification(ell):
    vm = canonical_cycle_iso(ell)
    assert len(set(vm.values())) == 4 * ell
    # conjugates the shift involution to the swap involution
    for k in range(4 * ell):
        assert vm[(k + 2 * ell) % (4 * ell)] == vm[k].swap()
    # each step takes the canonically least comparable multihom not yet visited
    elements = multihoms(cycle_graph(ell))
    assert vm[0] == Multihom((0,), (1,))
    for k in range(1, 4 * ell):
        options = [m for m in elements if (m.le(vm[k - 1]) or vm[k - 1].le(m))
                   and m != vm[k - 1] and m not in [vm[j] for j in range(k)]]
        assert vm[k] == min(options, key=Multihom.sort_key)


def test_cycle_iso_rejects_even():
    with pytest.raises(InvalidParameterError):
        canonical_cycle_iso(4)


def test_cycle_iso_refuses_an_edge_sent_to_a_non_edge(monkeypatch):
    """A chord from ({0},{1}) up to ({1,2},{0}), with its mate, leaves the
    walk as it was: at each end of a chord the walk's own next vertex is
    less, or the other end is visited.  So the walk passes the checks on
    its own steps, and only the comparison of the edges refuses it, since
    no edge of the circle goes to a chord."""
    circle = hom_complex(cycle_graph(3))
    at = circle.vertices.index
    low, high = Multihom((0,), (1,)), Multihom((1, 2), (0,))
    ups = [list(up) for up in circle.ups]
    for u, v in ((low, high), (low.swap(), high.swap())):
        ups[at(u)] = sorted(ups[at(u)] + [at(v)], key=circle.vertices.__getitem__)
    chorded = SimplicialSet(circle.vertices, circle.position_cells(0), 3,
                            circle.antipode, ups)
    assert chorded.n_cells(1) == circle.n_cells(1) + 2
    monkeypatch.setattr(homcomplexes, "hom_complex", lambda g: chorded)
    with pytest.raises(InternalError, match="^walk is not bijective on edges$"):
        canonical_cycle_iso(3)


def test_iota_unary_identity_and_singletons():
    c3 = cycle_graph(3)
    m = Multihom((0,), (1,))
    assert iota((m,), c3) == m
    m2 = Multihom((1,), (2,))
    pw = power(c3, 2)
    bundled = iota((m, m2), c3)
    assert bundled == Multihom((pw.encode((0, 1)),), (pw.encode((1, 2)),))


def test_iota_injective_exhaustive():
    c3 = cycle_graph(3)
    mh = multihoms(c3)
    images = {iota(pair, c3) for pair in iproduct(mh, repeat=2)}
    assert len(images) == 144


def test_iota_monotone():
    c3 = cycle_graph(3)
    mh = multihoms(c3)
    rng = random.Random(3)
    pairs = [(a, b) for a in mh for b in mh if a.le(b)]
    for a, b in rng.sample(pairs, 20):
        for other in rng.sample(mh, 4):
            assert iota((a, other), c3).le(iota((b, other), c3))


def test_mu_prime_unary_identity():
    c3 = cycle_graph(3)
    ident = GraphHom(power(c3, 1), c3, (0, 1, 2))
    for m in multihoms(c3):
        assert mu_prime(ident, (m,)) == m


def test_mu_prime_dictator_depends_on_first():
    c3, k4 = cycle_graph(3), complete_graph(4)
    p2 = power(c3, 2)
    e = next(iter(enumerate_homs(c3, k4)))
    dictator = GraphHom(p2, k4, [e.values[decode(p2, i)[0]] for i in range(9)])
    mh = multihoms(c3)
    for m1 in mh:
        results = {mu_prime(dictator, (m1, m2)) for m2 in mh}
        assert len(results) == 1


def test_mu_prime_lax_inequality_exhaustive():
    c3, k4 = cycle_graph(3), complete_graph(4)
    p2 = power(c3, 2)
    mh = multihoms(c3)
    pi = MinorSpec(2, 1, (1, 1))
    polys = list(enumerate_homs(p2, k4))
    rng = random.Random(11)
    for f in rng.sample(polys, 25):
        fpi = minor(f, pi)
        for m in mh:
            assert mu_prime(fpi, (m,)).le(mu_prime(f, (m, m)))


def test_mu_prime_factors_through_iota():
    # pushing the bundled multihomomorphism through f gives the same result
    c3, k4 = cycle_graph(3), complete_graph(4)
    p2 = power(c3, 2)
    mh = multihoms(c3)
    f = next(iter(enumerate_homs(p2, k4)))
    for m1, m2 in iproduct(mh[::3], mh[::3]):
        bundled = iota((m1, m2), c3)
        pushed = Multihom(tuple(sorted({f.values[v] for v in bundled.left})),
                          tuple(sorted({f.values[v] for v in bundled.right})))
        assert pushed == mu_prime(f, (m1, m2))


def test_mu_prime_validity():
    c3, k4 = cycle_graph(3), complete_graph(4)
    p2 = power(c3, 2)
    mh = multihoms(c3)
    f = next(iter(enumerate_homs(p2, k4)))
    for m1, m2 in iproduct(mh[:4], mh[:4]):
        out = mu_prime(f, (m1, m2))
        assert is_valid_multihom(out, k4)


def test_search_t_properties():
    t = search_t_colouring()
    x = hom_complex(complete_graph(4))
    map_from_colouring(x, t.colours)
    # the bits are in the order of the labels, which is the complex's
    assert t.labels == x.vertices
    vm = colour_dict(x, t.colours)
    assert is_equivariant(x, vm)
    for m in multihoms(complete_graph(4)):
        assert vm[m] != vm[m.swap()]  # antipodal vertices get opposite colours


def test_search_t_writes_down_the_first_solution_of_the_search():
    assert list(search_t_colouring().colours) == search_t_reference()
    assert not labelled_cells(hom_complex(complete_graph(4)), 3)


def test_mu_arity_one_valid():
    pipe = CyclePipeline(3)
    c3, k4 = cycle_graph(3), complete_graph(4)
    for f in enumerate_homs(power(c3, 1), k4):
        colours = colour_dict(torus(12, 1), mu_map(pipe, f))
        assert is_equivariant(torus(12, 1), colours)
        assert set(colours.values()) == {YELLOW, BLUE}  # equivariance forbids constants


def test_mu_checks_polymorphism():
    pipe = CyclePipeline(3)
    k4 = complete_graph(4)
    with pytest.raises(InvalidParameterError):
        mu_map(pipe, GraphHom(power(cycle_graph(5), 1), k4, (0, 1, 0, 1, 2)))


def test_mu_colours_matches_reference_loop():
    pipe = CyclePipeline(3)
    c3, k4 = cycle_graph(3), complete_graph(4)
    unary = list(enumerate_homs(power(c3, 1), k4))
    binary = list(enumerate_homs(power(c3, 2), k4))
    ternary = sample_homs(power(c3, 3), k4, 40, random.Random(5))
    assert (len(unary), len(binary), len(ternary)) == (24, 1056, 40)
    for f in unary + binary + ternary:
        x = torus(12, f.domain.exponent)
        reference = mu_colours_reference(pipe, f)
        assert tuple(reference) == tuple(vertex_labels(x))
        assert pipe.mu_colours(f) == colour_bits(x, reference)


def test_mu_bits_rejects_a_side_pair_that_is_no_multihom():
    pipe = CyclePipeline(3)
    constant = GraphHom(power(cycle_graph(3), 2), complete_graph(4), (0,) * 9,
                        check=False)
    # each side pair would be ({0}, {0}); the edge check of an unchecked map
    # refuses the map before any of them is read
    with pytest.raises(InvalidParameterError, match="not preserved"):
        pipe.mu_lanes([constant])


@pytest.mark.parametrize("ell, n, count, seed", [
    (3, 1, None, None), (3, 2, None, None), (3, 3, 40, 5), (5, 2, 20, 3), (5, 3, 6, 3)])
def test_mu_bits_matches_the_per_side_loop(ell, n, count, seed):
    """The column-wise masks of mu_lanes on one map against one set of
    indices per side: every arity-1 and binary map at ell = 3, seeded
    ternary maps, and seeded maps at ell = 5."""
    pipe = CyclePipeline(ell)
    dom, k4 = power(cycle_graph(ell), n), complete_graph(4)
    maps = (list(enumerate_homs(dom, k4)) if count is None
            else sample_homs(dom, k4, count, random.Random(seed)))
    assert len(maps) == (count or {1: 24, 2: 1056}[n])
    for f in maps:
        assert list(pipe.mu_lanes([f])) == mu_bits_reference(pipe, f)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mu_lanes_at_the_slice_positions_matches_the_per_side_loop(n):
    """mu_lanes on many maps and ``phi``'s readers ``CellLanes`` and
    ``SideMasks`` on each, at the slice positions, against the per-side
    loop at those positions; gamma(12)^5 is over the cell limit, and none
    of them builds it."""
    pipe = CyclePipeline(3)
    tables = torus_tables(12, n)
    readers = [CellLanes(pipe, n, tables), SideMasks(pipe, n, tables)]
    maps = sample_homs(power(cycle_graph(3), n), complete_graph(4), 6, random.Random(n))
    assert len(maps) == 6
    blob = pipe.mu_lanes(maps)
    for k, f in enumerate(maps):
        bits = mu_bits_reference(pipe, f, tables.positions)
        assert [blob[p * len(maps) + k] for p in tables.positions] == bits
        for reader in readers:
            assert list(pipe.read_t(reader.keys(f.values))) == [bits[j] for j in tables.slots]


@pytest.mark.parametrize("ell", [3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_side_table_matches_iota_at_each_vertex(ell, n):
    """The sides summed from per-coordinate terms against iota's sorted
    product sets, at every vertex of gamma(4*ell)^n and at the positions
    the degree slices read: the same columns, lefts and rights.  Only the
    table of every vertex is cached; one at the positions is built for the
    reader that keeps it."""
    pipe = CyclePipeline(ell)
    try:
        at = torus_tables(pipe.period, n).positions
        assert pipe.side_table(n, None) == side_table_reference(pipe, n, None)
        assert pipe.side_table(n, at) == side_table_reference(pipe, n, at)
        assert pipe.side_table(n, None) is pipe.side_table(n, None)
        assert pipe.side_table(n, at) is not pipe.side_table(n, at)
    finally:
        oracles._iota_sides.cache_clear()


def test_mu_lanes_refuses_what_check_polymorphism_refuses():
    pipe = CyclePipeline(3)
    k4 = complete_graph(4)
    binary = next(iter(enumerate_homs(power(cycle_graph(3), 2), k4)))
    ternary = next(iter(enumerate_homs(power(cycle_graph(3), 3), k4)))
    # vertices 0 = (0, 0) and 4 = (1, 1) of C_3^2 are adjacent
    bad_edge = GraphHom(binary.domain, k4, binary.values[4:5] + binary.values[1:],
                        check=False)
    other_cycle = next(iter(enumerate_homs(power(cycle_graph(5), 2), k4)))
    with pytest.raises(InvalidParameterError, match="arities"):
        pipe.mu_lanes([binary, ternary])
    with pytest.raises(InvalidParameterError, match="not preserved"):
        pipe.mu_lanes([binary, bad_edge])
    with pytest.raises(InvalidParameterError, match="not a polymorphism"):
        pipe.mu_lanes([other_cycle])
    with pytest.raises(InvalidParameterError, match="at least one map"):
        pipe.mu_lanes([])


def test_mu_lanes_refuses_an_unlabelled_t_index():
    # a constant map marked checked sends every vertex to the side pair
    # ({0}, {0}), whose t-index 0x11 is no multihomomorphism of K_4
    pipe = CyclePipeline(3)
    binary = next(iter(enumerate_homs(power(cycle_graph(3), 2), complete_graph(4))))
    constant = GraphHom(binary.domain, complete_graph(4), (0,) * 9, check=False)
    constant.checked = True
    assert pipe.table[0x11] == UNLABELLED
    with pytest.raises(InternalError, match="not a multihomomorphism"):
        pipe.mu_lanes([binary, constant])
    assert pipe.mu_lanes([binary]) == bytes(mu_bits_reference(pipe, binary))


def test_mu_bits_names_the_first_bad_vertex_as_the_per_side_loop():
    """Maps off the polymorphisms, each with one value changed: mu_lanes and
    the per-side loop both refuse a map with the same ``not preserved``
    message of the edge check, or both pass it with the same bits."""
    pipe = CyclePipeline(3)
    dom, k4 = power(cycle_graph(3), 2), complete_graph(4)
    rng = random.Random(7)
    failed = 0
    for f in rng.sample(list(enumerate_homs(dom, k4)), 30):
        values = list(f.values)
        values[rng.randrange(len(values))] = rng.randrange(4)
        g = GraphHom(dom, k4, tuple(values), check=False)
        outcomes = []
        for read in (lambda g: list(pipe.mu_lanes([g])),
                     lambda g: mu_bits_reference(pipe, g)):
            try:
                outcomes.append(read(g))
            except InvalidParameterError as exc:
                assert "not preserved" in str(exc)
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        failed += isinstance(outcomes[0], str)
    assert failed >= 10


def test_a_colour_that_is_not_a_bit_is_refused_when_made():
    # a 2 would read as blue in a truth test, and as neither colour here
    t = search_t_colouring()
    colours = [2 * b for b in t.colours]
    first = t.labels[t.colours.index(1)]
    assert first == Multihom((1,), (0,))
    with pytest.raises(InvalidParameterError) as exc:
        TColouring(colours)
    assert str(exc.value) == "vertex Multihom(left=(1,), right=(0,)) lacks a yellow/blue colour"
    # one 2 among the bits is named by its own label, the eighth
    with pytest.raises(InvalidParameterError) as exc:
        TColouring([2 if k == 7 else b for k, b in enumerate(t.colours)])
    assert str(exc.value) == "vertex Multihom(left=(2,), right=(1,)) lacks a yellow/blue colour"


@pytest.mark.parametrize("make, message", [
    (lambda colours: [str(b) for b in colours], "colours must be a list of ints"),
    (lambda colours: ["x"] * len(colours), "colours must be a list of ints"),
    (lambda colours: None, "colours must be a list of ints"),
    (lambda colours: 5, "colours must be a list of ints"),
    (lambda colours: [bool(b) for b in colours], "colours must be a list of ints"),
    (lambda colours: [float(b) for b in colours], "colours must be a list of ints"),
    (lambda colours: [2 * b for b in colours],
     "vertex Multihom(left=(1,), right=(0,)) lacks a yellow/blue colour"),
    (lambda colours: colours[:-1], "colour vector length mismatch"),
], ids=["string-bits", "string-x", "missing-colours", "non-list-colours", "bool-colours",
        "float-colours", "int-not-a-bit", "short"])
def test_a_malformed_colouring_is_refused_when_made(make, message):
    """Colours that are not one 0/1 int per vertex are refused, never
    coerced: a string, bool or float stands for no colour."""
    with pytest.raises(InvalidParameterError) as exc:
        TColouring(make(list(search_t_colouring().colours)))
    assert str(exc.value) == message
