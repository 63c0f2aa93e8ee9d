import random
import re
from types import SimpleNamespace
from itertools import product

import pytest

from equihom import degrees, simplicial
from equihom.degrees import (CELL_LANES_BUDGET, CellLanes, OddVector, SideMasks,
                             TorusComplex, count_deg1, deg_vector,
                             find_colour_swapping_edge, monomial_colouring,
                             one_map_reader, phi, torus_complex, torus_tables,
                             winding_colouring)
from equihom.errors import (AlternatingSimplexError, CapacityExceededError,
                            EquihomError, InternalError,
                            InvalidParameterError, InvariantViolationError,
                            NotEquivariantError)
from equihom.graphs import (Graph, GraphHom, MinorSpec, PowerGraph, complete_graph,
                            cycle_graph, enumerate_homs, minor, power, sample_homs)
from equihom.homcomplexes import (UNLABELLED, CyclePipeline, Multihom, TColouring,
                                  _t_index, hom_complex, mu_prime, search_t_colouring)
from equihom.simplicial import (SimplicialSet, Torus, equivariant_colourings,
                                map_from_colouring, torus)

import oracles
from oracles import (BLUE, YELLOW, band_reference, brute_deg1, colour_bits,
                     composite_mapping, count_deg1_reference, decode, gamma_power,
                     gamma_product, involution, labelled_cells, minor_degree_vector,
                     minor_map, monomial_colouring_reference, mu_colours_reference,
                     phi_reference, shift_coordinate, slice_deg1_reference, vertex_labels,
                     winding_colouring_reference)


def as_bits(col, L):
    """The blue bit of each vertex tuple of gamma(L)^2, looked up by tuple in
    the row-major bits ``col``."""
    return dict(zip(vertex_labels(torus(L, 2)), col)).__getitem__


def random_equivariant_colouring(x, rng):
    """Antipodes opposite; one coin per orbit, first orbit vertex in vertex
    order; the blue bits in position order."""
    nu = involution(x)
    col = {}
    for v in vertex_labels(x):
        if v not in col:
            bit = rng.random() < 0.5
            col[v] = BLUE if bit else YELLOW
            col[nu[v]] = YELLOW if bit else BLUE
    return colour_bits(x, col)


def test_band_identity_all_sizes():
    for L in (4, 8, 12):
        for Lp in (4, 8, 12):
            TorusComplex(L, Lp)  # construction verifies the boundary identity


PLANE_SIDES = [(L, Lp) for L in (4, 8, 12) for Lp in (4, 8, 12)] + [(12, 36), (8, 24), (20, 20)]


@pytest.mark.parametrize("L, Lp", PLANE_SIDES)
def test_the_written_plane_is_the_band_of_the_built_torus(L, Lp):
    """x1 and the squares written by arithmetic against the cycle and band
    read off gamma(L) x gamma(L') and paired by middles, each square as
    (p, {q1, q2}, r)."""
    x1, _, squares = band_reference(L, Lp)
    torus = TorusComplex(L, Lp)

    def shapes(squares):
        return sorted((p, sorted((q1, q2)), r) for p, q1, q2, r in squares)

    assert sorted(torus.x1) == sorted(x1)
    assert shapes(torus.squares) == shapes(squares)
    assert len(torus.squares) == L * Lp // 2


@pytest.mark.parametrize("L", [4, 8, 12])
@pytest.mark.parametrize("Lp", [4, 8, 12])
def test_paired_kernel_counts_the_band_one_triangle_at_a_time(L, Lp):
    torus = torus_complex(L, Lp)
    x1, b1, _ = band_reference(L, Lp)
    assert 2 * len(torus.squares) == len(b1)
    rng = random.Random(100 * L + Lp)
    seen = set()
    for _ in range(40):
        density = rng.random()
        bits = [rng.random() < density for _ in range(L * Lp)]
        degree = count_deg1(bits, torus.x1, torus.squares)
        assert degree == count_deg1_reference(bits, x1, b1)
        seen.add(degree)
    assert seen == {0, 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_paired_kernel_counts_every_slice_one_triangle_at_a_time(n):
    L = 12
    tables = torus_tables(L, n)
    rng = random.Random(n)
    seen = set()
    for _ in range(10):
        density = rng.random()
        bits = [int(rng.random() < density) for _ in range(L ** n)]
        degrees = tables.degrees(list(map(bits.__getitem__, tables.positions)))
        assert degrees == [slice_deg1_reference(bits, L, n, i) for i in range(1, n + 1)]
        seen.update(degrees)
    assert seen == {0, 1}


@pytest.mark.parametrize("ell, n, count", [(3, 2, None), (3, 3, 40), (3, 4, 40),
                                            (5, 2, 40), (5, 3, 20), (7, 2, 40)])
def test_lane_kernels_match_the_one_map_paths(ell, n, count):
    """mu_lanes on many maps against mu_lanes on each map, lane by lane at
    every vertex, and against phi's two one-map readers, which pack cells:
    the t bits of ``CellLanes`` and of ``SideMasks`` at each slot are the
    map's byte at the slot's position, and ``slot_degrees`` of them, the
    lane degrees and phi are ``TorusTables.degrees`` of the lane.  Every
    binary map at ell = 3, seeded maps at arity 3 and 4 at ell = 3 and at
    arity 2 and 3 at ell = 5, and seeded binary maps at ell = 7, whose
    slices have more than 255 cells."""
    pipe = CyclePipeline(ell)
    dom, k4 = power(cycle_graph(ell), n), complete_graph(4)
    maps = (list(enumerate_homs(dom, k4)) if count is None
            else sample_homs(dom, k4, count, random.Random(ell + n)))
    assert len(maps) == (count or 1056)
    size = len(maps)
    blob = pipe.mu_lanes(maps)
    assert len(blob) == size * pipe.period ** n
    tables = torus_tables(pipe.period, n)
    readers = [CellLanes(pipe, n, tables), SideMasks(pipe, n, tables)]
    lanes = []
    for k, f in enumerate(maps):
        assert blob[k::size] == pipe.mu_lanes([f])
        bits = [blob[p * size + k] for p in tables.positions]
        degrees = tables.degrees(bits)
        for reader in readers:
            blue = pipe.read_t(reader.keys(f.values))
            assert list(blue) == [bits[j] for j in tables.slots]
            assert tables.slot_degrees(int.from_bytes(blue, "little")) == degrees
        assert list(phi(f, pipe).bits) == degrees
        lanes.append(tuple(degrees))
    assert len(set(lanes)) > 1
    columns = [blob[p * size:(p + 1) * size] for p in tables.positions]
    assert tables.lane_degrees(columns) == lanes


@pytest.mark.parametrize("ell, n, reader", [(3, 5, CellLanes), (9, 3, CellLanes),
                                             (7, 4, SideMasks), (41, 2, SideMasks)])
def test_phi_reads_with_cell_lanes_while_their_masks_fit_the_budget(ell, n, reader):
    # ell^n masks of one byte per slot: 0.4 MB at (3, 5), 5.8 MB at (9, 3),
    # 15.6 MB at (7, 4) and 182 MB at (41, 2)
    pipe = CyclePipeline(ell)
    size = ell ** n * len(torus_tables(pipe.period, n).slots)
    assert (size <= CELL_LANES_BUDGET) == (reader is CellLanes)
    assert type(one_map_reader(pipe, n)) is reader


@pytest.mark.parametrize("budget, reader", [(CELL_LANES_BUDGET, CellLanes), (0, SideMasks)])
def test_phi_refuses_an_unlabelled_byte_it_reads_on_every_call(binary_maps, monkeypatch,
                                                               budget, reader):
    """Negative control: one labelled byte of the t table, the one mu(f)
    reads at the torus vertex (0, 0), set to UNLABELLED.  phi refuses f
    with the InternalError of ``mu_lanes``, stores nothing, and refuses it
    again on the next call, with either one-map reader."""
    monkeypatch.setattr("equihom.degrees.CELL_LANES_BUDGET", budget)
    pipe = CyclePipeline(3)
    f, g = binary_maps[0], binary_maps[1]
    phi(g, pipe)
    memo = dict(pipe.phi_memo)
    key = _t_index(mu_prime(f, [pipe.iso_map[0]] * 2))
    assert pipe.table[key] != UNLABELLED
    table = bytearray(pipe.table)
    table[key] = UNLABELLED
    pipe.table = bytes(table)
    with pytest.raises(InternalError) as from_lanes:
        pipe.mu_lanes([f])
    for _ in range(2):
        with pytest.raises(InternalError) as from_phi:
            phi(f, pipe)
        assert str(from_phi.value) == str(from_lanes.value)
        assert pipe.phi_memo == memo and f.values not in pipe.phi_memo
    assert phi(g, pipe) is memo[g.values]
    assert type(pipe.phi_readers[2]) is reader


def test_packed_kernel_counts_each_lane_past_one_byte():
    # 300 edges and 60 squares over 8 vertices: a lane with bits[0] set and
    # bits[1] clear meets at least 300 blue-yellow edges, more than a byte
    # holds, and its parity still stays in its own byte
    rng = random.Random(3)
    x1 = [(0, 1)] * 300 + [tuple(rng.sample(range(8), 2)) for _ in range(40)]
    squares = [tuple(rng.sample(range(8), 4)) for _ in range(60)]
    maps = [[rng.randrange(2) for _ in range(8)] for _ in range(30)]
    for m in maps[:10]:
        m[0], m[1] = 1, 0
    scalar = [count_deg1(m, x1, squares) for m in maps]
    assert len(set(scalar)) == 2
    packed = count_deg1([int.from_bytes(bytes(column), "little") for column in zip(*maps)],
                        x1, squares)
    assert list(packed.to_bytes(len(maps), "little")) == scalar


def _dropping_a_square(k):
    def damage(squares):
        del squares[k]
    return damage


def _moving_a_middle(k):
    def damage(squares):
        p, q1, q2, r = squares[k]
        squares[k] = (p, q2, q2, r)
    return damage


@pytest.mark.parametrize("damage", [_dropping_a_square(0), _dropping_a_square(-1),
                                    _moving_a_middle(0), _moving_a_middle(-1)],
                         ids=["drop-first", "drop-last", "move-first", "move-last"])
def test_a_damaged_band_is_refused_by_the_band_identity(damage, monkeypatch):
    """A writer that drops one square, or moves one middle onto the other,
    fails the band identity on every plane it writes."""
    check = TorusComplex._check_band

    def damaged(torus):
        damage(torus.squares)
        check(torus)

    monkeypatch.setattr(TorusComplex, "_check_band", damaged)
    for L, Lp in PLANE_SIDES:
        with pytest.raises(InvariantViolationError,
                           match=r"^band boundary != cycle \+ antipodal cycle$"):
            TorusComplex(L, Lp)


@pytest.mark.parametrize("sides, message", [
    ((6, 4), "gamma(L) needs L >= 4 divisible by 4"),
    ((4, 0), "gamma(L) needs L >= 4 divisible by 4"),
    ((2048, 4096), "torus of 2 circles has more vertices than the cell limit 4194304"),
])
def test_the_plane_refuses_what_the_torus_refuses(sides, message):
    with pytest.raises(EquihomError) as exc:
        TorusComplex(*sides)
    assert str(exc.value) == message
    with pytest.raises(type(exc.value), match=re.escape(message)):
        gamma_product(sides)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_degree_tables_build_no_torus(n, monkeypatch):
    """The plane of every slice is written down: with every torus refused,
    ``torus_tables`` still builds at each arity."""
    def refuse(sides):
        raise AssertionError(f"built the torus {sides}")

    # no vertex of a torus is listed, and no gamma(12)^n made
    monkeypatch.setattr(simplicial, "product", refuse)
    monkeypatch.setattr(degrees, "torus", refuse)
    torus_tables.cache_clear()
    torus_complex.cache_clear()
    try:
        tables = torus_tables(12, n)
    finally:
        torus_tables.cache_clear()
        torus_complex.cache_clear()
    assert len(tables.slices) == n


@pytest.mark.parametrize("L, Lp", [(4, 4), (8, 12)])
def test_torus_complex_leaves_the_vertex_view_unbuilt(L, Lp, monkeypatch):
    # the cycle, the band and the band identity all live on positions: no
    # vertex of the torus is listed and no simplicial set is built for them
    def refuse(*args):
        raise AssertionError("listed the vertices of the plane")

    monkeypatch.setattr(simplicial, "product", refuse)
    monkeypatch.setattr(SimplicialSet, "__init__", refuse)
    torus_complex.cache_clear()
    try:
        plane = torus_complex(L, Lp)
    finally:
        torus_complex.cache_clear()
    assert type(plane.grid) is Torus and plane.grid.sides == (L, Lp)
    assert not hasattr(plane.grid, "antipode") and not hasattr(plane.grid, "vertices")


def test_a_winding_past_the_vertex_limit_is_refused_before_any_vertex(monkeypatch):
    # 4^12 vertices: the count is read one factor at a time, with no torus
    # made and no vertex listed
    def no_listing(*args):
        raise AssertionError("listed a vertex of a torus over the cell limit")

    monkeypatch.setattr(simplicial, "Torus", no_listing)
    monkeypatch.setattr(simplicial, "product", no_listing)
    torus.cache_clear()
    with pytest.raises(CapacityExceededError, match=r"^torus gamma\(4\)\^12 has more "
                                                    "vertices than the cell limit 4194304$"):
        winding_colouring(4, 12, 1)


def test_deg1_winding_is_one():
    for L in (4, 8):
        plane = torus_complex(L, L)
        col = winding_colouring(L, 2, 1)
        assert plane.deg1(col) == 1
        assert brute_deg1(as_bits(col, L), L, L) == 1


def test_deg1_second_coordinate_only_is_zero():
    plane = torus_complex(4, 4)
    col = winding_colouring(4, 2, 2)
    assert plane.deg1(col) == 0
    assert brute_deg1(as_bits(col, 4), 4, 4) == 0


def test_deg1_matches_brute_force_exhaustively():
    plane = torus_complex(4, 4)
    for col in equivariant_colourings(torus(4, 2)):
        assert plane.deg1(col) == brute_deg1(as_bits(col, 4), 4, 4)


def test_exhaustive_battery_odd_weight():
    distribution = {}
    for col in equivariant_colourings(torus(4, 2)):
        map_from_colouring(torus(4, 2), col)
        alpha = deg_vector(col, L=4, n=2)
        assert alpha.weight % 2 == 1
        distribution[alpha.bits] = distribution.get(alpha.bits, 0) + 1
    assert sum(distribution.values()) == 256
    assert set(distribution) == {(1, 0), (0, 1)}


def test_minor_map_identity_and_swap():
    col = winding_colouring(4, 2, 1)
    ident = minor_map(col, MinorSpec(2, 2, (1, 2)), L=4, n=2)
    assert ident == col
    swap = minor_map(col, MinorSpec(2, 2, (2, 1)), L=4, n=2)
    assert len(swap) == len(col)
    assert all(swap[4 * a + b] == col[4 * b + a] for a in range(4) for b in range(4))


def test_minor_map_composition():
    it = equivariant_colourings(torus(4, 2))
    cols = [next(it) for _ in range(5)]
    pi = MinorSpec(2, 3, (2, 3))
    sigma = MinorSpec(3, 2, (1, 1, 2))
    for col in cols:
        lhs = minor_map(minor_map(col, pi, L=4, n=2), sigma, L=4, n=3)
        composite = MinorSpec(pi.n, sigma.m, composite_mapping(pi.mapping, sigma.mapping))
        rhs = minor_map(col, composite, L=4, n=2)
        assert lhs == rhs


def test_deg_vector_projection_units():
    for n in (1, 2, 3):
        for j in range(1, n + 1):
            col = winding_colouring(8, n, j)
            alpha = deg_vector(col, L=8, n=n)
            assert alpha.bits == tuple(1 if i == j else 0 for i in range(1, n + 1))


def test_deg_vector_arity_one_always_unit():
    for col in equivariant_colourings(torus(8, 1)):
        assert deg_vector(col, L=8, n=1).bits == (1,)


def test_deg_vector_requires_equivariance():
    with pytest.raises(NotEquivariantError):
        deg_vector(b"\1" * 16, L=4, n=2)


def test_deg_vector_odd_weight_sampled_gamma8():
    # exhaustive at L = 4 above; at L = 8 sample seeded equivariant colourings
    rng = random.Random(2026)
    x = torus(8, 2)
    for _ in range(40):
        col = random_equivariant_colouring(x, rng)
        alpha = deg_vector(col, L=8, n=2)  # odd weight asserted internally
        assert alpha.bits in {(1, 0), (0, 1)}


def test_deg1_invariant_under_double_shifts():
    # precomposing with the shift-a-coordinate-by-2 automorphisms fixes deg1
    plane = torus_complex(4, 4)
    x = torus(4, 2)
    for col in equivariant_colourings(x):
        base = plane.deg1(col)
        colours = dict(zip(vertex_labels(x), col))
        for i in (1, 2):
            shifted = bytes(colours[shift_coordinate(v, i, 4)] for v in vertex_labels(x))
            assert plane.deg1(shifted) == base


def test_odd_vector_invariants():
    with pytest.raises(InvariantViolationError):
        OddVector((1, 1))
    v = OddVector((1, 1, 1))
    assert v.weight == 3
    with pytest.raises(InvalidParameterError):
        v.minor(MinorSpec(2, 1, (1, 1)))


def test_oddvector_minor_rules():
    assert OddVector((1, 1, 1)).minor(MinorSpec(3, 1, (1, 1, 1))).bits == (1,)
    # pi(1) = 2 substitutes x_2 into the hot slot: the unit moves to position 2
    perm = MinorSpec(3, 3, (2, 3, 1))
    assert OddVector((1, 0, 0)).minor(perm).bits == (0, 1, 0)
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randrange(1, 7)
        bits = [rng.randrange(2) for _ in range(n)]
        if sum(bits) % 2 == 0:
            bits[rng.randrange(n)] ^= 1
        m = rng.randrange(1, n + 1)
        pi = MinorSpec(n, m, [rng.randrange(1, m + 1) for _ in range(n)])
        out = OddVector(bits).minor(pi)
        assert sum(out.bits) % 2 == 1  # parity of the total weight is preserved


def test_monomial_colourings_realize_patterns():
    realized = {}
    for n in (1, 2, 3):
        for support in _odd_supports(n):
            col = monomial_colouring(8, n, support)
            map_from_colouring(torus(8, n), col)
            alpha = deg_vector(col, L=8, n=n)
            expected = tuple(1 if j in support else 0 for j in range(1, n + 1))
            assert alpha.bits == expected, (n, support)
            realized.setdefault(n, []).append(alpha.bits)
    for n, vectors in realized.items():
        assert len(set(vectors)) == len(vectors)  # distinct patterns stay distinct


def _odd_supports(n):
    out = []
    for mask in range(1, 2 ** n):
        support = tuple(j + 1 for j in range(n) if mask >> j & 1)
        if len(support) % 2 == 1:
            out.append(support)
    return out


@pytest.mark.parametrize("L, n", [(8, 1), (8, 2), (8, 3), (4, 4)])
def test_the_written_colourings_are_the_vertex_references(L, n):
    """``winding_colouring`` by block repetition and ``monomial_colouring``
    by one pass over the positions give, in row-major order, the colours
    the references give vertex tuple by vertex tuple."""
    x = torus(L, n)
    for j in range(1, n + 1):
        assert winding_colouring(L, n, j) == colour_bits(x, winding_colouring_reference(L, n, j))
    supports = [s for s in _odd_supports(n) if len(s) < 3 or L >= 8]
    assert supports
    for support in supports:
        assert (monomial_colouring(L, n, support)
                == colour_bits(x, monomial_colouring_reference(L, n, support)))


def test_monomial_weight_three_needs_room():
    with pytest.raises(InvalidParameterError):
        monomial_colouring(4, 3, (1, 2, 3))


def test_phi_dictators_and_unary():
    pipe = CyclePipeline(3)
    c3, k4 = cycle_graph(3), complete_graph(4)
    for f in enumerate_homs(power(c3, 1), k4):
        assert phi(f, pipe).bits == (1,)
    p2 = power(c3, 2)
    e = next(iter(enumerate_homs(c3, k4)))
    for j in (1, 2):
        dictator = GraphHom(p2, k4, [e.values[decode(p2, i)[j - 1]] for i in range(9)])
        assert phi(dictator, pipe).bits == tuple(1 if i == j else 0 for i in (1, 2))


BINARY_MINORS = [MinorSpec(2, 1, (1, 1))] + [
    MinorSpec(2, 2, m) for m in ((1, 2), (2, 1), (1, 1), (2, 2))]


def test_phi_minor_compatibility_sampled():
    pipe = CyclePipeline(3)
    c3, k4 = cycle_graph(3), complete_graph(4)
    polys = list(enumerate_homs(power(c3, 2), k4))
    rng = random.Random(13)
    for f in rng.sample(polys, 30):
        alpha = phi(f, pipe)
        for pi in BINARY_MINORS:
            assert phi(minor(f, pi), pipe) == alpha.minor(pi)


@pytest.mark.parametrize("ell, n, count, seed", [(5, 2, 12, 5), (7, 2, 12, 7),
                                                 (5, 3, 6, 3)])
def test_phi_minor_compatibility_beyond_ell_3(ell, n, count, seed):
    """phi(f^pi) == phi(f)^pi on seeded samples where enumeration is out of
    reach: every binary minor at arity 2, and at arity 3 every minor onto
    two coordinates plus the collapse to one.  Budget: at most 5 s in all,
    most of it the index tables of gamma(20)^3."""
    pipe = CyclePipeline(ell)
    specs = BINARY_MINORS if n == 2 else (
        [MinorSpec(3, 2, m) for m in product((1, 2), repeat=3)]
        + [MinorSpec(3, 1, (1, 1, 1))])
    polys = sample_homs(power(cycle_graph(ell), n), complete_graph(4), count,
                        random.Random(seed))
    assert len(polys) == count
    for f in polys:
        alpha = phi(f, pipe)
        for pi in specs:
            assert phi(minor(f, pi), pipe) == alpha.minor(pi)


def test_find_colour_swapping_edge():
    plane = torus_complex(4, 4)
    col = winding_colouring(4, 2, 1)
    u, v = find_colour_swapping_edge(col, plane)
    assert as_bits(col, 4)(u) != as_bits(col, 4)(v)
    assert u[1] == v[1] and (v[0] - u[0]) % 4 == 1
    assert u[0] in (1, 3)  # crossing at L/2 - 1 or L - 1 for the winding map
    flat = winding_colouring(4, 2, 2)
    with pytest.raises(InvalidParameterError):
        find_colour_swapping_edge(flat, plane)


def test_swap_edge_found_for_all_degree_one_maps():
    plane = torus_complex(4, 4)
    found = 0
    for col in equivariant_colourings(torus(4, 2)):
        if plane.deg1(col) == 1:
            u, v = find_colour_swapping_edge(col, plane)
            assert as_bits(col, 4)(u) != as_bits(col, 4)(v)
            found += 1
    assert found == 128


@pytest.fixture(scope="module")
def pipe():
    return CyclePipeline(3)


@pytest.fixture(scope="module")
def binary_maps():
    return list(enumerate_homs(power(cycle_graph(3), 2), complete_graph(4)))


@pytest.fixture(scope="module")
def ternary_maps():
    return sample_homs(power(cycle_graph(3), 3), complete_graph(4), 40,
                       random.Random(11))


def test_check_polymorphism_compares_hand_built_graphs_by_value(pipe, binary_maps):
    # the shared templates take the identity path of Graph.__eq__; a graph
    # built by hand is still compared by its vertices and edges
    c3 = Graph(3, {(0, 1), (1, 2), (2, 0)})
    k4 = Graph(4, {(i, j) for i in range(4) for j in range(4) if i != j})
    assert c3 is not cycle_graph(3) and k4 is not complete_graph(4)
    f = binary_maps[7]
    hand_built = GraphHom(PowerGraph(c3, 2), k4, f.values)
    assert hand_built.domain.base is c3
    assert pipe.check_polymorphism(hand_built) == 2
    assert phi(hand_built, pipe) == phi(f, pipe)
    c5_base = GraphHom(power(cycle_graph(5), 1), complete_graph(4), (0, 1, 0, 1, 2))
    with pytest.raises(InvalidParameterError, match="not a polymorphism over this cycle"):
        pipe.check_polymorphism(c5_base)
    k5_codomain = GraphHom(power(c3, 1), complete_graph(5), (0, 1, 2))
    with pytest.raises(InvalidParameterError, match="codomain must be the 4-clique"):
        pipe.check_polymorphism(k5_codomain)


def test_a_memoised_phi_still_checks_the_domain_and_codomain(binary_maps):
    """Once phi(f) is memoised under f's values, the same values over an
    unequal power, C_3 less an edge squared, or into K_5 are still refused;
    over a hand-built C_3 and K_4 equal to the templates they are accepted
    and read the memo."""
    pipe = CyclePipeline(3)
    f = binary_maps[5]
    alpha = phi(f, pipe)
    assert pipe.phi_memo[f.values] is alpha
    on_a_path = GraphHom(power(Graph(3, {(0, 1), (1, 2)}), 2), complete_graph(4), f.values)
    with pytest.raises(InvalidParameterError, match="not a polymorphism over this cycle"):
        phi(on_a_path, pipe)
    into_k5 = GraphHom(f.domain, complete_graph(5), f.values)
    with pytest.raises(InvalidParameterError, match="codomain must be the 4-clique"):
        phi(into_k5, pipe)
    c3 = Graph(3, {(0, 1), (1, 2), (2, 0)})
    k4 = Graph(4, {(i, j) for i in range(4) for j in range(4) if i != j})
    assert phi(GraphHom(PowerGraph(c3, 2), k4, f.values), pipe) is alpha
    assert len(pipe.phi_memo) == 1


def test_deg_vector_matches_minor_formula_gamma4_squared():
    count = 0
    for col in equivariant_colourings(torus(4, 2)):
        assert list(deg_vector(col, L=4, n=2).bits) == minor_degree_vector(col, 4, 2)
        count += 1
    assert count == 256


def test_deg_vector_matches_minor_formula_gamma8_cubed():
    # random equivariant colourings need not be simplicial maps, so the raw
    # degree vector may have even weight; deg_vector must then refuse it
    rng = random.Random(8)
    x = torus(8, 3)
    parities = set()
    for _ in range(60):
        col = random_equivariant_colouring(x, rng)
        expected = minor_degree_vector(col, 8, 3)
        parities.add(sum(expected) % 2)
        if sum(expected) % 2:
            assert list(deg_vector(col, L=8, n=3).bits) == expected
        else:
            with pytest.raises(InvariantViolationError):
                deg_vector(col, L=8, n=3)
    assert parities == {0, 1}


def test_deg_vector_rejects_unknown_colour():
    col = bytearray(winding_colouring(4, 2, 1))
    col[1], col[11] = 2, 3  # the vertices (0, 1) and (2, 3)
    with pytest.raises(InvalidParameterError, match="yellow/blue"):
        deg_vector(col, L=4, n=2)


def _map_on(sides):
    """The blue bits of a valid map on gamma(L_1) x ... into sigma(2): blue
    on the lower half of the first circle."""
    x = Torus(sides)
    half = sides[0] // 2
    col = colour_bits(x, {v: BLUE if v[0] < half else YELLOW for v in vertex_labels(x)})
    map_from_colouring(x, col)
    return col


def _missing_origin(L, n):
    """A winding colouring without the bit of the origin, one bit short."""
    return winding_colouring(L, n, 1)[1:]


def _foreign_key(L, n):
    """A winding colouring with one bit past the last position."""
    return winding_colouring(L, n, 1) + b"\1"


# a bit string has a value at every position it has, so a colouring of
# another torus, one missing a vertex and one with a bit past the torus are
# each refused on their length alone
@pytest.mark.parametrize("call", [
    lambda: deg_vector(_map_on((8, 12)), 12, 2),
    lambda: deg_vector(_map_on((8, 12)), 8, 2),
    lambda: torus_complex(8, 8).deg1(_map_on((4, 4))),
    lambda: deg_vector(_missing_origin(4, 2), 4, 2),
    lambda: torus_complex(4, 4).deg1(_missing_origin(4, 2)),
    lambda: deg_vector(_foreign_key(4, 2), 4, 2),
    lambda: torus_complex(4, 4).deg1(_foreign_key(4, 2)),
    lambda: map_from_colouring(torus(4, 2), _foreign_key(4, 2)),
    lambda: map_from_colouring(torus(4, 2), list(_missing_origin(4, 2))),
], ids=["map-on-8x12-read-at-12", "map-on-8x12-read-at-8", "map-on-4x4-read-at-8",
        "deg-vector-missing-vertex", "deg1-missing-vertex", "deg-vector-foreign-key",
        "deg1-foreign-key", "map-from-colouring-foreign-key",
        "map-from-colouring-missing-vertex-as-a-list"])
def test_colourings_off_the_torus_are_refused(call):
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert type(exc.value) is InvalidParameterError
    assert str(exc.value) == "map domain is not this torus"


def _with_a_2(bits, position):
    bits = bytearray(bits)
    bits[position] = 2
    return bytes(bits)


# the three readers of a torus colouring, each on gamma(8)^2
COLOURING_READERS = {
    "map_from_colouring": lambda bits: map_from_colouring(torus(8, 2), bits),
    "deg_vector": lambda bits: deg_vector(bits, 8, 2),
    "deg1": lambda bits: torus_complex(8, 8).deg1(bits),
}


@pytest.mark.parametrize("reader", sorted(COLOURING_READERS))
@pytest.mark.parametrize("bits, message", [
    (_with_a_2(winding_colouring(8, 2, 1), 8 * 5 + 3),
     "vertex (5, 3) lacks a yellow/blue colour"),
    (list(_with_a_2(_with_a_2(winding_colouring(8, 2, 1), 63), 17)),
     "vertex (2, 1) lacks a yellow/blue colour"),
    (_with_a_2(b"\0" + winding_colouring(8, 2, 1)[1:], 8 * 5 + 3),
     "vertex (5, 3) lacks a yellow/blue colour"),
], ids=["a-2-at-(5,3)", "two-2s-in-a-list", "a-2-behind-an-antipodal-clash"])
def test_a_2_is_named_by_its_first_position_in_every_reader(reader, bits, message):
    """A value other than 0 or 1 is named by the label of its first
    position in ``map_from_colouring``, ``deg_vector`` and ``deg1`` alike,
    also where the origin and its antipode share a colour, since each reader
    checks the colours before the antipodes; a colouring of the wrong length
    is refused by each of them in ``test_colourings_off_the_torus_are_refused``."""
    with pytest.raises(InvalidParameterError) as exc:
        COLOURING_READERS[reader](bits)
    assert type(exc.value) is InvalidParameterError
    assert str(exc.value) == message


def test_phi_equals_degree_vector_of_mu(pipe, binary_maps, ternary_maps):
    assert len(binary_maps) == 1056 and len(ternary_maps) == 40
    for f in binary_maps + ternary_maps:
        assert phi(f, pipe) == deg_vector(oracles.mu_map(pipe, f), pipe.period,
                                          f.domain.exponent)


def test_phi_and_deg_vector_leave_the_vertex_view_unbuilt(ternary_maps, monkeypatch):
    # phi makes no gamma(12)^3, and deg_vector reads its vertices by
    # position only: neither builds a simplicial set
    pipe = CyclePipeline(3)
    made = []
    for owner, name in [(simplicial, "Torus"), (SimplicialSet, "__init__")]:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real:
                            made.append(args[-1] if real is Torus else "cells")
                            or real(*args))
    torus.cache_clear()
    torus_tables.cache_clear()
    torus_complex.cache_clear()
    colouring = winding_colouring(12, 3, 1)
    phi(ternary_maps[0], pipe)
    deg_vector(colouring, L=12, n=3)
    assert made == [(12, 12, 12)]


def test_phi_matches_reference_formulas_on_ternary_sample(pipe, ternary_maps):
    for f in ternary_maps:
        reference = colour_bits(torus(12, 3), mu_colours_reference(pipe, f))
        expected = minor_degree_vector(reference, 12, 3)
        assert list(phi(f, pipe).bits) == expected


def test_phi_checks_equivariance(pipe, binary_maps, monkeypatch):
    # an all-blue t is refused when it is made, at the least
    # multihomomorphism of K_4; the reference, handed the same colours
    # unchecked, refuses phi on its scan of the whole torus at its least vertex
    with pytest.raises(NotEquivariantError) as exc:
        TColouring([1] * 50)
    assert exc.value.witness == Multihom((0,), (1,))
    monkeypatch.setattr(pipe, "t", SimpleNamespace(labels=pipe.t.labels, colours=(1,) * 50))
    with pytest.raises(NotEquivariantError) as exc:
        phi_reference(binary_maps[0], pipe)
    assert exc.value.witness == (0, 0)


def alternating_cell_bits(pipe, f, cells=None):
    """mu(f)'s blue bits, made 3-alternating on the given 3-cells in turn (the
    least one by default) and kept equivariant."""
    x = gamma_power(12, 3)
    position = {v: k for k, v in enumerate(x.vertices)}
    bits = list(pipe.mu_lanes([f]))
    for cell in cells or [min(labelled_cells(x, 3))]:
        for k, v in enumerate(cell):
            bits[position[v]] = k % 2
            bits[position[involution(x)[v]]] = 1 - k % 2
    return x, position, bits


def test_phi_checks_three_alternation_on_the_whole_torus(pipe, ternary_maps,
                                                         monkeypatch):
    f = ternary_maps[0]
    x, position, bits = alternating_cell_bits(pipe, f)
    monkeypatch.setattr(oracles, "mu_bits_reference", lambda pipeline, g: bits)
    with pytest.raises(AlternatingSimplexError) as exc:
        phi_reference(f, pipe)
    witness = exc.value.witness
    assert witness in labelled_cells(x, 3)
    assert [bits[position[v]] for v in witness] in ([0, 1, 0, 1], [1, 0, 1, 0])


def test_map_from_colouring_and_phi_name_the_same_alternating_cell(
        pipe, ternary_maps, monkeypatch):
    f = ternary_maps[0]
    x, _, bits = alternating_cell_bits(pipe, f)
    monkeypatch.setattr(oracles, "mu_bits_reference", lambda pipeline, g: bits)
    with pytest.raises(AlternatingSimplexError) as from_phi:
        phi_reference(f, pipe)
    with pytest.raises(AlternatingSimplexError) as from_map:
        map_from_colouring(torus(12, 3), bits)
    assert from_map.value.witness == from_phi.value.witness
    assert str(from_map.value) == str(from_phi.value)


def test_the_least_alternating_cell_is_the_witness(pipe, ternary_maps, monkeypatch):
    # two cells far apart in vertex-tuple order are made alternating, the
    # greater one first; with their neighbours and mates many cells alternate
    cells = sorted(labelled_cells(gamma_power(12, 3), 3))
    f = ternary_maps[0]
    x, position, bits = alternating_cell_bits(pipe, f, [cells[-1], cells[len(cells) // 2]])
    alternating = [c for c in cells
                   if bits[position[c[0]]] != bits[position[c[1]]]
                   != bits[position[c[2]]] != bits[position[c[3]]]]
    assert len(alternating) > 1
    monkeypatch.setattr(oracles, "mu_bits_reference", lambda pipeline, g: bits)
    with pytest.raises(AlternatingSimplexError) as from_phi:
        phi_reference(f, pipe)
    with pytest.raises(AlternatingSimplexError) as from_map:
        map_from_colouring(torus(12, 3), bits)
    assert from_phi.value.witness == from_map.value.witness == alternating[0]


def test_map_from_colouring_and_deg_vector_name_the_same_antipode():
    col = bytearray(winding_colouring(8, 3, 2))
    for a, b, c in [(1, 2, 3), (5, 6, 7)]:  # (5, 6, 7) is the antipode of (1, 2, 3)
        col[64 * a + 8 * b + c] = 1
    with pytest.raises(NotEquivariantError) as from_degrees:
        deg_vector(col, L=8, n=3)
    with pytest.raises(NotEquivariantError) as from_map:
        map_from_colouring(torus(8, 3), col)
    assert from_map.value.witness == from_degrees.value.witness == (1, 2, 3)
    assert str(from_map.value) == str(from_degrees.value)


def test_memoised_phi_matches_unmemoised_phi_on_all_binary_minors(binary_maps):
    memoised, fresh = CyclePipeline(3), CyclePipeline(3)

    def unmemoised(f):
        fresh.phi_memo.clear()
        return phi(f, fresh)

    for f in binary_maps:
        for g in [f] + [minor(f, pi) for pi in BINARY_MINORS]:
            assert phi(g, memoised) == unmemoised(g)
            assert phi(g, memoised) is phi(g, memoised)
    # 1 056 binary maps plus 24 unary collapses; one vector per value
    assert len(memoised.phi_memo) == 1080
    assert set(memoised.phi_vectors) == {(1,), (1, 0), (0, 1)}
    assert len({id(v) for v in memoised.phi_memo.values()}) == 3


def test_phi_raises_the_same_error_on_every_call():
    # a bad t never reaches phi: it is refused each time it is made
    errors = []
    for _ in range(2):
        with pytest.raises(NotEquivariantError) as exc:
            CyclePipeline(3, TColouring([1] * 50))
        errors.append(exc.value)
    assert [e.witness for e in errors] == [Multihom((0,), (1,))] * 2
    assert str(errors[0]) == str(errors[1])


def test_pipelines_never_share_memo_entries(binary_maps):
    first, second = CyclePipeline(3), CyclePipeline(3)
    f = binary_maps[0]
    alpha = phi(f, first)
    assert first.phi_memo is not second.phi_memo
    assert first.phi_vectors is not second.phi_vectors
    assert not second.phi_memo and not second.phi_vectors
    assert phi(f, second) == alpha and phi(f, second) is not alpha
    assert phi(f, first) is alpha


def test_phi_equals_the_whole_torus_reference(pipe, binary_maps, ternary_maps):
    """phi on the slice vertices under the check of t against phi with its
    scans of the whole torus: all 1 056 binary maps, 40 seeded ternary maps
    and 4 seeded arity-4 maps.  The reference streams the 3-cells of
    gamma(12)^4 without storing them; the torus cache is emptied after."""
    arity4 = sample_homs(power(cycle_graph(3), 4), complete_graph(4), 4, random.Random(4))
    assert len(arity4) == 4
    try:
        for f in binary_maps + ternary_maps + arity4:
            assert phi(f, pipe) == phi_reference(f, pipe)
    finally:
        torus.cache_clear()


def _random_t(rng):
    """A TColouring of Hom(K_2, K_4) with one random bit per antipodal orbit."""
    x = hom_complex(complete_graph(4))
    colours = [None] * len(x.vertices)
    for i, j in enumerate(x.antipode):
        if colours[i] is None:
            colours[i] = rng.getrandbits(1)
            colours[j] = 1 - colours[i]
    return TColouring(colours)


def test_phi_does_not_depend_on_t(binary_maps):
    """phi under 8 seeded random equivariant t equals phi under the
    canonical t, on all 1 056 binary maps and 300 seeded ternary ones at
    ell = 3, 300 binary and 100 ternary at ell = 5, and 200 binary and 40
    ternary at ell = 7.  Each t composed with an equivariant map from the
    antipodal 2-sphere is an equivariant self-map of it, of odd degree
    (Borsuk), so the degrees mod 2 should not see t; this is why t is
    computed in code and no other t is offered.  Each t gets pipelines of
    its own, since the memo is per pipeline, and each differs from the
    canonical t in its fingerprint and in mu_colours on some map, so t is
    read.  About a second."""
    k4 = complete_graph(4)
    rng = random.Random(38)
    maps = {3: binary_maps + sample_homs(power(cycle_graph(3), 3), k4, 300, rng)}
    for ell, binary, ternary in ((5, 300, 100), (7, 200, 40)):
        maps[ell] = (sample_homs(power(cycle_graph(ell), 2), k4, binary, rng)
                     + sample_homs(power(cycle_graph(ell), 3), k4, ternary, rng))
    assert {ell: len(fs) for ell, fs in maps.items()} == {3: 1356, 5: 400, 7: 240}
    canonical = {ell: CyclePipeline(ell) for ell in maps}
    expected = {ell: [phi(f, canonical[ell]) for f in fs] for ell, fs in maps.items()}
    fingerprint = canonical[3].t.fingerprint()
    t_rng = random.Random(9)
    for _ in range(8):
        t = _random_t(t_rng)
        assert t.fingerprint() != fingerprint
        pipelines = {ell: CyclePipeline(ell, t) for ell in maps}
        assert any(pipelines[3].mu_colours(f) != canonical[3].mu_colours(f)
                   for f in binary_maps)
        for ell, fs in maps.items():
            assert [phi(f, pipelines[ell]) for f in fs] == expected[ell]


def test_phi_builds_no_torus_of_its_arity(monkeypatch):
    """With every torus of three or more sides refused, phi still runs at
    arity 3, 4 and 5, and agrees with the minors onto two coordinates."""
    build = simplicial.Torus

    def refuse(sides):
        if len(sides) >= 3:
            raise AssertionError(f"made the torus {sides}")
        return build(sides)

    monkeypatch.setattr(simplicial, "Torus", refuse)
    torus.cache_clear()
    torus_tables.cache_clear()
    pipe = CyclePipeline(3)
    rng = random.Random(5)
    for n in (3, 4, 5):
        maps = sample_homs(power(cycle_graph(3), n), complete_graph(4), 3, rng)
        assert len(maps) == 3
        for f in maps:
            alpha = phi(f, pipe)
            assert alpha.n == n
            pi = MinorSpec(n, 2, (1,) + (2,) * (n - 1))
            assert phi(minor(f, pi), pipe) == alpha.minor(pi)


K4_VERTEX_0 = Multihom((0,), (1,))
K4_VERTEX_7 = hom_complex(complete_graph(4)).vertices[7]
K4_MATE_7 = K4_VERTEX_7.swap()
BROKEN_PAIR_WITNESS = min(K4_VERTEX_7, K4_MATE_7, key=Multihom.sort_key)


def _broken_pair():
    """The colours of the searched t with the bit of K4_VERTEX_7 flipped."""
    return [1 - b if k == 7 else b for k, b in enumerate(search_t_colouring().colours)]


@pytest.mark.parametrize("make, witness", [
    (lambda: TColouring([1] * 50), K4_VERTEX_0),
    (lambda: TColouring(_broken_pair()), BROKEN_PAIR_WITNESS),
], ids=["all-blue-t", "broken-antipode-pair-t"])
def test_a_pipeline_with_a_bad_t_is_refused(make, witness):
    """A bad t is refused where the TColouring is made or passed in, each
    time, with a witness in Hom(K_2, K_4).  No t can alternate on a
    3-simplex there: Hom(K_2, K_4) has none."""
    for _ in range(2):
        with pytest.raises(NotEquivariantError) as exc:
            make()
        assert exc.value.witness == witness
    assert not labelled_cells(hom_complex(complete_graph(4)), 3)
