import random
import re
from fractions import Fraction

import pytest

from equihom import degrees, homcomplexes, simplicial, slices
from equihom.degrees import TorusTables, winding_colouring
from equihom.errors import (CapacityExceededError, InvalidParameterError,
                            InvariantViolationError)
from equihom.graphs import enumerate_homs
from equihom.homcomplexes import CyclePipeline
from equihom.simplicial import equivariant_colourings, torus
from equihom.slices import (GeneralizedDiagonal, arity_experiment,
                            chain_alternation_counts, height, ratio_text,
                            swap_fraction, zeta0)

import oracles
from oracles import (BLUE, YELLOW, arity_experiment_reference, chain_alternations,
                     colour_bits, coordinate_edges_reference,
                     equivariant_colourings_reference, gamma_power,
                     iter_coordinate_edges, labelled_cells, permute_coordinates,
                     sample_maximal_chain_reference,
                     shift_coordinate, slice_check, standard_diagonal,
                     swap_fraction_reference, vertex_labels)


def test_height_basics():
    assert height((0, 0, 0)) == 0
    assert height((1, 0, 1)) == 2


def test_every_edge_raises_height():
    t = gamma_power(4, 2)
    for (u, v) in labelled_cells(t, 1):
        assert height(u) < height(v)


def test_coordinate_edges_raise_height_by_one():
    for edge in iter_coordinate_edges(4, 2, 1, 0):
        u, v = torus(4, 2).labels(edge)
        assert height(v) == height(u) + 1
        assert sum(1 for a, b in zip(u, v) if a != b) == 1


def test_edge_class_cardinalities():
    # oracle: lower endpoints have coordinate i even, h of the others odd
    ec = list(iter_coordinate_edges(4, 2, 1, 0))
    assert len(ec) == 8
    assert len(list(iter_coordinate_edges(4, 2, 1, 1))) == 8
    assert len(list(iter_coordinate_edges(4, 2, 2, 0))) == len(ec)  # direction symmetry
    members0 = set(ec)
    members1 = set(iter_coordinate_edges(4, 2, 1, 1))
    assert not members0 & members1  # heights partition the direction class


def test_edges_cover_all_horizontal_cells():
    t = gamma_power(4, 2)
    horiz = {frozenset(c) for c in labelled_cells(t, 1)
             if c[0][1] == c[1][1]}
    classed = {frozenset(torus(4, 2).labels(e)) for h in (0, 1)
               for e in iter_coordinate_edges(4, 2, 1, h)}
    assert classed == horiz


@pytest.mark.parametrize("L, n", [(4, 1), (4, 2), (8, 2), (4, 3), (8, 3), (4, 4)])
def test_coordinate_edges_are_the_reference_tuples_in_order(L, n):
    """The position pairs, read as labels, are the edges of the tuple
    reference, in its order, for every direction and height."""
    x = torus(L, n)
    for i in range(1, n + 1):
        for h in range(n):
            assert ([x.labels(e) for e in iter_coordinate_edges(L, n, i, h)]
                    == list(coordinate_edges_reference(L, n, i, h)))


def test_zeta0_acceptance_grid():
    checked = 0
    for n in range(2, 11):
        for L in (4, 8):
            h = 0
            while 3 * h <= n - 1 and 2 * h < n - 1:
                z = zeta0(n, h, L)
                assert z.period == 3 * L
                assert z.low_height == h
                checked += 1
                h += 1
    assert checked == 42


def test_zeta0_explicit_first_steps():
    z = zeta0(4, 1, 4)
    assert z.path[:4] == ((1, 0, 0), (1, 0, 1), (2, 0, 1), (2, 1, 1))
    # heights alternate h and n-1-h, antipode half a period along
    assert [height(v) for v in z.path[:4]] == [1, 2, 1, 2]
    half = z.period // 2
    for k in range(z.period):
        assert z.path[(k + half) % z.period] == tuple((x + 2) % 4 for x in z.path[k])


def test_zeta0_rejects_bad_parameters():
    for n, h, L in ((4, 2, 4), (2, 1, 4), (4, 0, 6), (4, -1, 4)):
        with pytest.raises(InvalidParameterError):
            zeta0(n, h, L)


def test_diagonal_validator_catches_breaks():
    z = zeta0(4, 0, 4)
    path = list(z.path)
    path[1] = tuple((x + 2) % 4 for x in path[1])
    with pytest.raises(InvariantViolationError):
        GeneralizedDiagonal(4, 3, path)


def test_standard_diagonal():
    z = standard_diagonal(3, 8)
    assert z.period == 8
    assert z.low_height == 0
    assert all(v == (k, k) for k, v in enumerate(z.path))


def test_swap_fraction_values():
    col = winding_colouring(4, 2, 1)
    assert swap_fraction(col, 4, 2, 1, 0) == (8, 16)
    flat = winding_colouring(4, 2, 2)
    assert swap_fraction(flat, 4, 2, 1, 0) == (0, 16)
    assert swap_fraction(flat, 4, 2, 2, 0)[0] > 0


@pytest.mark.parametrize("L, n", [(4, 1), (8, 1), (4, 2), (12, 2), (4, 3), (8, 3), (12, 3),
                                  (4, 4)])
def test_swap_fraction_is_the_edge_count_on_random_colourings(L, n):
    """On random bits, not only equivariant ones, the lane count equals the
    count over the position pairs of ``iter_coordinate_edges``, for every
    direction and height."""
    rng = random.Random(L * 10 + n)
    for _ in range(3):
        bits = bytes(rng.getrandbits(1) for _ in range(L ** n))
        for i in range(1, n + 1):
            for h in range(n):
                pairs = [e for hh in {h, n - 1 - h} for e in iter_coordinate_edges(L, n, i, hh)]
                assert swap_fraction(bits, L, n, i, h) == (
                    sum(bits[u] != bits[v] for u, v in pairs), len(pairs))


def test_swap_fraction_refuses_bits_that_do_not_fit_the_torus():
    for bits, L, n, i, h in [(bytes(16), 4, 2, 0, 0), (bytes(16), 4, 2, 3, 0),
                             (bytes(16), 4, 2, 1, 2), (bytes(15), 4, 2, 1, 0),
                             (bytes(64), 4, 2, 1, 0), (bytes(36), 6, 2, 1, 0),
                             (bytes(16), 4, 10 ** 6, 1, 0)]:
        with pytest.raises(InvalidParameterError):
            swap_fraction(bits, L, n, i, h)


@pytest.mark.parametrize("p, q", [(0, 16), (8, 16), (16, 16), (3, 48), (7, 12), (48, 16)])
def test_ratio_text_is_the_text_of_the_fraction(p, q):
    assert ratio_text(p, q) == str(Fraction(p, q))


def test_swap_fraction_on_bits_is_the_tuple_count_over_the_battery():
    """On each of the 256 equivariant colourings of gamma(4)^2, as colour
    dicts from the reference, ``swap_fraction`` on the row-major bits equals
    the count keyed by vertex tuples, in both directions and at both
    heights."""
    x = torus(4, 2)
    count = 0
    for col in equivariant_colourings_reference(x):
        bits = colour_bits(x, col)
        for i in (1, 2):
            for h in (0, 1):
                assert swap_fraction(bits, 4, 2, i, h) == swap_fraction_reference(col, 4, 2, i, h)
        count += 1
    assert count == 256


def test_swap_fraction_bound_over_battery():
    # every degree-one direction keeps at least one swap in 16 edges: 1/16 >= 1/48
    from equihom.degrees import deg_vector
    bound = Fraction(1, 48)
    for col in equivariant_colourings(torus(4, 2)):
        alpha = deg_vector(col, L=4, n=2)
        for i in (1, 2):
            if alpha.bits[i - 1]:
                assert Fraction(*swap_fraction(col, 4, 2, i, 0)) >= bound


def test_slice_check_witnesses():
    col = winding_colouring(8, 3, 1)
    colours = dict(zip(vertex_labels(torus(8, 3)), col))
    for z in (zeta0(3, 0, 8), standard_diagonal(3, 8)):
        u, v = slice_check(col, 8, 3, z)
        assert colours[u] != colours[v]
        assert u[1:] == v[1:] and (v[0] - u[0]) % 8 == 1


def test_slice_check_shifted_diagonals():
    col = winding_colouring(8, 3, 1)
    colours = dict(zip(vertex_labels(torus(8, 3)), col))
    base = zeta0(3, 0, 8)
    for i in (1, 2):
        shifted = GeneralizedDiagonal(
            8, 2, [shift_coordinate(v, i, 8) for v in base.path])
        u, v = slice_check(col, 8, 3, shifted)
        assert colours[u] != colours[v]


def _first_swap_in_slice(colours, L, zeta):
    """The first colour-swapping coordinate-1 edge of the slice, scanning the
    diagonal position outer and the first coordinate inner."""
    for point in zeta.path:
        for x in range(L):
            u, v = (x,) + point, ((x + 1) % L,) + point
            if colours[u] != colours[v]:
                return u, v


@pytest.mark.parametrize("support", [(1,), (1, 2, 3)])
def test_slice_check_witness_is_the_first_in_scan_order(support):
    col = degrees.monomial_colouring(8, 3, support)
    base = zeta0(3, 0, 8)
    for zeta in [base, standard_diagonal(3, 8)] + [
            GeneralizedDiagonal(8, 2, [shift_coordinate(v, i, 8) for v in base.path])
            for i in (1, 2)]:
        colours = dict(zip(vertex_labels(torus(8, 3)), col))
        assert slice_check(col, 8, 3, zeta) == _first_swap_in_slice(colours, 8, zeta)


def test_slice_check_precondition():
    col = winding_colouring(8, 3, 2)
    with pytest.raises(InvalidParameterError):
        slice_check(col, 8, 3, standard_diagonal(3, 8))


def test_automorphisms_preserve_simplices_and_heights():
    t = gamma_power(4, 2)
    perm = (2, 1)
    for cell in labelled_cells(t, 2):
        image = tuple(permute_coordinates(v, perm) for v in cell)
        assert image in labelled_cells(t, 2)
        shifted = tuple(shift_coordinate(v, 1, 4) for v in cell)
        assert shifted in labelled_cells(t, 2)
    for v in t.vertices:
        assert height(permute_coordinates(v, perm)) == height(v)
        assert height(shift_coordinate(v, 2, 4)) == height(v)


def test_automorphism_orbits_are_height_classes():
    # orbit of a vertex under coordinate permutations and double shifts
    L, n = 4, 3
    from itertools import permutations, product
    start = (1, 0, 0)
    frontier = {start}
    orbit = set()
    while frontier:
        v = frontier.pop()
        if v in orbit:
            continue
        orbit.add(v)
        for perm in permutations(range(1, n + 1)):
            frontier.add(permute_coordinates(v, perm))
        for i in range(1, n + 1):
            frontier.add(shift_coordinate(v, i, L))
    same_height = {v for v in product(range(L), repeat=n) if height(v) == 1}
    assert orbit == same_height


class RecordingLanes:
    """A lane blob that records every index it is asked for."""

    def __init__(self, blob):
        self.blob = blob
        self.reads = []

    def __getitem__(self, index):
        self.reads.append(index)
        return self.blob[index]


def test_sample_maximal_chain_is_simplex():
    # the kernel reads each vertex of a chain once, at p*maps + k, and draws
    # exactly as the tuple sampler draws
    for L, n, maps in ((4, 3, 3), (12, 1, 2), (12, 2, 5), (8, 3, 1)):
        rng, tuples = random.Random(4), random.Random(4)
        t = gamma_power(L, n)
        top = set(labelled_cells(t, n))
        lanes = RecordingLanes(random.Random(L + n).randbytes(L ** n * maps))
        chain_alternation_counts(L, n, rng, 50, lanes, maps)
        assert len(lanes.reads) == 50 * (n + 1)
        for c in range(50):
            indices = lanes.reads[c * (n + 1):(c + 1) * (n + 1)]
            assert {index % maps for index in indices} == {c % maps}
            chain = [t.vertices[index // maps] for index in indices]
            assert chain == sample_maximal_chain_reference(L, n, tuples)
            assert tuple(chain) in top
        assert rng.getstate() == tuples.getstate()


def test_chain_alternations_counts():
    col = {v: (BLUE if v[0] < 2 else YELLOW) for v in gamma_power(4, 2).vertices}
    chain = [(0, 0), (1, 0), (1, 1)]
    assert chain_alternations(col, chain) == 0
    chain = [(2, 0), (3, 0), (3, 1)]
    assert chain_alternations(col, chain) == 0
    chain = [(0, 0), (3, 0), (3, 1)]
    assert chain_alternations(col, chain) == 1


def test_arity_experiment_shape_and_determinism():
    rep1 = arity_experiment(3, 2, seed=9, chain_samples=200)
    rep2 = arity_experiment(3, 2, seed=9, chain_samples=200)
    assert rep1 == rep2
    assert [row["n"] for row in rep1["per_n"]] == [1, 2]
    for row in rep1["per_n"]:
        assert row["alternation_violations"] == 0
        assert row["max_chain_alternations"] <= 2
        assert all(int(w) % 2 == 1 for w in row["weight_histogram"])
    assert rep1["per_n"][0]["max_weight"] == 1
    assert rep1["per_n"][1]["max_weight"] == 1  # parity forces weight one at n = 2


@pytest.mark.parametrize("ell, n_max, cutoff", [
    (3, 3, 1000), (3, 3, 3095), (3, 3, 3096), (3, 3, 3097), (5, 2, 3000)])
def test_arity_experiment_matches_reference(ell, n_max, cutoff):
    # at ell = 3 the bound 3*1056 - 3*24 = 3096 decides arity 3 when it
    # exceeds the cutoff; at ell = 5 the binary enumeration still decides
    kwargs = dict(seed=4, chain_samples=60, enumerate_cutoff=cutoff)
    report = arity_experiment(ell, n_max, **kwargs)
    assert report == arity_experiment_reference(ell, n_max, **kwargs)
    binary = "exhaustive" if ell == 3 and cutoff >= 1056 else "sampled"
    assert [row["mode"] for row in report["per_n"]] == [
        "exhaustive", binary, "sampled"][:n_max]


@pytest.mark.parametrize("cutoff, arities", [(3000, [1, 2]), (3096, [1, 2, 3])])
def test_arity_experiment_skips_enumeration_bound_to_truncate(cutoff, arities,
                                                             monkeypatch):
    calls = []

    def counted(dom, cod, limit=None):
        calls.append(dom.exponent)
        return enumerate_homs(dom, cod, limit=limit)

    monkeypatch.setattr(slices, "enumerate_homs", counted)
    arity_experiment(3, 3, seed=2, chain_samples=10, enumerate_cutoff=cutoff)
    assert calls == arities


def test_arity_experiment_reads_bits_not_colour_dicts(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    # patched where each lives and where a module-level import would bind it
    for module, name in [(degrees, "deg_vector"), (slices, "deg_vector"),
                         (simplicial, "torus"), (slices, "torus"),
                         (degrees, "torus"), (homcomplexes, "torus"),
                         (CyclePipeline, "mu_colours")]:
        fn = getattr(module, name, None)
        if fn is not None:
            monkeypatch.setattr(module, name, counted(name, fn))
    lane_calls = []
    mu_lanes = CyclePipeline.mu_lanes

    def counted_mu_lanes(pipeline, fs):
        lane_calls.append(len(fs))
        return mu_lanes(pipeline, fs)

    monkeypatch.setattr(CyclePipeline, "mu_lanes", counted_mu_lanes)
    report = arity_experiment(3, 3, seed=2, chain_samples=10)
    assert not calls
    # one call per arity, reading every map of it at once
    assert lane_calls == [row["maps_inspected"] for row in report["per_n"]]


@pytest.mark.parametrize("survey", [arity_experiment, arity_experiment_reference])
def test_arity_experiment_checks_odd_weight(survey, monkeypatch):
    monkeypatch.setattr(TorusTables, "degrees", lambda self, bits: [0] * len(self.slices))
    with pytest.raises(InvariantViolationError, match="even weight"):
        survey(3, 2, chain_samples=10)


@pytest.mark.parametrize("ell, n_max", [(3, 7), (3, 9), (1001, 1)])
def test_arity_experiment_refuses_large_tori_before_any_work(ell, n_max, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("enumerated before the capacity check")

    monkeypatch.setattr(slices, "enumerate_homs", fail)
    monkeypatch.setattr(slices, "CyclePipeline", fail)
    with pytest.raises(CapacityExceededError) as exc:
        arity_experiment(ell, n_max)
    # the largest torus read, gamma(4*ell)^n_max or at n_max = 1 the
    # degree plane, is refused on its vertices as torus() refuses it
    k = max(2, n_max)
    assert str(exc.value) == (f"torus gamma({4 * ell})^{k} has more vertices "
                              "than the cell limit 4194304")
    with pytest.raises(CapacityExceededError, match=re.escape(str(exc.value))):
        torus(4 * ell, k)


class _Admitted(Exception):
    pass


def _admits(check, *args):
    """Does ``check`` pass, or reach the work that raises _Admitted?"""
    try:
        check(*args)
    except _Admitted:
        pass
    except CapacityExceededError:
        return False
    return True


def test_the_survey_admits_what_the_cell_count_admitted(monkeypatch):
    """The survey's limit is the vertex limit of gamma(4*ell)^max(2, n_max):
    it admits every (ell, n_max) whose tori of arity 2 to n_max the old
    simplicial cell count admitted, and refuses just past the vertex limit.
    The survey stops at its first piece of work, so none runs."""
    def admitted(*args, **kwargs):
        raise _Admitted

    monkeypatch.setattr(slices, "CyclePipeline", admitted)
    for ell in range(3, 42, 2):
        L = 4 * ell
        for n_max in range(1, 9):
            new = _admits(arity_experiment, ell, n_max)
            assert new == (L ** max(2, n_max) <= simplicial.CELL_LIMIT), (ell, n_max)
            old = all(_admits(oracles.check_cell_limit, (L,) * n) for n in range(2, n_max + 1))
            assert new or not old, (ell, n_max)

