import json
import random
from itertools import product

import pytest

import oracles
from equihom import simplicial, slices
from equihom.errors import (AlternatingSimplexError, CapacityExceededError,
                            InvalidParameterError, NotEquivariantError)
from equihom.simplicial import (SimplicialSet, Torus, check_alternation, check_antipodes,
                                equivariant_colourings, faces, gamma, is_degenerate, map_from_colouring,
                                mod2_homology_ranks, order_complex, torus)

from equihom.degrees import torus_complex, torus_tables
from equihom.graphs import complete_graph, cycle_graph
from equihom.homcomplexes import hom_complex
from equihom.slices import arity_experiment, product_cell_count

from oracles import (BLUE, YELLOW, ModTwoChain, boundary, check_alternation_reference,
                     check_antipodes_reference,
                     check_reference, circle_cells_reference, colour_bits,
                     equivariant_colourings_reference, explicit_set, gamma_power, gamma_product,
                     hom_complex_cells_reference, incidence, incidence_reference,
                     involution, is_equivariant, labelled_cells,
                     mod2_homology_ranks_dropping_degenerate_faces, sigma,
                     simplicial_set_from_json, sphere_model_cells_reference, sproduct,
                     strict_chains, torus_antipode_reference, torus_cells_reference,
                     vertex_labels)
from test_zz2 import ORBIT_CASES


def test_sigma2_structure():
    s2 = sigma(2)
    assert [s2.n_cells(d) for d in (0, 1, 2, 3)] == [2, 2, 2, 0]
    assert s2.euler_characteristic() == 2
    assert labelled_cells(s2, 1) == frozenset({(YELLOW, BLUE), (BLUE, YELLOW)})
    assert s2.has_free_involution()


def test_sigma2_rejects_three_alternations():
    """``check_alternation`` refuses the colours of a 3-cell exactly when
    they are no simplex of sigma(2): with their repeats collapsed, no cell
    of it."""
    s2 = sigma(2)
    chain = order_complex("abcd", [1, 3, 7, 15], 3)
    assert chain.n_cells(3) == 1
    refused = []
    for image in product((YELLOW, BLUE), repeat=4):
        core = tuple(c for k, c in enumerate(image) if k == 0 or c != image[k - 1])
        try:
            check_alternation(chain, [int(c == BLUE) for c in image])
        except AlternatingSimplexError:
            refused.append(image)
        assert (image in refused) != (core in labelled_cells(s2, len(core) - 1))
    assert refused == [(YELLOW, BLUE, YELLOW, BLUE), (BLUE, YELLOW, BLUE, YELLOW)]


def test_sigma_chain():
    assert sigma(0).n_cells(1) == 0
    assert labelled_cells(sigma(1), 1) == frozenset({(YELLOW, BLUE), (BLUE, YELLOW)})
    assert sigma(3).n_cells(3) == 2


def test_sigma2_mod2_homology():
    # sigma(2) is no order complex: its rows drop the degenerate faces
    assert mod2_homology_ranks_dropping_degenerate_faces(sigma(2), top=2) == (1, 0, 1)


def test_gamma_structure():
    g12 = gamma(12)
    assert len(g12.vertices) == 12 and g12.n_cells(1) == 12
    g4 = gamma(4)
    assert labelled_cells(g4, 1) == frozenset({(0, 1), (2, 1), (2, 3), (0, 3)})
    for L in (4, 8, 12):
        assert gamma(L).euler_characteristic() == 0
    with pytest.raises(InvalidParameterError):
        gamma(6)
    with pytest.raises(InvalidParameterError):
        gamma(0)


def test_gamma_involution_free():
    for L in (4, 8):
        assert gamma(L).has_free_involution()


def test_product_torus_counts():
    # oracle: cells of the product are strict chains of the product poset
    t = gamma_product((4, 4))
    assert len(t.vertices) == 16
    assert t.n_cells(1) == len(strict_chains(4, 2, 2)) == 48
    assert t.n_cells(2) == len(strict_chains(4, 2, 3)) == 32
    assert t.n_cells(3) == 0
    assert t.euler_characteristic() == 0


def test_product_two_triangles_per_square():
    t = gamma_product((4, 8))
    assert t.n_cells(2) == 2 * 4 * 8
    diagonals = {}
    for cell in labelled_cells(t, 2):
        low, high = cell[0], cell[2]
        assert low[0] % 2 == 0 and low[1] % 2 == 0
        assert high[0] % 2 == 1 and high[1] % 2 == 1
        diagonals.setdefault((low, high), 0)
        diagonals[(low, high)] += 1
    assert set(diagonals.values()) == {2}


def test_product_closure_explicit():
    t = gamma_product((4, 8))
    for d in (1, 2):
        for cell in labelled_cells(t, d):
            for i in range(d + 1):
                # a face of a strict chain is a strict chain, never degenerate
                assert cell[:i] + cell[i + 1:] in labelled_cells(t, d - 1)


def test_unary_product_is_identity():
    # the circle as a torus: gamma(4) with each label v spelt (v,)
    g, circle = gamma_product((4,)), gamma(4)
    assert g.vertices == tuple((v,) for v in range(4))
    assert g.cap == circle.cap
    for d in range(g.cap + 1):
        assert g.position_cells(d) == circle.position_cells(d)
        assert labelled_cells(g, d) == {tuple((v,) for v in c)
                                        for c in labelled_cells(circle, d)}
    assert g.antipode == circle.antipode


@pytest.mark.parametrize("n", [1, 2, 3])
def test_torus_vertices_are_n_tuples(n):
    x = gamma_power(4, n)
    assert len(x.vertices) == 4 ** n
    assert all(type(v) is tuple and len(v) == n for v in x.vertices)


@pytest.mark.parametrize("L", [4, 8, 12])
def test_arity_one_torus_is_the_circle_on_positions(L):
    x, circle = gamma_power(L, 1), gamma(L)
    assert x is not circle
    for d in range(max(x.cap, circle.cap) + 1):
        assert x.position_cells(d) == circle.position_cells(d)
    assert x.antipode == circle.antipode


def test_product_capacity(monkeypatch):
    def no_building(*args):
        raise AssertionError("started building a torus over the cell limit")

    monkeypatch.setattr(oracles, "product", no_building)
    monkeypatch.setattr(simplicial, "product", no_building)
    with pytest.raises(CapacityExceededError):
        gamma_product((64,) * 4)
    with pytest.raises(CapacityExceededError):
        Torus((64,) * 4)


def test_long_torus_is_refused_on_its_vertices(monkeypatch):
    """Past CELL_LIMIT vertices a torus is refused before its cells are
    counted, and gamma_power and torus refuse before they list the sides."""
    def no_listing(*args):
        raise AssertionError("listed the sides of a torus over the cell limit")

    monkeypatch.setattr(slices, "product_cell_count", no_listing)
    for build in (gamma_product, Torus):
        with pytest.raises(CapacityExceededError, match="^torus of 1000 circles has more "
                                                        "vertices than the cell limit "
                                                        "4194304$"):
            build((4,) * 1000)
    monkeypatch.setattr(oracles, "gamma_product", no_listing)
    monkeypatch.setattr(simplicial, "Torus", no_listing)
    for build in (gamma_power, torus):
        with pytest.raises(CapacityExceededError,
                           match=r"^torus gamma\(4\)\^10000000 has "):
            build(4, 10 ** 7)


@pytest.mark.parametrize("sides", [(4, 4), (4, 8), (8, 4), (4, 4, 4), (4, 8, 8),
                                   (8, 8, 8)])
def test_gamma_product_matches_generic_product(sides):
    t = gamma_product(sides)
    vertices, cells, involution = sproduct([gamma(L) for L in sides], t.cap)
    assert t.vertices == vertices
    for d in range(t.cap + 1):
        assert labelled_cells(t, d) == cells[d]
        assert t.n_cells(d) == product_cell_count(sides, d)
    assert oracles.involution(t) == involution


def test_torus_spellings_share_one_cache_entry():
    square = gamma_product((12, 12))
    assert gamma_power(12, 2) is square
    assert gamma_product([12, 12]) is square
    assert gamma_power(4, 1) is gamma_product((4,))
    assert torus(12, 2) is torus(12, 2)
    assert torus(12, 2).sides == (12, 12)


@pytest.fixture
def fresh_tori():
    """Empty torus caches before and after the test, so that it reads only the
    tori it builds itself and leaves none of them behind."""
    caches = (oracles._gamma_product, torus, torus_tables, torus_complex)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_the_survey_builds_no_torus_cell_above_the_vertices(fresh_tori, monkeypatch):
    """The survey reads bytes at row-major positions: it makes no ``Torus``,
    and the simplicial sets it builds are the circle and the homomorphism
    complexes of its pipeline, none over the 50 vertices of Hom(K_2, K_4)."""
    def refuse(*args):
        raise AssertionError("the survey made a torus")

    sizes = []
    build = SimplicialSet.__init__

    def counted(self, vertices, *args):
        sizes.append(len(vertices))
        build(self, vertices, *args)

    monkeypatch.setattr(simplicial, "Torus", refuse)
    monkeypatch.setattr(SimplicialSet, "__init__", counted)
    hom_complex.cache_clear()
    try:
        arity_experiment(3, 3, seed=3, chain_samples=100)
    finally:
        hom_complex.cache_clear()
    assert sorted(sizes) == [12, 12, 50]


def _chains(points, ups, cap):
    """The chains that the up-lists ``ups`` give over ``points``, by
    dimension 0..cap."""
    chains = {0: list(points)}
    for d in range(1, cap + 1):
        chains[d] = [c + (w,) for c in chains[d - 1] for w in ups[c[-1]]]
    return chains


def _breaking(monkeypatch, moves):
    """Make the torus generator leave each (p, q) of ``moves`` out of the
    up-list of p, or put it in, in order, when it is not there; return the
    chains the broken up-lists give, by dimension."""
    build = oracles._product_chains
    chains = {}

    def broken(sides):
        vertices, points, antipode, ups = build(sides)
        for p, q in moves:
            if q in ups[p]:
                ups[p].remove(q)
            else:
                ups[p] = sorted(ups[p] + [q])
        chains.update(_chains(points, ups, len(sides)))
        return vertices, points, antipode, ups

    monkeypatch.setattr(oracles, "_product_chains", broken)
    return chains


@pytest.mark.parametrize("moves, d, message", [
    # (0, 0) < (1, 1) and its mate (2, 2) < (3, 3) go: every edge keeps its
    # mate, but the 2-cells through (0, 1) or (1, 0) lose a face
    ([(0, 5), (10, 15)], 2,
     "closure violated: face ((0, 0), (1, 1)) of ((0, 0), (0, 1), (1, 1)) missing"),
    # (0, 0) < (1, 0) goes, and no chain has it as a face, but its mate stays
    ([(0, 4)], 1, "involution does not preserve simplices: ((2, 2), (3, 2))"),
    # (0, 0) goes above itself: the edge ((0, 0), (0, 0)) is no strict chain
    ([(0, 0)], 1, "stored simplex is degenerate: ((0, 0), (0, 0))"),
], ids=["face", "mate", "loop"])
def test_a_broken_torus_dimension_is_refused_on_each_read(moves, d, message,
                                                          fresh_tori, monkeypatch):
    """The broken dimension is refused when the torus is made, and again on
    each later read of it, since no refused build is cached."""
    chains = _breaking(monkeypatch, moves)
    for _ in range(2):
        chains.clear()
        with pytest.raises(InvalidParameterError) as built:
            gamma_product((4, 4))
        assert str(built.value) == message
        assert max(chains) == 2
    # the reference check of the same cells raises the same message
    grid = torus(4, 2)
    vertices = tuple(vertex_labels(grid))
    simplices = {e: [grid.labels(c) for c in chains[e]] for e in (1, 2)}
    with pytest.raises(InvalidParameterError) as reference:
        check_reference(vertices, simplices, 3, involution(grid))
    assert str(reference.value) == message


def _points(count):
    return tuple((p,) for p in range(count))


def _up_lists(x, drop=(), add=()):
    """The up-lists of x read off its 1-cells, without the pairs in ``drop``
    and with those in ``add``, each list in label order."""
    ups = [[] for _ in x.vertices]
    for p, q in sorted(set(x.position_cells(1)) - set(drop) | set(add), key=x.labels):
        ups[p].append(q)
    return ups


def test_closure_checked():
    # up-lists with a cycle give chains that are not strict: the face (0, 0)
    # of (0, 1, 0) is no chain, so it is missing, and the chain is refused
    x = SimplicialSet((0, 1), _points(2), 1, None, [[1], [0]])
    assert x.position_cells(1) == ((0, 1), (1, 0))
    with pytest.raises(InvalidParameterError,
                       match=r"^closure violated: face \(0, 0\) of \(0, 1, 0\) missing$"):
        SimplicialSet((0, 1), _points(2), 2, None, [[1], [0]])


def test_closure_missing_nondegenerate_face():
    # 0 < 1 < 2 without 0 < 2: the chain (0, 1, 2) misses its face (0, 2)
    with pytest.raises(InvalidParameterError, match=r"face \(0, 2\) of \(0, 1, 2\)"):
        SimplicialSet((0, 1, 2), _points(3), 2, None, [[1], [2], []]).position_cells(2)
    x = SimplicialSet((0, 1, 2), _points(3), 2, None, [[1, 2], [2], []])
    assert x.position_cells(2) == ((0, 1, 2),)


def test_closure_degenerate_faces_normalize():
    # a middle face of a sigma(k) cell repeats a vertex, so it is never
    # stored: the reference check accepts sigma(k) by normalizing it, while
    # the chain builder, whose faces are strict chains, refuses the same
    # cells when the colours lie above each other
    for k in (2, 3):
        s = sigma(k)
        degenerate = {face for cell in labelled_cells(s, k) for _, face in faces(cell)
                      if is_degenerate(face)}
        assert degenerate and not degenerate & labelled_cells(s, k - 1)
        edges = SimplicialSet(s.vertices, s.position_cells(0), 1, s.antipode, [[1], [0]])
        assert edges.position_cells(1) == s.position_cells(1)
        with pytest.raises(InvalidParameterError, match="^closure violated: face "
                                                        r"\('blue', 'blue'\) of"):
            SimplicialSet(s.vertices, s.position_cells(0), k, s.antipode, [[1], [0]])


def test_closure_missing_torus_face():
    # the long edge (p, r) of a triangle (p, q, r) goes, with its mate, so
    # that the edges pass; the triangles through it are refused
    t = gamma_product((4, 4))
    p, _, r = t.position_cells(2)[5]
    drop = [(p, r), (t.antipode[p], t.antipode[r])]
    ups = _up_lists(t, drop=drop)
    edges = SimplicialSet(t.vertices, t.position_cells(0), 1, t.antipode, ups)
    assert len(edges.position_cells(1)) == t.n_cells(1) - 2
    with pytest.raises(InvalidParameterError, match="^closure violated: face ") as exc:
        SimplicialSet(t.vertices, t.position_cells(0), t.cap, t.antipode, ups)
    assert any(f"face {t.labels(edge)} of" in str(exc.value) for edge in drop)


# tori of one to four sides, and complexes whose cells have degenerate faces
INCIDENCE_CASES = {
    **{f"gamma_product{sides}": (lambda sides=sides: gamma_product(sides))
       for sides in ((8,), (4, 8), (4, 4, 8), (4, 4, 4, 4))},
    **{f"sigma{k}": (lambda k=k: sigma(k)) for k in (1, 2, 3)},
    "hom_K4": lambda: hom_complex(complete_graph(4)),
}


@pytest.mark.parametrize("case", sorted(INCIDENCE_CASES))
def test_columnar_incidence_matches_cell_by_cell_reference(case):
    x = INCIDENCE_CASES[case]()
    for d in range(1, x.dimension() + 1):
        cells = x.position_cells(d)
        index = {c: k for k, c in enumerate(x.position_cells(d - 1))}
        # the same entries in the same face order, degenerate faces dropped
        assert [list(row.items()) for row in incidence(cells, index)] == \
            incidence_reference(cells, index)


def _torus(*sides):
    return lambda: torus_cells_reference(sides, max(3, len(sides)))


# the cells of each complex the orbit and incidence tests build, by dimension,
# from a reference builder
CELL_REFERENCES = {
    **{f"gamma_product{sides}": _torus(*sides)
       for sides in ((8,), (4, 8), (4, 4, 8), (4, 4, 4, 4))},
    "gamma_4x8": _torus(4, 8),
    "gamma4_squared": _torus(4, 4),
    "gamma4_cubed": _torus(4, 4, 4),
    "gamma4_fourth": _torus(4, 4, 4, 4),
    "gamma8_cubed": _torus(8, 8, 8),
    "gamma4": lambda: circle_cells_reference(4),
    "gamma12": lambda: circle_cells_reference(12),
    **{f"sigma{k}": (lambda k=k: sphere_model_cells_reference(k)) for k in (1, 2, 3)},
    "hom_K4": lambda: hom_complex_cells_reference(complete_graph(4).edges, 4),
    "hom_C5": lambda: hom_complex_cells_reference(cycle_graph(5).edges, 5),
}

# order complexes the incidence and orbit tables do not build
STORED_ORDER_CASES = {"gamma12": lambda: gamma(12),
                      "hom_C5": lambda: hom_complex(cycle_graph(5))}


@pytest.mark.parametrize("case", sorted(INCIDENCE_CASES.keys() | ORBIT_CASES.keys()
                                         | STORED_ORDER_CASES.keys()))
def test_each_dimension_is_stored_once_in_vertex_tuple_order(case):
    x = {**INCIDENCE_CASES, **ORBIT_CASES, **STORED_ORDER_CASES}[case]()
    reference = CELL_REFERENCES[case]()
    assert x.cap == max(reference)
    for d in range(x.cap + 1):
        stored = x.position_cells(d)
        assert type(stored) is tuple
        labelled = list(map(x.labels, stored))
        assert all(a < b for a, b in zip(labelled, labelled[1:]))
        assert set(labelled) == reference[d]


def test_incidence_names_the_missing_face_a_cell_scan_meets_first():
    # (1, 3) is missing first in face order, (0, 2) first in cell order
    cells = [(0, 1, 2), (0, 1, 3)]
    index = {c: k for k, c in enumerate([(0, 1), (0, 3), (1, 2)])}
    errors = []
    for builder in (incidence, incidence_reference):
        with pytest.raises(KeyError) as exc:
            builder(cells, index)
        errors.append(exc.value.args)
    assert errors == [((0, 2),), ((0, 2),)]


GAMMA4_EDGES = [(0, 1), (0, 3), (2, 3), (2, 1)]
# each odd vertex of gamma(4) lies above its two even neighbours
GAMMA4_MASKS = [1, 7, 4, 13]

# one defect each: a build that reads every dimension, the reference
# check's arguments for the same cells, and the exact rejection message
REJECTIONS = {
    "duplicate labels": (lambda: order_complex([0, 1, 0], [1, 2, 4], 1),
                         ([0, 1, 0], {}, 1), "duplicate vertex labels"),
    "cap below one": (lambda: order_complex([0], [1], 0),
                      ([0], {}, 0), "dimension cap must be >= 1"),
    "degenerate": (lambda: SimplicialSet(tuple(range(4)), _points(4), 1, None,
                                         [[0, 1, 3], [], [1, 3], []]).dimension(),
                   (range(4), {1: GAMMA4_EDGES + [(0, 0)]}, 1),
                   "stored simplex is degenerate: (0, 0)"),
    "missing face": (lambda: SimplicialSet((0, 1, 2), _points(3), 2, None,
                                           [[1], [2], []]).dimension(),
                     ([0, 1, 2], {1: [(0, 1), (1, 2)], 2: [(0, 1, 2)]}, 2),
                     "closure violated: face (0, 2) of (0, 1, 2) missing"),
    "not a permutation": (lambda: order_complex(range(4), GAMMA4_MASKS, 1,
                                                {0: 2, 1: 3, 2: 0, 3: 0}),
                          (range(4), {1: GAMMA4_EDGES}, 1, {0: 2, 1: 3, 2: 0, 3: 0}),
                          "involution is not a vertex permutation"),
    "not self-inverse": (lambda: order_complex(range(4), [1, 2, 4, 8], 1,
                                               {0: 1, 1: 2, 2: 3, 3: 0}),
                         (range(4), {}, 1, {0: 1, 1: 2, 2: 3, 3: 0}),
                         "involution is not self-inverse"),
    # 0 < 2 < 1, and the swap of 0 and 2 turns 0 < 2 round
    "not preserving": (lambda: order_complex([0, 1, 2], [1, 7, 5], 1,
                                             {0: 2, 1: 1, 2: 0}).dimension(),
                       ([0, 1, 2], {1: [(0, 1), (2, 1), (0, 2)]}, 1, {0: 2, 1: 1, 2: 0}),
                       "involution does not preserve simplices: (0, 2)"),
}


@pytest.mark.parametrize("defect", sorted(REJECTIONS))
def test_each_rejection_names_its_defect(defect):
    build, reference, message = REJECTIONS[defect]
    with pytest.raises(InvalidParameterError) as err:
        build()
    assert type(err.value) is InvalidParameterError
    assert str(err.value) == message
    with pytest.raises(InvalidParameterError) as ref:
        check_reference(*reference)
    assert str(ref.value) == message


PREFIXES = {
    "degenerate": "stored simplex is degenerate",
    "missing face": "closure violated",
    "not preserving": "involution does not preserve simplices",
    "not a permutation": "involution is not a vertex permutation",
    "not self-inverse": "involution is not self-inverse",
}


def _corruptions(x, rng):
    """x's up-lists and antipode, then one copy per defect, each with exactly
    that defect."""
    ups, nu = _up_lists(x), list(x.antipode)
    yield "intact", ups, nu
    cell = rng.choice(x.position_cells(x.dimension()))
    v = cell[0]
    yield "degenerate", _up_lists(x, add=[(v, v)]), nu
    # a top cell is a maximal chain: its first step is a cover, and its
    # first and third vertices span the long edge of a triangle
    a, c = cell[0], cell[2]
    yield "missing face", _up_lists(x, drop=[(a, c), (nu[a], nu[c])]), nu
    yield "not preserving", _up_lists(x, drop=[cell[:2]]), nu
    bad = list(nu)
    bad[v] = v
    yield "not a permutation", ups, bad
    w = rng.choice([w for w in range(len(nu)) if w not in (v, nu[v])])
    cycle = list(nu)
    cycle[v], cycle[w], cycle[nu[v]], cycle[nu[w]] = w, nu[v], nu[w], v
    yield "not self-inverse", ups, cycle


def _outcome(build):
    try:
        build()
    except InvalidParameterError as exc:
        message = str(exc)
        # the two missing faces lie on different cells; either names the defect
        return type(exc), message.split(":")[0] if "closure" in message else message
    return None


@pytest.mark.parametrize("make", [lambda: gamma_power(4, 2), lambda: gamma_power(8, 3),
                                  lambda: hom_complex(complete_graph(4))],
                         ids=["gamma4^2", "gamma8^3", "hom_K4"])
def test_position_check_agrees_with_reference(make):
    """Up-lists and an antipode with one defect each are refused on the
    read of every dimension, as the reference check refuses the chains they
    give."""
    x = make()
    points, labels = x.position_cells(0), x.labels
    names = []
    for name, ups, nu in _corruptions(x, random.Random(11)):
        chains = _chains(points, ups, x.cap)
        simplices = {d: [labels(c) for c in chains[d]] for d in range(1, x.cap + 1)}
        involution = {u: x.vertices[j] for u, j in zip(x.vertices, nu)}
        got = _outcome(lambda: SimplicialSet(x.vertices, points, x.cap, nu,
                                             ups).dimension())
        want = _outcome(lambda: check_reference(x.vertices, simplices, x.cap, involution))
        assert got == want, name
        if name == "intact":
            assert got is None
        else:
            assert got[0] is InvalidParameterError
            assert got[1].startswith(PREFIXES[name]), (name, got)
        names.append(name)
    assert len(names) == 6


def test_gamma_powers_euler_zero():
    for n in (1, 2, 3):
        assert gamma_power(4, n).euler_characteristic() == 0


def test_mod2_homology_of_gamma8_cubed():
    assert mod2_homology_ranks(gamma_power(8, 3)) == (1, 3, 3, 1)


def test_map_from_colouring_constant_valid():
    t = torus(4, 2)
    # valid as a map, but never equivariant, so it is refused
    with pytest.raises(NotEquivariantError):
        map_from_colouring(t, b"\1" * t.size)


def test_map_from_colouring_any_equivariant_on_2d_torus():
    # no non-degenerate 3-simplices exist in a product of two height-2 posets
    t = gamma_power(4, 2)
    assert t.n_cells(3) == 0
    rng = random.Random(1)
    nu = involution(t)
    for _ in range(20):
        col = {}
        for v in t.vertices:
            if v in col:
                continue
            bit = rng.random() < 0.5
            col[v] = BLUE if bit else YELLOW
            col[nu[v]] = YELLOW if bit else BLUE
        map_from_colouring(torus(4, 2), colour_bits(torus(4, 2), col))
        map_from_colouring(t, colour_bits(t, col))
        assert is_equivariant(t, col)


@pytest.mark.parametrize("make, count", [(lambda: torus(4, 2), 256), (lambda: torus(8, 1), 16),
                                         (lambda: gamma(8), 16)],
                         ids=["torus-4-2", "torus-8-1", "gamma-8"])
def test_equivariant_colourings_are_the_reference_dicts_in_order(make, count):
    """The bits ``equivariant_colourings`` yields are the reference's colour
    dicts, read in position order, one for one and in the same order."""
    x = make()
    got = list(equivariant_colourings(x))
    assert len(got) == count
    assert got == [colour_bits(x, col) for col in equivariant_colourings_reference(x)]


def test_map_from_colouring_alternation_witness():
    t3 = gamma_power(4, 3)
    col = {v: (BLUE if (v[0] + v[1] + v[2]) % 4 < 2 else YELLOW)
           for v in t3.vertices}
    with pytest.raises(AlternatingSimplexError) as err:
        map_from_colouring(torus(4, 3), colour_bits(torus(4, 3), col))
    alternating = sorted(c for c in labelled_cells(t3, 3)
                         if col[c[0]] != col[c[1]] != col[c[2]] != col[c[3]])
    assert len(alternating) > 1
    assert err.value.witness == alternating[0]


def _alternation(check, x, values):
    """The message and witness of the 3-alternating cell ``check`` refuses
    on x, or None when it refuses none."""
    try:
        check(x, values)
    except AlternatingSimplexError as exc:
        return str(exc), exc.witness
    return None


# the tori on which the row-major check meets the scan of the stored 3-cells
ALTERNATION_TORI = [(4, 1), (8, 1), (4, 2), (8, 2), (12, 2), (4, 3), (8, 3), (4, 4),
                    (12, 3)]


@pytest.mark.parametrize("L, n", ALTERNATION_TORI)
def test_the_row_major_check_names_the_cell_the_scan_names(L, n):
    """On 60 seeded windings, each with up to seven antipodal pairs swapped
    so that it stays equivariant, ``check_alternation`` on the row-major
    torus and on the simplicial one (closed through its up-lists) refuses
    exactly the colourings the scan of the stored 3-cells refuses, with the
    same witness and message."""
    x, grid = gamma_power(L, n), torus(L, n)
    assert [grid.mate(1 << p).bit_length() - 1 for p in range(grid.size)] == \
        torus_antipode_reference(grid) == x.antipode
    rng = random.Random(100 * L + n)
    refused = 0
    for _ in range(60):
        j = rng.randrange(n)
        values = [int(v[j] < L // 2) for v in x.vertices]
        for _ in range(rng.randrange(8)):
            p = rng.randrange(len(values))
            q = x.antipode[p]
            values[p], values[q] = values[q], values[p]
        want = _alternation(check_alternation_reference, x, values)
        assert _alternation(check_alternation, grid, values) == want
        assert _alternation(check_alternation, x, values) == want
        refused += want is not None
    assert (refused > 0) == (n >= 3)


@pytest.mark.parametrize("make", [lambda: hom_complex(complete_graph(4)),
                                  lambda: hom_complex(complete_graph(5)),
                                  lambda: order_complex("dcba", [15, 7, 3, 1], 3)],
                         ids=["hom_K4", "hom_K5", "chain"])
def test_the_order_complex_check_agrees_with_a_scan_of_its_cells(make):
    """The check closes an order complex through its kept up-lists, bit r
    the vertex of rank r in label order: on seeded colourings it refuses
    what the scan of the stored 3-cells refuses, at the same least cell.
    Hom(K_2, K_4), the domain of every ``TColouring``, has no 3-cell to
    refuse."""
    x = make()
    rng = random.Random(len(x.vertices))
    refused = 0
    for _ in range(200):
        values = [rng.choice((0, 1)) for _ in x.vertices]
        want = _alternation(check_alternation_reference, x, values)
        assert _alternation(check_alternation, x, values) == want
        refused += want is not None
    assert (refused > 0) == (x.n_cells(3) > 0)


# every torus of the alternation check, and the two order complexes whose
# antipodes ``map_from_colouring`` reads
ANTIPODE_DOMAINS = {**{f"torus-{L}-{n}": (lambda L=L, n=n: torus(L, n))
                       for L, n in ALTERNATION_TORI},
                    "gamma-8": lambda: gamma(8),
                    "hom_K4": lambda: hom_complex(complete_graph(4))}


def _antipode_refusal(check, x, bits):
    """The message and witness with which ``check`` refuses the bits on x,
    or None when it accepts them."""
    try:
        check(x, bits)
    except NotEquivariantError as exc:
        return str(exc), exc.witness
    return None


@pytest.mark.parametrize("case", sorted(ANTIPODE_DOMAINS))
def test_check_antipodes_names_the_vertex_the_scan_names(case):
    """``check_antipodes`` on bit sets names the vertex, with the message,
    that a scan of the per-vertex antipode names first: on the all-blue and
    all-yellow colourings, and on 30 seeded equivariant colourings, each
    accepted, then refused with one bit flipped."""
    x = ANTIPODE_DOMAINS[case]()
    mates = torus_antipode_reference(x)
    assert [x.mate(1 << p).bit_length() - 1 for p in range(x.size)] == mates
    rng = random.Random(x.size)
    colourings = [b"\1" * x.size, [0] * x.size]
    for _ in range(30):
        bits = bytearray(x.size)
        for k, j in enumerate(mates):
            if k < j:
                bits[k] = rng.getrandbits(1)
                bits[j] = 1 - bits[k]
        assert check_antipodes(x, bits) is None
        colourings.append(bytes(bits))
        bits[rng.randrange(x.size)] ^= 1
        colourings.append(list(bits))
    outcomes = [_antipode_refusal(check_antipodes_reference, x, bits) for bits in colourings]
    assert [_antipode_refusal(check_antipodes, x, bits) for bits in colourings] == outcomes
    assert outcomes[0][1] == vertex_labels(x)[0]
    assert outcomes[2::2] == [None] * 30 and None not in outcomes[3::2]


def test_boundary_of_triangle():
    t = gamma_power(4, 2)
    cell = sorted(labelled_cells(t, 2))[0]
    chain = ModTwoChain(2, {cell})
    faces = boundary(chain)
    assert faces.dimension == 1 and len(faces) == 3
    assert all(f in labelled_cells(t, 1) for f in faces.cells)


def test_boundary_squared_zero():
    t = gamma_power(4, 2)
    rng = random.Random(7)
    cells = sorted(labelled_cells(t, 2))
    for _ in range(10):
        pick = {c for c in cells if rng.random() < 0.4}
        if not pick:
            continue
        assert not boundary(boundary(ModTwoChain(2, pick)))


def test_order_complex_matches_gamma():
    # the down-set of each element: an odd vertex lies above its neighbours
    masks = [1 << a | (a % 2 and 1 << (a - 1) % 8 | 1 << (a + 1) % 8) for a in range(8)]
    oc = order_complex(range(8), masks, cap=3)
    g8 = gamma(8)
    assert labelled_cells(oc, 1) == labelled_cells(g8, 1)


@pytest.mark.parametrize("make", [
    lambda: order_complex("abcd", [1, 3, 7, 15], 3),
    lambda: gamma(8),
    lambda: hom_complex.__wrapped__(cycle_graph(5)),
    lambda: hom_complex.__wrapped__(complete_graph(4))],
    ids=["chains", "gamma8", "hom_C5", "hom_K4"])
def test_a_fresh_order_complex_holds_every_dimension_checked(make):
    """Circles and homomorphism complexes are built by the one chain
    builder: every dimension up to the cap when the set is made, equal to
    the same cells checked by the reference and stored as given."""
    x = make()
    assert sorted(x._positions) == list(range(x.cap + 1))
    simplices = {d: labelled_cells(x, d) for d in range(1, x.cap + 1)}
    eager = explicit_set(x.vertices, simplices, x.cap, involution(x))
    for d in range(x.cap + 1):
        assert x.position_cells(d) == eager.position_cells(d)
    assert x.antipode == eager.antipode


def test_json_roundtrip():
    for x in (sigma(2), gamma(8), gamma_power(4, 2)):
        data = json.loads(json.dumps(x.to_json()))
        back = simplicial_set_from_json(data)
        assert back.vertices == x.vertices
        for d in range(x.cap + 1):
            assert labelled_cells(back, d) == labelled_cells(x, d)
        if involution(x):
            assert involution(back) == involution(x)
