import tracemalloc
from math import comb

import pytest

import oracles
from equihom import simplicial, zz2
from equihom.errors import (InvalidInputError, InvalidParameterError,
                            InvariantViolationError, NotFreeActionError)
from equihom.graphs import complete_graph
from equihom.homcomplexes import hom_complex
from equihom.simplicial import SimplicialSet, gamma, mod2_homology_ranks, order_complex
from equihom.snf import SparseMat, smith_normal_form
from equihom.zz2 import (CohomologyGroup, bredon_torus, cohomology, equivariant_complex,
                         expected_bredon, quotient_pstar_check)

from oracles import (ModTwoChain, add_at, boundary, cube_orbit_reference, explicit_set,
                     from_dense, gamma_power, gamma_product, involution_simplex,
                     labelled_cells, mod2_homology_ranks_dropping_degenerate_faces,
                     orbit_complex_reference, orbit_pairs_reference,
                     ordinary_cochain_complex, ordinary_cohomology,
                     quotient_by_first_shift, quotient_complexes_reference,
                     quotient_pstar_reference, sigma, signed_boundary_rows,
                     specialize_reference)


def simplicial_deltas(x, max_dim, coefficients):
    """The coboundaries of the orbit complex of x in the ring ``coefficients``."""
    return specialize_reference(*orbit_pairs_reference(x, max_dim), coefficients)


def test_orbit_ranks():
    def ranks(x, max_dim):
        return [len(r) for r in orbit_pairs_reference(x, max_dim)[0]]

    assert ranks(gamma(4), 1) == [2, 2]
    assert ranks(sigma(2), 2) == [1, 1, 1]
    # cell counts 16/48/32 halved (the 2-torus has 48 one-cells)
    assert ranks(gamma_power(4, 2), 2) == [8, 24, 16]
    # the cubical 2-torus C(4)^2 has 16 vertices, 32 edges and 16 squares
    for ring in zz2.COEFFICIENTS:
        assert [equivariant_complex(4, 2, ring).rank(d) for d in (0, 1, 2)] == [8, 16, 8]


def test_not_free_action_detected():
    fixed = explicit_set([0, 1], {1: [(0, 1), (1, 0)]}, 1, involution={0: 0, 1: 1})
    with pytest.raises(NotFreeActionError):
        orbit_pairs_reference(fixed, 1)


def test_a_shift_of_no_coordinate_is_refused():
    """With no coordinate moved the shift fixes every cell, and the count of
    representatives, none of the 16 vertices, says so."""
    with pytest.raises(NotFreeActionError,
                       match=r"^the half shift of C\(4\)\^2 fixes 16 of its 0-cells$"):
        equivariant_complex(4, 2, "Zminus", moved=())


@pytest.mark.parametrize("moved", [None, (0,)], ids=["diagonal", "first"])
@pytest.mark.parametrize("n, L", [(n, L) for n in (1, 2, 3) for L in (4, 8)] + [(4, 4)])
def test_cube_complex_matches_cell_at_a_time_reference(n, L, moved):
    """The integer cell codes, read as their n digits in base 2L, first
    coordinate first, are the reference's code tuples in the same order,
    and under every coefficient ring the coboundaries are the reference's
    orbit entries a + b*nu evaluated in that ring, row for row."""
    reps, boundaries = cube_orbit_reference(L, n, moved)
    for ring in zz2.COEFFICIENTS:
        cx = equivariant_complex(L, n, ring, moved)
        assert [[tuple(c // (2 * L) ** (n - 1 - i) % (2 * L) for i in range(n)) for c in r]
                for r in cx.reps] == reps
        assert [(m.nrows, m.ncols, m.rows) for m in cx.coboundaries] == \
            [(m.nrows, m.ncols, m.rows) for m in specialize_reference(reps, boundaries, ring)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_faces_in_one_orbit_are_summed(n):
    """On C(2), the circle of two vertices and two edges, the faces of an
    edge are mates, so its entry is nu - 1: -2 under Zminus, 0 under Zplus.
    The builder sums them as the reference does, and the sign coefficients
    still give Z_2^C(n-1,d-1)."""
    reps, boundaries = cube_orbit_reference(2, n)
    for ring in zz2.COEFFICIENTS:
        deltas = equivariant_complex(2, n, ring).coboundaries
        assert [(m.nrows, m.ncols, m.rows) for m in deltas] == \
            [(m.nrows, m.ncols, m.rows) for m in specialize_reference(reps, boundaries, ring)]
    if n == 1:
        assert [m.rows for m in equivariant_complex(2, 1, "Zminus").coboundaries] == [[{0: -2}]]
        assert [m.rows for m in equivariant_complex(2, 1, "Zplus").coboundaries] == [[{}]]
    deltas = equivariant_complex(2, n, "Zminus").coboundaries
    assert [cohomology(deltas, d) for d in range(1, n + 1)] == \
        [expected_bredon(n, d) for d in range(1, n + 1)]


@pytest.mark.parametrize("coefficients", zz2.COEFFICIENTS)
@pytest.mark.parametrize("n, L", [(n, L) for n in (1, 2, 3, 4) for L in (4, 8)] + [(5, 4)])
def test_every_group_equals_that_of_the_minimal_model(n, L, coefficients):
    """Read off C(L)^n or off C(2)^n, through the contraction of C(L) onto
    C(2), every group is the same, and so is the torsion of every cleared
    coboundary, which is that of the group above it.  The unit invariant
    factors differ in number, as the sizes of the two complexes do."""
    ours = zz2._torus_coboundaries(n, coefficients)
    theirs = zz2._Coboundaries(equivariant_complex(L, n, coefficients).coboundaries)
    assert [bredon_torus(n, L, d, coefficients) for d in range(n + 1)] == \
        [theirs.cohomology(d) for d in range(n + 1)]
    assert [ours.smith(k).torsion for k in range(n)] == \
        [theirs.smith(k).torsion for k in range(n)]


@pytest.mark.parametrize("n, L", [(1, 4), (1, 8), (2, 4), (2, 8), (3, 4), (3, 8), (4, 4)])
def test_quotient_records_equal_those_read_off_the_torus_of_side_l(n, L, monkeypatch):
    """With every orbit complex built on C(L)^n instead of C(2)^n, the
    quotient check gives the same record in every degree."""
    records = [quotient_pstar_check(n, L, d) for d in range(1, n + 1)]
    real_complex, built = zz2.equivariant_complex, []
    monkeypatch.setattr(zz2, "equivariant_complex", lambda _, n, coefficients, moved=None:
                        built.append(moved) or real_complex(L, n, coefficients, moved))
    try:
        for clear in (quotient_pstar_check.cache_clear, bredon_torus.cache_clear):
            clear()
        assert [quotient_pstar_check(n, L, d) for d in range(1, n + 1)] == records
        assert built == [None, (0,), (0,)]
    finally:
        quotient_pstar_check.cache_clear()
        bredon_torus.cache_clear()


@pytest.mark.parametrize("L", [4, 8, 12, 16, 100])
def test_the_circle_contracts_onto_the_minimal_circle(L):
    zz2._check_contraction.cache_clear()  # check L afresh, not a cached pass
    zz2._check_contraction(L)


CORRUPTED_CONTRACTIONS = {
    "h-skips-an-edge": (lambda f, g, step: (f, g, lambda i: {} if i == 2 else step(i)),
                        "id - gf != dh + hd at code 3"),
    "h-lowers-the-dimension": (lambda f, g, step: (f, g, lambda i: {4: 1} if i == 2 else step(i)),
                               "h does not raise the dimension at code 4"),
    "g-drops-an-edge": (lambda f, g, step: (f, (g[0], {k: 1 for k in g[1] if k != 3}), step),
                        "g is no chain map at code 1"),
    "g-doubles": (lambda f, g, step: (f, tuple({k: 2 for k in c} for c in g), step),
                  "fg is not the identity at code 0"),
    "f-moves-an-edge": (lambda f, g, step: (lambda c: {1: 1} if c == 1 else f(c), g, step),
                        "f is no chain map at code 1"),
    "f-sends-an-edge-to-a-vertex": (lambda f, g, step: (lambda c: {0: 1} if c == 1 else f(c),
                                                        g, step),
                                    "f changes the dimension at code 1"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTED_CONTRACTIONS))
def test_a_corrupted_contraction_is_refused(case, monkeypatch):
    corrupt, message = CORRUPTED_CONTRACTIONS[case]
    real = zz2._circle_contraction
    monkeypatch.setattr(zz2, "_circle_contraction", lambda L: corrupt(*real(L)))
    zz2._check_contraction.cache_clear()  # a cached pass at L = 8 would hide it
    for _ in range(2):  # a failure is not cached
        with pytest.raises(InvariantViolationError) as info:
            zz2._check_contraction(8)
        assert str(info.value) == f"C(8) does not contract onto C(2): {message}"


def test_specialization_rules():
    """On C(4), vertex codes 0 and 2 are representatives 0 and 1, and code 4
    is the mate of 0; edge 3 runs from code 2 to code 4, so its entry is
    -1 at orbit 1 and nu at orbit 0."""
    rows = {ring: equivariant_complex(4, 1, ring).coboundaries[0].rows
            for ring in zz2.COEFFICIENTS}
    assert rows["Zminus"] == [{1: 1, 0: -1}, {0: -1, 1: -1}]
    assert rows["Zplus"] == [{1: 1, 0: -1}, {0: 1, 1: -1}]
    assert rows["ZZ2"] == [{2: 1, 0: -1}, {3: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 3: -1}]
    with pytest.raises(InvalidParameterError,
                       match=r"^coefficients must be one of \('Zminus', 'Zplus', 'ZZ2'\)$"):
        equivariant_complex(4, 1, "Zother")


@pytest.mark.parametrize("coefficients", zz2.COEFFICIENTS)
@pytest.mark.parametrize("n, L", [(n, L) for n in (1, 2, 3) for L in (4, 8)])
def test_every_group_equals_the_simplicial_reference(n, L, coefficients):
    """The cubical torus gives the groups of the simplicial gamma(L)^n in
    every degree, under every coefficient module."""
    deltas = simplicial_deltas(gamma_power(L, n), n, coefficients)
    assert [bredon_torus(n, L, d, coefficients) for d in range(n + 1)] == \
        [cohomology(deltas, d) for d in range(n + 1)]


def test_bredon_and_quotient_check_build_no_simplicial_torus(monkeypatch):
    zz2.bredon_torus.cache_clear()
    zz2._quotient_complexes.cache_clear()
    built = []
    for owner, name in [(oracles, "_gamma_product"), (simplicial, "Torus"),
                        (SimplicialSet, "__init__")]:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, name=name:
                            built.append(name) or real(*args))
    for d in range(4):
        bredon_torus(3, 4, d)
    quotient_pstar_check(3, 8, 2)
    assert built == []


def test_cohomology_rejects_non_complex():
    bad = [from_dense([[1]]), from_dense([[1]])]
    with pytest.raises(InvariantViolationError,
                       match=r"^coboundaries do not compose to zero: delta_1 delta_0 != 0$"):
        cohomology(bad, 1)


def test_clearing_refuses_a_list_that_does_not_compose(monkeypatch):
    """delta_0 is cleared by the pivots of delta_1 only on a complex, so a
    list that does not compose is refused before any Smith form is taken,
    and no _Coboundaries is made from it."""
    smith_calls = []
    real_smith = zz2.smith_normal_form
    monkeypatch.setattr(zz2, "smith_normal_form",
                        lambda m: smith_calls.append(m) or real_smith(m))
    bad = [from_dense([[1]]), from_dense([[1]])]
    with pytest.raises(InvariantViolationError, match="delta_1 delta_0 != 0"):
        cohomology(bad, 0)
    made = []
    with pytest.raises(InvariantViolationError, match="delta_1 delta_0 != 0"):
        made.append(zz2._Coboundaries(bad))
    assert made == [] and smith_calls == []


def test_coboundaries_of_mismatched_shapes_are_refused():
    with pytest.raises(InvalidInputError, match="^delta_1 and delta_0 do not compose$"):
        zz2._Coboundaries([SparseMat(2, 1), SparseMat(1, 3)])


def test_point_cohomology():
    point = order_complex([0], [1], 1)
    assert ordinary_cohomology(point, 0, max_dim=1) == CohomologyGroup(1, ())


def test_ordinary_cohomology_torus_and_sphere():
    t = gamma_power(4, 2)
    assert [ordinary_cohomology(t, d) for d in (0, 1, 2)] == [
        CohomologyGroup(1, ()), CohomologyGroup(2, ()), CohomologyGroup(1, ())]
    sphere = hom_complex(complete_graph(4))
    assert [ordinary_cohomology(sphere, d, max_dim=2) for d in (0, 1, 2)] == [
        CohomologyGroup(1, ()), CohomologyGroup(0, ()), CohomologyGroup(1, ())]


def test_group_ring_coefficients_give_total_space():
    ring = simplicial_deltas(gamma_power(4, 2), 2, "ZZ2")
    for d in (0, 1, 2):
        assert cohomology(ring, d) == ordinary_cohomology(gamma_power(4, 2), d)
    assert [cohomology(equivariant_complex(4, 2, "ZZ2").coboundaries, d)
            for d in (0, 1, 2)] == [ordinary_cohomology(gamma_power(4, 2), d)
                                    for d in (0, 1, 2)]


def test_trivial_coefficients_give_quotient_space():
    # the quotient of the first-shift action on gamma(8) is gamma(4), a circle
    x = gamma(8)
    deltas = simplicial_deltas(x, 1, "Zplus")
    for d in (0, 1):
        assert (cohomology(deltas, d)
                == ordinary_cohomology(gamma(4), d))


def test_ordinary_cohomology_three_torus():
    x = gamma_power(4, 3)
    got = [ordinary_cohomology(x, d) for d in range(4)]
    assert [g.free_rank for g in got] == [1, 3, 3, 1]
    assert all(g.torsion == () for g in got)


def test_bredon_examples():
    assert bredon_torus(2, 4, 1) == CohomologyGroup(0, (2,))
    assert bredon_torus(2, 4, 2) == CohomologyGroup(0, (2,))
    assert bredon_torus(3, 4, 2) == CohomologyGroup(0, (2, 2))


def test_bredon_table_small():
    for n in (1, 2, 3, 4):
        for d in range(1, n + 1):
            assert bredon_torus(n, 4, d) == expected_bredon(n, d)


def test_bredon_torus_factors_each_coboundary_once(monkeypatch):
    zz2._torus_coboundaries.cache_clear()
    smith_calls = []
    real_smith = zz2.smith_normal_form
    monkeypatch.setattr(zz2, "smith_normal_form",
                        lambda m: smith_calls.append(m) or real_smith(m))
    for _ in range(2):
        for d in range(1, 4):
            assert bredon_torus(3, 4, d) == expected_bredon(3, d)
    # delta_0, delta_1 and delta_2 once each
    assert len(smith_calls) == 3
    # top coboundary first and whole; each lower one loses the rows at the
    # unit pivot columns of the one above it
    coboundaries = zz2._torus_coboundaries(3, "Zminus")
    deltas = coboundaries.deltas
    assert smith_calls[0] is deltas[2]
    # C(2)^3 has 4 orbits of 3-cells and 12 of 2-cells
    assert (deltas[2].nrows, deltas[2].ncols) == (4, 12)
    for call, k in zip(smith_calls[1:], (1, 0)):
        assert call.ncols == deltas[k].ncols
        assert call.nrows == (deltas[k].nrows
                              - len(coboundaries.smith(k + 1).pivot_columns))


def test_building_the_coboundaries_holds_little_beside_them():
    """Each face is written once, into the ring's own rows: building the
    coboundaries of C(2)^7 peaks under 1.5 times what they hold when done,
    with no intermediate matrices beside them."""
    zz2._torus_coboundaries.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        coboundaries = zz2._torus_coboundaries(7, "Zminus")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        zz2._torus_coboundaries.cache_clear()
    assert len(coboundaries.deltas) == 7
    assert peak - before < 1.5 * (held - before)


def assert_clearing_keeps_every_invariant(deltas):
    """Each cleared Smith form has the invariant factors of the whole
    coboundary."""
    cleared = zz2._Coboundaries(deltas)
    for k, delta in enumerate(deltas):
        assert cleared.smith(k).invariants == smith_normal_form(delta).invariants, k


@pytest.mark.parametrize("coefficients", zz2.COEFFICIENTS)
@pytest.mark.parametrize("n, L", [(1, 4), (2, 4), (3, 4), (4, 4),
                                  (1, 8), (2, 8), (3, 8)])
def test_cleared_torus_coboundaries_keep_their_invariants(n, L, coefficients):
    assert_clearing_keeps_every_invariant(equivariant_complex(L, n, coefficients).coboundaries)


def test_cleared_ordinary_coboundaries_keep_their_invariants():
    quotient, _ = quotient_by_first_shift(8, 2)
    for x in (gamma_power(8, 2), quotient):
        deltas, _ = ordinary_cochain_complex(x, 2)
        assert_clearing_keeps_every_invariant(deltas)


@pytest.mark.parametrize("n", [2, 3])
def test_cleared_cone_coboundaries_keep_their_invariants(n, monkeypatch):
    zz2._quotient_complexes.cache_clear()
    cones = []
    real_cone = zz2._mapping_cone
    monkeypatch.setattr(zz2, "_mapping_cone",
                        lambda *args: cones.append(real_cone(*args)) or cones[-1])
    quotient_pstar_check(n, 8, 1)
    assert len(cones) == 1
    assert_clearing_keeps_every_invariant(cones[0])


@pytest.mark.parametrize("scales, cochain_map", [
    ((1, 1), True), ((2, 2), True), ((1, 2), False), ((3, -3), False),
], ids=["identity", "twice", "mixed", "sign"])
def test_cone_list_composes_exactly_for_a_cochain_map(scales, cochain_map):
    """P = (s_0 I, s_1 I) on the cochains of gamma(4) is a cochain map exactly
    when s_0 = s_1, and only then is the cone's list a complex."""
    (delta,), _ = ordinary_cochain_complex(gamma(4), 1)
    pullbacks = [SparseMat(size, size, [{i: s} for i in range(size)])
                 for size, s in zip((delta.ncols, delta.nrows), scales)]
    cone = zz2._mapping_cone([delta], pullbacks, [delta])
    if cochain_map:
        zz2._Coboundaries(cone)
    else:
        with pytest.raises(InvariantViolationError, match="delta_1 delta_0 != 0"):
            zz2._Coboundaries(cone)


def test_bredon_independent_of_l_at_n2():
    for d in (1, 2):
        assert bredon_torus(2, 4, d) == bredon_torus(2, 8, d)


def test_bredon_above_dimension_vanishes():
    assert bredon_torus(1, 4, 2) == CohomologyGroup(0, ())


def test_quotient_construction_oracle():
    # independent orbit-complex construction: reduce labels mod 4 by hand
    g8 = gamma(8)
    image_vertices = {v % 4 for v in g8.vertices}
    image_edges = {tuple(v % 4 for v in c) for c in labelled_cells(g8, 1)}
    g4 = gamma(4)
    assert image_vertices == set(g4.vertices)
    assert image_edges == labelled_cells(g4, 1)
    q, proj = quotient_by_first_shift(8, 1)
    # the quotient is gamma(4) with 1-tuple labels, projected mod 4
    assert q.vertices == tuple((v,) for v in g4.vertices)
    for d in (0, 1):
        assert q.position_cells(d) == g4.position_cells(d)
    assert [proj(v) for v in gamma_power(8, 1).vertices] == [
        (v % 4,) for v in g8.vertices]
    # a simplicial circle needs a length divisible by 4, so this model of the
    # quotient stops at L = 8; the orbit complex has no such bound
    with pytest.raises(InvalidParameterError):
        quotient_by_first_shift(4, 1)


def test_quotient_pstar_check_n2():
    for d in (1, 2):
        rec = quotient_pstar_check(2, 8, d)
        assert rec["pstar_injective"]
        assert rec["matches_expected"]
        assert rec["cokernel"] == {"free_rank": 0, "torsion": [2]}
    rec = quotient_pstar_check(2, 8, 1)
    assert sorted(rec["pstar_invariant_factors"]) == [1, 2]


def test_quotient_check_builds_and_checks_each_torus_once(monkeypatch):
    # one orbit complex of C(2)^2 per ring under the first-coordinate shift,
    # Zplus for the quotient and ZZ2 for the torus, whatever L, the
    # pullbacks and every dd = 0 check, that of the cone being the
    # cochain-map check, run at the first degree; the second degree only
    # reads cohomology, and both records are those of the dense reference
    zz2._quotient_complexes.cache_clear()
    bredon_torus(2, 8, 1)  # the diagonal torus of the cross-check, built apart
    built = []
    real_complex = zz2.equivariant_complex
    monkeypatch.setattr(zz2, "equivariant_complex",
                        lambda *args, **kw: built.append((args, kw)) or real_complex(*args, **kw))
    first = quotient_pstar_check(2, 8, 1)
    assert built == [((2, 2, "Zplus"), {"moved": (0,)}), ((2, 2, "ZZ2"), {"moved": (0,)})]
    second = quotient_pstar_check(2, 8, 2)
    assert len(built) == 2
    assert (first, second) == (quotient_pstar_reference(2, 8, 1),
                               quotient_pstar_reference(2, 8, 2))


@pytest.mark.parametrize("n, L, d", [(1, 8, 1), (1, 16, 1), (2, 8, 1), (2, 8, 2)])
def test_quotient_pstar_cone_matches_dense_reference(n, L, d):
    assert quotient_pstar_check(n, L, d) == quotient_pstar_reference(n, L, d)


def test_quotient_complexes_match_the_simplicial_quotient_at_n3(monkeypatch):
    """At (3, 8), where the dense reference is out of reach, the torus, the
    quotient and the cone read off the orbit complex of C(2)^3 have the
    cohomology of those built on gamma(8)^3, gamma(4) x gamma(8)^2 and the
    projection in every degree, and every record is the one the simplicial
    complexes give."""
    zz2._quotient_complexes.cache_clear()
    records = [quotient_pstar_check(3, 8, d) for d in (1, 2, 3)]
    ours, theirs = zz2._quotient_complexes(3), quotient_complexes_reference(3, 8)
    for mine, reference in zip(ours, theirs):
        assert [mine.cohomology(e) for e in range(len(mine.deltas) + 1)] == \
            [reference.cohomology(e) for e in range(len(reference.deltas) + 1)]
    zz2._quotient_complexes.cache_clear()
    monkeypatch.setattr(zz2, "_quotient_complexes", lambda n: theirs)
    assert records == [quotient_pstar_check(3, 8, d) for d in (1, 2, 3)]


@pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3, 4) for d in range(1, n + 1)])
def test_quotient_pstar_check_at_l4(n, d):
    """L = 4 halves to a quotient circle of two vertices, which no simplicial
    gamma models; the orbit complex is its cellular complex all the same."""
    rec = quotient_pstar_check(n, 4, d)
    assert rec["matches_expected"] and rec["pstar_injective"]
    assert rec["pstar_invariant_factors"] == rec["expected_invariant_factors"]
    assert rec["cokernel"] == {"free_rank": 0, "torsion": [2] * comb(n - 1, d - 1)}


def test_quotient_pstar_cone_at_l16():
    # the dense reference takes tens of seconds here, so the factors are pinned
    factors = [quotient_pstar_check(2, 16, d)["pstar_invariant_factors"]
               for d in (1, 2)]
    assert factors == [[1, 2], [2]]


def test_quotient_pstar_failure_reports_cone_groups(monkeypatch):
    monkeypatch.setattr(zz2, "expected_bredon",
                        lambda n, d: CohomologyGroup(0, (2, 2)))
    with pytest.raises(InvariantViolationError) as info:
        quotient_pstar_check(2, 8, 1)
    message = str(info.value)
    assert "'cone': {'0': {'free_rank': 0, 'torsion': []}, " \
           "'1': {'free_rank': 0, 'torsion': [2]}}" in message
    assert "induced_matrix" not in message


@pytest.mark.parametrize("corrupt", [
    lambda row: {i: -v for i, v in row.items()},
    lambda row: {i + 1: v for i, v in row.items()},
], ids=["sign-flip", "mate-to-another-orbit"])
def test_quotient_pstar_rejects_a_bad_pullback(corrupt, monkeypatch):
    """A pullback with one corrupted entry in any degree k, the mate of orbit
    0 sent with the wrong sign or to orbit 1, is no cochain map, and the
    cone's dd = 0 check refuses it, naming a coboundary P_k enters."""
    real_cone = zz2._mapping_cone
    for k in range(3):
        def bad_cone(deltas_q, pullbacks, deltas_x, k=k):
            pullbacks[k].rows[1] = corrupt(pullbacks[k].rows[1])
            return real_cone(deltas_q, pullbacks, deltas_x)

        zz2._quotient_complexes.cache_clear()
        monkeypatch.setattr(zz2, "_mapping_cone", bad_cone)
        with pytest.raises(InvariantViolationError) as info:
            quotient_pstar_check(2, 8, 1)
        assert str(info.value).endswith(
            (f"delta_{k} delta_{k - 1} != 0", f"delta_{k + 1} delta_{k} != 0")), k
    zz2._quotient_complexes.cache_clear()


def test_dd_zero_is_verified():
    for coefficients in zz2.COEFFICIENTS:
        zz2._Coboundaries(equivariant_complex(4, 2, coefficients).coboundaries)  # must not raise


def test_dd_zero_catches_one_corrupted_mate_entry():
    """Row 2j of a group-ring coboundary holds a representative's faces at
    even columns and its mates' at odd ones, and row 2j + 1 the other way
    round; one nu-part entry changed is refused."""
    deltas = equivariant_complex(4, 3, "ZZ2").coboundaries
    j, i = next((j, i) for j, row in enumerate(deltas[1].rows) for i in row if (i ^ j) & 1)
    add_at(deltas[1], j, i, 1)
    with pytest.raises(InvariantViolationError, match="delta_1 delta_0 != 0"):
        zz2._Coboundaries(deltas)


@pytest.mark.parametrize("a, b, a2, b2, nonzero", [
    (1, 0, 1, 0, True),   # only the 1 part: AA'
    (0, 1, 0, 1, True),   # only the 1 part: BB'
    (1, 0, 0, 1, True),   # only the nu part: AB'
    (0, 1, 1, 0, True),   # only the nu part: BA'
    (1, 1, 1, -1, False),  # (1 + nu)(1 - nu) = 1 - nu^2 = 0
    (2, -1, 1, 1, True),  # (2 - nu)(1 + nu) = 1 + nu
], ids=["AA", "BB", "AB", "BA", "cancels", "both"])
def test_dd_zero_reads_both_parts_of_the_composition(a, b, a2, b2, nonzero):
    """Hand-built 1 x 1 coboundaries, with (A + B*nu)(A' + B'*nu) =
    (AA' + BB') + (AB' + BA')*nu.  ZZ2 coefficients refuse exactly the
    nonzero products over Z[Z2]; Zplus and Zminus refuse exactly those whose
    image under nu -> 1 or nu -> -1 is nonzero, so (2 - nu)(1 + nu) passes
    under Zminus only."""
    reps, boundaries = [[0], [0], [0]], [{(0, 0): (a2, b2)}, {(0, 0): (a, b)}]
    image = {"ZZ2": nonzero,
             "Zplus": (a + b) * (a2 + b2) != 0,
             "Zminus": (a - b) * (a2 - b2) != 0}
    for coefficients, refused in image.items():
        deltas = specialize_reference(reps, boundaries, coefficients)
        if refused:
            with pytest.raises(InvariantViolationError,
                               match="^coboundaries do not compose to zero: "
                                     r"delta_1 delta_0 != 0$"):
                zz2._Coboundaries(deltas)
        else:
            zz2._Coboundaries(deltas)


@pytest.mark.parametrize("coefficients", zz2.COEFFICIENTS)
def test_every_corrupted_orbit_entry_is_refused(coefficients):
    """Adding 1 to the first entry of any row in any degree of the
    coboundaries of C(4)^3 is refused under each coefficient module, naming
    a degree the corrupted coboundary takes part in."""
    deltas = equivariant_complex(4, 3, coefficients).coboundaries
    cases = [(k, m, j) for k, m in enumerate(deltas) for j, row in enumerate(m.rows) if row]
    # 96 + 96 + 32 orbits of dimension 1, 2 and 3, with two rows each under ZZ2
    assert len(cases) == (448 if coefficients == "ZZ2" else 224)
    for k, m, j in cases:
        i = next(iter(m.rows[j]))
        add_at(m, j, i, 1)
        with pytest.raises(InvariantViolationError) as info:
            zz2._Coboundaries(deltas)
        assert str(info.value).endswith(
            (f"delta_{k} delta_{k - 1} != 0", f"delta_{k + 1} delta_{k} != 0"))
        add_at(m, j, i, -1)
    zz2._Coboundaries(deltas)


ORBIT_CASES = {
    "sigma2": lambda: sigma(2),
    "sigma3": lambda: sigma(3),
    "gamma4": lambda: gamma(4),
    "hom_K4": lambda: hom_complex(complete_graph(4)),
    "gamma4_squared": lambda: gamma_power(4, 2),
    "gamma4_cubed": lambda: gamma_power(4, 3),
    "gamma4_fourth": lambda: gamma_power(4, 4),
    "gamma8_cubed": lambda: gamma_power(8, 3),
    "gamma_4x8": lambda: gamma_product((4, 8)),
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_pair_matches_dict_reference(case):
    x = ORBIT_CASES[case]()
    top = x.dimension()
    reps, boundaries = orbit_pairs_reference(x, top)
    want_reps, want = orbit_complex_reference(x, top)
    assert [[x.labels(c) for c in r] for r in reps] == want_reps
    assert boundaries == want


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_complex_matches_cell_by_cell_reference(case):
    """The orbit entries a + b*nu of the simplicial orbit complex are the raw
    boundary rows, one face at a time, each face's sign landing in a or b
    as the face is the representative of its orbit or the mate; and the
    group-ring coefficients give back the cohomology of the space itself."""
    x = ORBIT_CASES[case]()
    top = x.dimension()
    cells = [sorted(labelled_cells(x, d)) for d in range(top + 1)]
    reps, boundaries = orbit_pairs_reference(x, top)
    for d in range(1, top + 1):
        orbit = {}
        for i, rep in enumerate(map(x.labels, reps[d - 1])):
            orbit[rep] = (i, 0)
            orbit[involution_simplex(x, rep)] = (i, 1)
        expected = {}
        rows = dict(zip(cells[d], signed_boundary_rows(x, d)))
        for j, rep in enumerate(map(x.labels, reps[d])):
            for k, v in rows[rep].items():
                i, parity = orbit[cells[d - 1][k]]
                ab = list(expected.get((i, j), (0, 0)))
                ab[parity] += v
                expected[(i, j)] = tuple(ab)
        assert boundaries[d - 1] == {key: ab for key, ab in expected.items() if ab != (0, 0)}
    ring = specialize_reference(reps, boundaries, "ZZ2")
    deltas, _ = ordinary_cochain_complex(x, top)
    for d in range(top + 1):
        assert cohomology(ring, d) == cohomology(deltas, d)


def test_fixed_cell_is_named_as_by_the_reference():
    # the 4-cycle 0, 2 < 1, 3 with vertices 1 and 3 fixed; listed out of
    # label order, 1 sorts first
    x = order_complex([3, 1, 0, 2], [13, 7, 1, 4], 1, involution={3: 3, 1: 1, 0: 2, 2: 0})
    assert labelled_cells(x, 1) == {(0, 1), (2, 1), (0, 3), (2, 3)}
    with pytest.raises(NotFreeActionError,
                       match=r"^cell \(1,\) is fixed by the involution$"):
        orbit_pairs_reference(x, 1)


BUILDER_CASES = {
    "sigma3": lambda: sigma(3),  # has degenerate faces
    "hom_K4": lambda: hom_complex(complete_graph(4)),
    "gamma_4x8": lambda: gamma_product((4, 8)),
    "gamma4_cubed": lambda: gamma_power(4, 3),
}


@pytest.mark.parametrize("case", sorted(BUILDER_CASES))
def test_shared_builder_matches_raw_boundary_loop(case, monkeypatch):
    x = BUILDER_CASES[case]()
    top = x.dimension()
    cells = [sorted(labelled_cells(x, d)) for d in range(top + 1)]
    reference = [None] + [signed_boundary_rows(x, d) for d in range(1, top + 1)]

    # Z: the ordinary complex, entry for entry
    deltas, ordinary_cells = ordinary_cochain_complex(x, top)
    assert [[x.labels(c) for c in cs] for cs in ordinary_cells] == cells
    assert [delta.rows for delta in deltas] == reference[1:]

    # GF(2): the bitmask rows of the mod-2 homology, and the chain boundary
    seen = []
    real_rank = simplicial.gf2_rank
    monkeypatch.setattr(simplicial, "gf2_rank",
                        lambda rows: seen.append(list(rows)) or real_rank(rows))
    # sigma(3), no order complex, has its own rows without the degenerate faces
    ranks = (mod2_homology_ranks_dropping_degenerate_faces if case == "sigma3"
             else mod2_homology_ranks)
    ranks(x)
    assert seen == [[sum(1 << k for k, v in row.items() if v % 2) for row in rows]
                    for rows in reference[1:]] + [[]]
    for d in range(1, top + 1):
        odd = set()
        for row in reference[d]:
            odd ^= {cells[d - 1][k] for k, v in row.items() if v % 2}
        assert boundary(ModTwoChain(d, labelled_cells(x, d))).cells == odd
