import json
import random
import re
import time
from functools import lru_cache
from itertools import chain, product

import pytest

from equihom import graphs
from equihom.errors import (CapacityExceededError, InvalidParameterError,
                            InvariantViolationError)
from equihom.graphs import (Graph, GraphHom, HomStream, MinorSpec, PowerGraph,
                            _gather, _preserves_edges, complete_graph,
                            cycle_graph, enumerate_homs, hom_from_json,
                            hom_to_json, make_template, minor, power,
                            sample_homs)

from oracles import (HomStreamReference, composite_mapping, cycle_hom_count,
                     decode, graph_from_json, graph_to_json, is_graph_hom,
                     minor_reference)


def test_templates():
    c3 = make_template("cycle", 3)
    assert c3.vertex_count == 3 and len(c3.edges) == 6
    assert c3 == complete_graph(3)
    k4 = make_template("complete", 4)
    assert k4.vertex_count == 4 and len(k4.edges) == 12
    c5 = make_template("cycle", 5)
    assert c5.vertex_count == 5 and len(c5.edges) == 10
    assert all(len(c5.neighbours(v)) == 2 for v in c5.vertices())


def test_templates_are_shared():
    assert cycle_graph(3) is cycle_graph(3) is make_template("cycle", 3)
    assert complete_graph(4) is complete_graph(4) is make_template("complete", 4)
    assert cycle_graph(5) is not cycle_graph(3)


@pytest.mark.parametrize("kind,size", [("cycle", 2), ("complete", 0), ("nonsense", 3)])
def test_template_rejects(kind, size):
    with pytest.raises(InvalidParameterError):
        make_template(kind, size)


def test_power_identity_and_degrees():
    c3 = cycle_graph(3)
    assert power(c3, 1) == c3
    sq = power(c3, 2)
    # product-degree oracle: deg(u, v) = deg(u) * deg(v)
    assert sq.vertex_count == 9
    assert all(len(sq.neighbours(v)) == 4 for v in sq.vertices())


def test_power_k2_squared_exhaustive():
    # oracle: edges of K2^2 are exactly the pairs of base edges, one per combo
    k2 = complete_graph(2)
    base_edges = sorted(k2.edges)
    expected = set()
    for e1 in base_edges:
        for e2 in base_edges:
            u = e1[0] * 2 + e2[0]
            v = e1[1] * 2 + e2[1]
            expected.add((u, v))
    sq = power(k2, 2)
    assert sq.vertex_count == 4
    assert sq.edges == frozenset(expected)
    assert len(sq.edges) == 4


def test_power_capacity():
    with pytest.raises(CapacityExceededError):
        power(complete_graph(4), 13)  # 4^13 vertices, over MAX_POWER_VERTICES
    # refused on the exponent, without the seconds 3^(10^7) takes, and named
    # by base and exponent
    start = time.perf_counter()
    with pytest.raises(CapacityExceededError,
                       match="^3\\^10000000 vertices exceeds the limit 16777216$"):
        power(cycle_graph(3), 10 ** 7)
    assert time.perf_counter() - start < 1


def test_power_is_reused_by_minor():
    c3, k4 = cycle_graph(3), complete_graph(4)
    f = next(iter(enumerate_homs(power(c3, 2), k4)))
    swap = minor(f, MinorSpec(2, 2, (2, 1)))
    diag = minor(f, MinorSpec(2, 2, (1, 1)))
    assert swap.domain is diag.domain is power(cycle_graph(3), 2)
    assert power(k4, 3) is power(k4, 3)


def test_power_encoding_row_major():
    p = power(cycle_graph(5), 3)
    assert p.encode((1, 0, 0)) == 25  # first coordinate most significant
    assert decode(p, 25) == (1, 0, 0)
    assert decode(p, p.encode((2, 4, 3))) == (2, 4, 3)


def test_enumerate_homs_counts_and_order():
    assert sum(1 for _ in enumerate_homs(complete_graph(3), complete_graph(4))) == 24
    assert (sum(1 for _ in enumerate_homs(cycle_graph(5), complete_graph(3)))
            == cycle_hom_count(5, 3) == 30)
    assert sum(1 for _ in enumerate_homs(cycle_graph(5), complete_graph(2))) == 0
    values = [f.values for f in enumerate_homs(complete_graph(3), complete_graph(4))]
    assert values == sorted(values)


def test_enumeration_deeper_than_the_recursion_limit():
    dom, cod = cycle_graph(1201), complete_graph(3)
    stream = enumerate_homs(dom, cod, limit=1)
    homs = list(stream)
    assert len(homs) == 1 and stream.truncated
    assert is_graph_hom(homs[0].values, dom.edges, cod.edges)


def test_enumerate_homs_edge_preservation_exhaustive():
    dom, cod = power(cycle_graph(3), 2), complete_graph(4)
    for f in enumerate_homs(dom, cod):
        assert all((f.values[u], f.values[v]) in cod.edges for (u, v) in dom.edges)


def test_hom_count_cross_check_cycles():
    for ell in (3, 5):
        for k in (3, 4):
            got = sum(1 for _ in enumerate_homs(cycle_graph(ell), complete_graph(k)))
            assert got == cycle_hom_count(ell, k)


def test_truncation_flag():
    stream = enumerate_homs(complete_graph(3), complete_graph(4), limit=5)
    got = list(stream)
    assert len(got) == 5 and stream.truncated
    stream = enumerate_homs(complete_graph(3), complete_graph(4), limit=24)
    assert len(list(stream)) == 24 and not stream.truncated


def test_minor_diagonal_and_swap():
    c3, k4 = cycle_graph(3), complete_graph(4)
    f = next(iter(enumerate_homs(power(c3, 2), k4)))
    diag = minor(f, MinorSpec(2, 1, (1, 1)))
    p1 = f.domain
    assert all(diag.values[x] == f.values[p1.encode((x, x))] for x in range(3))
    proj1_vals = [k4.vertices()[0]] * 9
    p2 = power(c3, 2)
    proj1 = GraphHom(p2, k4, [decode(p2, i)[0] for i in range(9)])
    swapped = minor(proj1, MinorSpec(2, 2, (2, 1)))
    assert swapped.values == tuple(decode(p2, i)[1] for i in range(9))


def test_minor_composition_oracle():
    # (f^pi)^sigma = f^(pi then sigma), checked by direct evaluation
    c3, k4 = cycle_graph(3), complete_graph(4)
    polys = list(enumerate_homs(power(c3, 2), k4, limit=40))
    pi = MinorSpec(2, 3, (3, 1))
    sigma = MinorSpec(3, 2, (2, 2, 1))
    for f in polys[::7]:
        lhs = minor(minor(f, pi), sigma)
        composite = MinorSpec(pi.n, sigma.m, composite_mapping(pi.mapping, sigma.mapping))
        rhs = minor(f, composite)
        assert lhs.values == rhs.values


def test_minor_identity():
    c3, k4 = cycle_graph(3), complete_graph(4)
    f = next(iter(enumerate_homs(power(c3, 2), k4)))
    assert minor(f, MinorSpec(2, 2, (1, 2))).values == f.values


@pytest.mark.parametrize("ell", [3, 5])
def test_minor_matches_reference_on_every_small_spec(ell):
    # every pi: [n] -> [m] with n, m <= 3, on seeded maps of each arity
    k4 = complete_graph(4)
    for n in (1, 2, 3):
        polys = sample_homs(power(cycle_graph(ell), n), k4, 3, random.Random(n))
        assert len(polys) == 3
        for m in (1, 2, 3):
            for mapping in product(range(1, m + 1), repeat=n):
                pi = MinorSpec(n, m, mapping)
                for f in polys:
                    assert minor(f, pi) == minor_reference(f, pi), (ell, pi)


def test_searched_maps_are_marked_checked_and_pass_the_edge_check():
    """Every map the search yields is marked checked, and passes the
    constructor's edge check: all maps at ell = 3 up to arity 2, the first
    3 000 of the 373 104 at arity 3 (all of them take about 25 s), and
    seeded samples on C_3^5 and C_5^3."""
    k4 = complete_graph(4)
    found = [enumerate_homs(power(cycle_graph(3), n), k4, limit=limit)
             for n, limit in ((1, None), (2, None), (3, 3000))]
    found += [sample_homs(power(cycle_graph(ell), n), k4, 6, random.Random(1))
              for ell, n in ((3, 5), (5, 3))]
    count = 0
    for f in chain.from_iterable(found):
        assert f.checked
        assert GraphHom(f.domain, k4, f.values).values == f.values
        count += 1
    assert count == 24 + 1056 + 3000 + 12


def test_minor_of_an_unchecked_map_is_checked_edge_by_edge():
    c3, k4 = cycle_graph(3), complete_graph(4)
    constant = GraphHom(power(c3, 2), k4, [0] * 9, check=False)  # K_4 has no loop
    for pi in (MinorSpec(2, 2, (2, 1)), MinorSpec(2, 1, (1, 1))):
        messages = []
        for take in (minor, minor_reference):
            with pytest.raises(InvalidParameterError, match="not preserved") as exc:
                take(constant, pi)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


def test_minor_of_a_checked_map_is_not_checked_again():
    c3, k4 = cycle_graph(3), complete_graph(4)
    f = GraphHom(power(c3, 2), k4, next(iter(enumerate_homs(power(c3, 2), k4))).values)
    swap = minor(f, MinorSpec(2, 2, (2, 1)))
    assert f.checked and swap.checked and swap == minor_reference(f, MinorSpec(2, 2, (2, 1)))
    # a map marked checked is trusted: its minors skip the per-edge loop
    constant = GraphHom(power(c3, 2), k4, [0] * 9, check=False)
    constant.checked = True
    assert minor(constant, MinorSpec(2, 1, (1, 1))).values == (0, 0, 0)


def test_minor_cache_holds_one_entry_per_spec_and_skips_no_check():
    """A domain keeps one power and gather table per (m, mapping): equal
    specs built afresh hit it and return the same target object, and an
    unchecked map over the same domain, reading the tables a checked map
    filled, is still checked."""
    c3, k4 = cycle_graph(3), complete_graph(4)
    dom = PowerGraph(c3, 2)  # not the shared power, so its cache starts empty
    f = GraphHom(dom, k4, next(iter(enumerate_homs(dom, k4))).values)
    specs = [((2, 1), 2), ((1, 1), 1), ((3, 1), 3), ((1, 1), 2)]
    first = [minor(f, MinorSpec(2, m, mapping)) for mapping, m in specs]
    for _ in range(2):
        again = [minor(f, MinorSpec(2, m, mapping)) for mapping, m in specs]
        assert [g.domain for g in again] == [g.domain for g in first]
        assert all(g.domain is h.domain for g, h in zip(again, first))
        assert [g.values for g in again] == [g.values for g in first]
    assert sorted(dom._minors) == sorted((m, mapping) for mapping, m in specs)
    assert all(dom._minors[m, mapping][0] is power(c3, m) for mapping, m in specs)
    constant = GraphHom(dom, k4, [0] * 9, check=False)  # K_4 has no loop
    for mapping, m in specs:
        with pytest.raises(InvalidParameterError, match="not preserved"):
            minor(constant, MinorSpec(2, m, mapping))
    assert len(dom._minors) == len(specs)


def test_minor_over_a_one_vertex_base_has_a_value_tuple():
    # every power of a one-vertex base has one vertex, so each gather
    # table holds one index
    point = Graph(1, {(0, 0)})
    f = GraphHom(power(point, 2), point, [0])
    for m, mapping in ((1, (1, 1)), (3, (3, 1))):
        pi = MinorSpec(2, m, mapping)
        for g in (f, GraphHom(power(point, 2), point, [0], check=False)):
            h = minor(g, pi)
            assert h.values == (0,) and h.checked and h == minor_reference(g, pi)


CHECK_DOMAINS = {"C3^2": power(cycle_graph(3), 2), "C5^2": power(cycle_graph(5), 2),
                 "C3^3": power(cycle_graph(3), 3), "looped": Graph(3, {(0, 0)})}
CHECK_CODOMAINS = {"K3": complete_graph(3), "K4": complete_graph(4),
                   "looped": Graph(3, {(0, 0), (0, 1), (1, 2)})}


@lru_cache(maxsize=None)
def _sampled_maps(dom, cod):
    return [f.values for f in sample_homs(CHECK_DOMAINS[dom], CHECK_CODOMAINS[cod], 6,
                                          random.Random(0))]


def edge_loop_message(dom, cod, values):
    """The message of the constructor's edge loop on ``values``, None if
    every edge is preserved."""
    for u, v in dom.edges:
        if (values[u], values[v]) not in cod.edges:
            return f"edge ({u},{v}) not preserved: ({values[u]},{values[v]}) missing"
    return None


def test_colour_class_check_agrees_with_the_edge_loop():
    """GraphHom's check against the edge loop, on sampled maps and random
    arrays, some with one entry replaced by a value in range or by -1, the
    vertex count of the codomain, 1.0 or True: the same accept or reject
    and the same message.  The colour classes accept exactly the maps the
    edge loop accepts whose values are all ints in range."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        names = draw(st.sampled_from(sorted(CHECK_DOMAINS))), draw(
            st.sampled_from(sorted(CHECK_CODOMAINS)))
        dom, cod = CHECK_DOMAINS[names[0]], CHECK_CODOMAINS[names[1]]
        k, size = cod.vertex_count, dom.vertex_count
        maps = _sampled_maps(*names)
        if maps and draw(st.booleans()):
            values = list(draw(st.sampled_from(maps)))
        else:
            values = draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))
        if draw(st.booleans()):
            values[draw(st.integers(0, size - 1))] = draw(
                st.integers(0, k - 1) | st.sampled_from([-1, k, 1.0, True]))
        return dom, cod, values

    seen = set()

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(cases())
    def check(case):
        dom, cod, values = case
        want = edge_loop_message(dom, cod, values)
        try:
            GraphHom(dom, cod, values)
            got = None
        except InvalidParameterError as exc:
            got = str(exc)
        assert got == want
        in_range = all(type(c) is int and 0 <= c < cod.vertex_count for c in values)
        assert _preserves_edges(dom, cod, tuple(values)) == (want is None and in_range)
        seen.add((want is None, in_range))

    check()
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_the_edge_loop_checks_where_the_masks_would_cost_more():
    """A domain whose masks would pass 8 bytes an edge keeps none, and a
    codomain with k^2 over 64 edges of the domain is not read by colour
    classes; both maps are still checked, by the edge loop."""
    sparse = Graph(100, {(0, 1)})
    assert sparse._masks is None and power(cycle_graph(3), 2)._masks is not None
    c3, k20 = cycle_graph(3), complete_graph(20)
    for dom, cod in ((sparse, complete_graph(2)), (c3, k20)):
        good = [v % 2 for v in range(dom.vertex_count)] if dom is sparse else [0, 1, 19]
        assert not _preserves_edges(dom, cod, tuple(good))
        assert GraphHom(dom, cod, good).checked
        bad = [0] * dom.vertex_count
        with pytest.raises(InvalidParameterError,
                           match=f"^{re.escape(edge_loop_message(dom, cod, bad))}$"):
            GraphHom(dom, cod, bad)


def test_gather_table_must_carry_edges_onto_edges():
    # a loop of the target has no image among the loopless edges of C_3^2
    looped = power(Graph(3, {(0, 0)}), 1)
    with pytest.raises(InvariantViolationError, match="does not preserve edges"):
        _gather(power(cycle_graph(3), 2), looped, (1, 1))


def test_minor_arity_mismatch():
    c3, k4 = cycle_graph(3), complete_graph(4)
    f = next(iter(enumerate_homs(power(c3, 2), k4)))
    with pytest.raises(InvalidParameterError):
        minor(f, MinorSpec(3, 1, (1, 1, 1)))


def test_hom_json_roundtrip():
    c3, k4 = cycle_graph(3), complete_graph(4)
    f = next(iter(enumerate_homs(power(c3, 2), k4)))
    obj = hom_to_json(f)
    assert obj == {"domain_base": 3, "arity": 2, "codomain": 4,
                   "values": list(f.values)}
    back = hom_from_json(json.loads(json.dumps(obj)))
    assert back.values == f.values


def test_graph_json_symmetry_warning():
    obj = {"vertices": 3, "edges": [[0, 1]]}
    with pytest.warns(UserWarning):
        g = graph_from_json(obj)
    assert (1, 0) in g.edges
    sym = graph_from_json(graph_to_json(cycle_graph(3)))
    assert sym == cycle_graph(3)


def test_invalid_hom_rejected():
    with pytest.raises(InvalidParameterError):
        GraphHom(cycle_graph(3), complete_graph(2), (0, 0, 1))


def test_sample_homs_reproducible():
    dom, cod = power(cycle_graph(3), 2), complete_graph(4)
    a = sample_homs(dom, cod, 10, random.Random(5))
    b = sample_homs(dom, cod, 10, random.Random(5))
    assert [f.values for f in a] == [f.values for f in b]
    assert all(is_graph_hom(f.values, dom.edges, cod.edges) for f in a)


AC3_CASES = {  # domain, codomain, limit, maps emitted
    "C3^1->K4": (power(cycle_graph(3), 1), complete_graph(4), None, 24),
    "C3^2->K4": (power(cycle_graph(3), 2), complete_graph(4), None, 1056),
    "C3^3->K4": (power(cycle_graph(3), 3), complete_graph(4), 5000, 5000),
    "C5^2->K4": (power(cycle_graph(5), 2), complete_graph(4), 3000, 3000),
    "C5->K3": (cycle_graph(5), complete_graph(3), None, 30),
    "C5->K5": (cycle_graph(5), complete_graph(5), None, 1020),
    "C5^2->C5": (power(cycle_graph(5), 2), cycle_graph(5), None, 20),
    # seeds 0 and 1 each lose restarts to the budget here
    "C5^3->K4": (power(cycle_graph(5), 3), complete_graph(4), 2000, 2000),
    "K4->K3": (complete_graph(4), complete_graph(3), None, 0),
    "looped": (Graph(4, {(0, 0), (0, 1), (1, 2), (2, 3)}),
               Graph(3, {(0, 0), (0, 1), (1, 2), (2, 2)}), None, 16),
}


@pytest.mark.parametrize("case", sorted(AC3_CASES))
def test_support_table_search_matches_reference(case):
    # a complete lexicographic search yields the same maps in the same order
    # whatever it prunes with, so forward checking on value masks matches
    # AC-3 on value lists, truncation included; the fail-first samples
    # have no reference order, so they are held to what a sample must be
    dom, cod, limit, count = AC3_CASES[case]
    stream = enumerate_homs(dom, cod, limit=limit)
    reference = HomStreamReference(dom, cod, limit=limit)
    values = [f.values for f in stream]
    assert len(values) == count
    assert values == [f.values for f in reference]
    assert stream.truncated == reference.truncated
    for seed in (0, 1):
        got = sample_homs(dom, cod, 6, random.Random(seed))
        again = sample_homs(dom, cod, 6, random.Random(seed))
        assert [f.values for f in got] == [f.values for f in again]
        assert len({f.values for f in got}) == len(got) == min(6, count)
        assert all(f.checked and is_graph_hom(f.values, dom.edges, cod.edges)
                   for f in got)


def test_budget_fires_on_the_c5_cubed_seeds(monkeypatch):
    """Each restart of the seeded C_5^3 samples that AC3_CASES draws may
    push 2 frames per domain vertex, and some restarts run out of them."""
    restarts = []

    def counted(dom, cod, limit=None, rng=None, budget=None):
        restarts.append(budget)
        return HomStream(dom, cod, limit=limit, rng=rng, budget=budget)

    monkeypatch.setattr(graphs, "HomStream", counted)
    dom, cod, _, _ = AC3_CASES["C5^3->K4"]
    for seed in (0, 1):
        restarts.clear()
        assert len(sample_homs(dom, cod, 6, random.Random(seed))) == 6
        assert set(restarts) == {2 * dom.vertex_count}
        assert len(restarts) > 6


def test_graph_hash_is_kept_and_agrees_with_equality():
    g = Graph(3, {(0, 1), (1, 2)})
    twin = Graph(3, {(2, 1), (1, 0)})
    assert g == twin and hash(g) == hash(twin) == g._hash
    assert hash(g) == hash((g.vertex_count, g.edges))
    assert hash(power(cycle_graph(3), 2)) == hash(Graph(9, power(cycle_graph(3), 2).edges))


def test_hom_stream_budget_counts_pushed_frames():
    # C_3^2 -> K_4 is found without backtracking in index order and, on
    # these seeds, fail-first: the first map pushes one frame per vertex
    # after the first
    dom, cod = power(cycle_graph(3), 2), complete_graph(4)
    first = next(iter(enumerate_homs(dom, cod))).values
    for seed in (None, 0, 1, 2):
        def stream(budget):
            rng = None if seed is None else random.Random(seed)
            return HomStream(dom, cod, limit=1, rng=rng, budget=budget)

        found = [f.values for f in stream(None)]
        assert [f.values for f in stream(dom.vertex_count - 1)] == found
        cut = stream(dom.vertex_count - 2)
        assert list(cut) == [] and not cut.truncated
        if seed is None:
            assert found == [first]


def test_sample_homs_bounded_restarts_on_c5_cubed():
    """Each restart has a budget of 2 frames per domain vertex, against the
    heavy tail of unlucky restarts.  Budget: 30 s for the eight seeds;
    about 0.05 s on a 2-vCPU Xeon."""
    dom, cod = power(cycle_graph(5), 3), complete_graph(4)
    start = time.perf_counter()
    for seed in range(8):
        got = sample_homs(dom, cod, 6, random.Random(seed))
        assert len({f.values for f in got}) == 6, seed
        assert all(is_graph_hom(f.values, dom.edges, cod.edges) for f in got)
    assert time.perf_counter() - start < 30


def test_sample_homs_reaches_c7_to_the_fourth():
    """The fail-first sampler draws three maps C_7^4 -> K_4, 2 401 domain
    vertices, where the fixed-order search ran for over five minutes.
    Budget: 30 s; about 1.4 s on a 2-vCPU Xeon."""
    dom, cod = power(cycle_graph(7), 4), complete_graph(4)
    start = time.perf_counter()
    got = sample_homs(dom, cod, 3, random.Random(1))
    assert time.perf_counter() - start < 30
    assert len({f.values for f in got}) == len(got) == 3
    assert all(f.checked and is_graph_hom(f.values, dom.edges, cod.edges) for f in got)
