"""Acceptance criteria, one test per criterion, each printing a pass line.

Budgets are wall-clock seconds; every numeric expectation is either exact or
frozen from an independent oracle in oracles.py.
"""

import random
import time
from fractions import Fraction
from itertools import product as iproduct

import pytest

from equihom.degrees import (TorusComplex, deg_vector, find_colour_swapping_edge,
                             monomial_colouring, phi, torus_complex)
from equihom.graphs import (MinorSpec, complete_graph, cycle_graph,
                            enumerate_homs, minor, power, sample_homs)
from equihom.homcomplexes import (CyclePipeline, canonical_cycle_iso,
                                  hom_complex, mu_prime, multihoms,
                                  search_t_colouring)
from equihom.simplicial import (equivariant_colourings, map_from_colouring,
                                mod2_homology_ranks, torus)
from equihom.slices import arity_experiment, swap_fraction, zeta0
from equihom.zz2 import bredon_torus, expected_bredon, quotient_pstar_check

from oracles import (brute_multihom_count, colour_dict, gamma, involution, is_equivariant,
                     labelled_cells)

BUDGETS = {}


def report(number, label, started, budget):
    elapsed = time.monotonic() - started
    print(f"criterion {number:02d} PASS {label} ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def pipeline():
    return CyclePipeline(3)


@pytest.fixture(scope="module")
def binary_polymorphisms():
    return list(enumerate_homs(power(cycle_graph(3), 2), complete_graph(4)))


def test_criterion_01_hom_complex_structure():
    started = time.monotonic()
    k4 = complete_graph(4)
    x = hom_complex(k4)
    assert len(x.vertices) == brute_multihom_count(k4.edges, 4) == 50
    assert x.euler_characteristic() == 2
    assert mod2_homology_ranks(x, top=2) == (1, 0, 1)
    report(1, "hom complex of the 4-clique is a 50-vertex 2-sphere", started, 1)


def test_criterion_02_cycle_isomorphism():
    started = time.monotonic()
    for ell in (3, 5, 7):
        vm = canonical_cycle_iso(ell)
        circle, target = gamma(4 * ell), hom_complex(cycle_graph(ell))
        assert len(set(vm.values())) == 4 * ell
        assert is_equivariant(circle, vm, involution(target))
        edges = labelled_cells(circle, 1)
        assert {(vm[a], vm[b]) for a, b in edges} == labelled_cells(target, 1)
    report(2, "circle isomorphism verified for cycle lengths 3, 5, 7", started, 1)


def test_criterion_03_structure_colouring_exists():
    started = time.monotonic()
    t = search_t_colouring()
    x = hom_complex(complete_graph(4))
    map_from_colouring(x, t.colours)
    assert is_equivariant(x, colour_dict(x, t.colours))
    assert search_t_colouring().colours == t.colours
    report(3, "equivariant structure colouring found", started, 60)


def test_criterion_04_band_identity():
    started = time.monotonic()
    for L in (4, 8, 12):
        for Lp in (4, 8, 12):
            TorusComplex(L, Lp)  # raises unless the band boundary is exact
    report(4, "band boundary equals cycle plus antipodal cycle", started, 1)


def test_criterion_05_two_torus_battery():
    started = time.monotonic()
    plane = torus_complex(4, 4)
    bound = Fraction(1, 3 * 16)
    count = 0
    for col in equivariant_colourings(torus(4, 2)):
        map_from_colouring(torus(4, 2), col)
        alpha = deg_vector(col, L=4, n=2)
        assert alpha.weight % 2 == 1
        for i in (1, 2):
            if alpha.bits[i - 1] == 1:
                assert Fraction(*swap_fraction(col, 4, 2, i, 0)) >= bound
        if alpha.bits[0] == 1:
            u, v = find_colour_swapping_edge(col, plane)
            assert col[4 * u[0] + u[1]] != col[4 * v[0] + v[1]]
        count += 1
    assert count == 256
    report(5, "exhaustive 256-colouring battery with zero exceptions", started, 5)


def test_criterion_06_monomial_degrees():
    started = time.monotonic()
    realized = {n: {} for n in (1, 2, 3)}
    for n in (1, 2, 3):
        for mask in range(1, 2 ** n):
            support = tuple(j + 1 for j in range(n) if mask >> j & 1)
            if len(support) % 2 == 0:
                continue
            col = monomial_colouring(8, n, support)
            map_from_colouring(torus(8, n), col)
            alpha = deg_vector(col, L=8, n=n)
            expected = tuple(1 if j in support else 0 for j in range(1, n + 1))
            assert alpha.bits == expected
            realized[n][support] = alpha.bits
    for n, table in realized.items():
        assert len(set(table.values())) == len(table)  # pairwise distinct
    assert realized[3][(1, 2, 3)] == (1, 1, 1)
    report(6, "winding constructions realize every odd pattern at n <= 3",
           started, 30)


def test_criterion_07_minion_homomorphism_exhaustive(pipeline, binary_polymorphisms):
    started = time.monotonic()
    specs = [MinorSpec(2, 1, (1, 1))]
    specs += [MinorSpec(2, 2, m) for m in ((1, 2), (2, 1), (1, 1), (2, 2))]
    assert len(binary_polymorphisms) == 1056
    for f in binary_polymorphisms:
        alpha = phi(f, pipeline)
        assert alpha.weight % 2 == 1
        for pi in specs:
            assert phi(minor(f, pi), pipeline) == alpha.minor(pi)
    report(7, "degree map respects all binary minors on 1056 polymorphisms",
           started, 600)


def test_criterion_08_lax_inequality(binary_polymorphisms):
    started = time.monotonic()
    c3 = cycle_graph(3)
    mh = multihoms(c3)
    pairs = [(m1, m2) for m1 in mh for m2 in mh]
    collapse = MinorSpec(2, 1, (1, 1))
    swap = MinorSpec(2, 2, (2, 1))
    sampled = binary_polymorphisms[::16]
    for f in sampled:
        f_collapse = minor(f, collapse)
        f_swap = minor(f, swap)
        for (m1, m2) in pairs:
            assert mu_prime(f_swap, (m1, m2)).le(mu_prime(f, (m2, m1)))
        for m in mh:
            assert mu_prime(f_collapse, (m,)).le(mu_prime(f, (m, m)))
    assert len(sampled) >= 60
    report(8, "lax minor inequality over all 144 multihom pairs", started, 60)


def test_criterion_09_generalized_diagonals():
    started = time.monotonic()
    checked = 0
    for n in range(2, 11):
        for L in (4, 8):
            h = 0
            while 3 * h <= n - 1 and 2 * h < n - 1:
                z = zeta0(n, h, L)  # constructor validates every invariant
                assert z.period == 3 * L
                checked += 1
                h += 1
    assert checked == 42
    report(9, "generalized diagonals pass all invariants for n <= 10", started, 5)


def test_criterion_10_bredon_table():
    started = time.monotonic()
    for n in (1, 2, 3):
        for L in (4, 8):
            for d in range(1, n + 1):
                assert bredon_torus(n, L, d) == expected_bredon(n, d)
    for d in (1, 2):
        rec = quotient_pstar_check(2, 8, d)
        assert rec["pstar_injective"] and rec["matches_expected"]
    for d, factors in ((1, [1, 1, 2]), (2, [1, 2, 2]), (3, [2])):
        rec = quotient_pstar_check(3, 8, d)
        assert rec["pstar_injective"] and rec["matches_expected"]
        assert rec["pstar_invariant_factors"] == factors
    for n in (1, 2, 3):
        odd_vectors = sum(1 for bits in iproduct((0, 1), repeat=n)
                          if sum(bits) % 2 == 1)
        group = bredon_torus(n, 4, 2)
        assert group.free_rank == 0
        assert odd_vectors == 2 ** (n - 1) == 2 ** len(group.torsion)
    report(10, "equivariant torus cohomology table and projection check",
           started, 120)


def test_criterion_11_alternation_ceiling():
    started = time.monotonic()
    rep = arity_experiment(3, 3, seed=2026, chain_samples=4000)
    total = sum(row["chains_sampled"] for row in rep["per_n"])
    violations = sum(row["alternation_violations"] for row in rep["per_n"])
    assert total >= 10 ** 4
    assert violations == 0
    assert all(row["max_chain_alternations"] <= 2 for row in rep["per_n"])
    report(11, f"{total} sampled chains show at most two alternations",
           started, 120)


def test_criterion_12_minion_homomorphism_sampled_to_arity_5():
    """phi(f^pi) == phi(f)^pi for seeded maps f at each arity n <= top and
    seeded pi: [n] -> [m], two for each m <= top, so the minors go up, down
    and across: top = 5 at ell = 3, top = 4 at ell = 5 and 7.  Most of the
    time is sampling C_7^4."""
    started = time.monotonic()
    checked = 0
    for ell, top in ((3, 5), (5, 4), (7, 4)):
        pipe = CyclePipeline(ell)
        rng = random.Random(ell)
        for n in range(1, top + 1):
            maps = sample_homs(power(cycle_graph(ell), n), complete_graph(4), 2, rng)
            assert len(maps) == 2
            for f in maps:
                alpha = phi(f, pipe)
                for m in range(1, top + 1):
                    for _ in range(2):
                        pi = MinorSpec(n, m, [rng.randint(1, m) for _ in range(n)])
                        assert phi(minor(f, pi), pipe) == alpha.minor(pi)
                        checked += 1
    report(12, f"degree map respects {checked} sampled minors up to arity 5",
           started, 10)
