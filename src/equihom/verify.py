"""The verification battery behind ``equihom verify``, as one ordered table.

``CHECKS`` lists every check once, as a ``(suite, name, check)`` row in
report order.  A check takes the seed and returns ``(ok, detail)``; ``run``
drives the rows of one suite, or of all of them but the slow
``bredon-large``, and records an ``EquihomError`` a check raises as a
failing row.
"""

from fractions import Fraction
from itertools import product as iter_product

from .errors import EquihomError
from .graphs import MinorSpec, complete_graph, cycle_graph, enumerate_homs, minor, power
from .homcomplexes import (CyclePipeline, canonical_cycle_iso, hom_complex, multihoms,
                           mu_prime, search_t_colouring)
from .degrees import (TorusComplex, deg_vector, find_colour_swapping_edge,
                      monomial_colouring, phi, torus_complex, winding_colouring)
from .simplicial import (equivariant_colourings, map_from_colouring, mod2_homology_ranks,
                         torus)
from .slices import arity_experiment, swap_fraction, zeta0
from .zz2 import bredon_torus, expected_bredon, quotient_pstar_check


def _check_hom_complex_sphere(seed):
    x = hom_complex(complete_graph(4))
    ok = (len(x.vertices) == 50 and x.euler_characteristic() == 2
          and mod2_homology_ranks(x, top=2) == (1, 0, 1))
    return ok, "50 vertices, Euler 2, mod-2 ranks (1,0,1)"


def _check_cycle_isomorphism(seed):
    for ell in (3, 5, 7):
        canonical_cycle_iso(ell)
        if len(hom_complex(cycle_graph(ell)).vertices) != 4 * ell:
            return False, f"ell={ell} vertex count off"
    return True, "equivariant circle isomorphism for ell in {3,5,7}"


def _check_t_search(seed):
    # a TColouring is checked as an equivariant map when it is made
    t = search_t_colouring()
    return True, f"fingerprint {t.fingerprint()[:16]}"


def _check_band_identity(seed):
    for L in (4, 8, 12):
        for Lp in (4, 8, 12):
            TorusComplex(L, Lp)  # raises if the boundary identity fails
    return True, "band boundary = cycle + antipodal cycle for L, L' in {4,8,12}"


def _check_two_torus_battery(seed):
    plane = torus_complex(4, 4)
    bound = Fraction(1, 3 * 16)
    count = 0
    for col in equivariant_colourings(torus(4, 2)):
        map_from_colouring(torus(4, 2), col)
        alpha = deg_vector(col, L=4, n=2)  # odd weight enforced internally
        for i in (1, 2):
            if alpha.bits[i - 1] == 1:
                if swap_fraction(col, 4, 2, i, 0) < bound:
                    return False, f"swap fraction below 1/48 for {list(col)}"
        if alpha.bits[0] == 1:
            find_colour_swapping_edge(col, plane)
        count += 1
    return count == 256, f"{count} equivariant colourings, all valid with odd weight"


def _check_degree_patterns(seed):
    realized = {}
    for n in (1, 2, 3):
        for j in range(1, n + 1):
            col = winding_colouring(8, n, j)
            map_from_colouring(torus(8, n), col)
            alpha = deg_vector(col, L=8, n=n)
            realized[(n, ("unit", j))] = alpha.bits
            if alpha.bits != tuple(1 if i == j else 0 for i in range(1, n + 1)):
                return False, f"unit pattern failed at n={n}, j={j}"
    col = monomial_colouring(8, 3, (1, 2, 3))
    map_from_colouring(torus(8, 3), col)
    alpha = deg_vector(col, L=8, n=3)
    realized[(3, "full")] = alpha.bits
    if alpha.bits != (1, 1, 1):
        return False, "weight-3 pattern failed"
    per_arity = {}
    for (n, _), bits in realized.items():
        per_arity.setdefault(n, []).append(bits)
    for n, vectors in per_arity.items():
        if len(set(vectors)) != len(vectors):
            return False, f"degree vectors collide at arity {n}"
    return True, "all odd patterns at n <= 3 realized, pairwise distinct"


def _check_minion_compatibility(seed):
    pipe = CyclePipeline(3)
    specs = (MinorSpec(2, 1, (1, 1)), MinorSpec(2, 2, (1, 1)), MinorSpec(2, 2, (1, 2)),
             MinorSpec(2, 2, (2, 1)), MinorSpec(2, 2, (2, 2)))
    checked = 0
    for f in enumerate_homs(power(cycle_graph(3), 2), complete_graph(4)):
        alpha = phi(f, pipe)
        for pi in specs:
            lhs = phi(minor(f, pi), pipe)
            rhs = alpha.minor(pi)
            if lhs != rhs:
                return False, f"minor mismatch for f={f.values}, pi={pi}"
        checked += 1
    return True, f"{checked} binary polymorphisms x {len(specs)} minors agree"


def _check_lax_inequality(seed):
    c3 = cycle_graph(3)
    mh = multihoms(c3)
    pairs = [(m1, m2) for m1 in mh for m2 in mh]
    pi = MinorSpec(2, 1, (1, 1))
    swap = MinorSpec(2, 2, (2, 1))
    polys = list(enumerate_homs(power(c3, 2), complete_graph(4)))
    step = max(1, len(polys) // 40)  # about 40 sampled maps
    for f in polys[::step]:
        fpi = minor(f, pi)
        for m in mh:
            small = mu_prime(fpi, (m,))
            big = mu_prime(f, (m, m))
            if not small.le(big):
                return False, f"lax inequality fails for f={f.values}"
        fsw = minor(f, swap)
        for (m1, m2) in pairs:
            lhs = mu_prime(fsw, (m1, m2))
            rhs = mu_prime(f, (m2, m1))
            if not lhs.le(rhs):
                return False, "lax inequality fails for the swap minor"
    return True, f"lax inequality over {len(pairs)} multihom pairs, sampled maps"


def _check_generalized_diagonals(seed):
    count = 0
    for n in range(2, 11):
        for L in (4, 8):
            h = 0
            while 3 * h <= n - 1 and 2 * h < n - 1:
                zeta0(n, h, L)  # validates all invariants on construction
                h += 1
                count += 1
    return True, f"{count} diagonals pass edge, antipodality and height checks"


def _bredon_table(arities, lengths, detail):
    """A check that the Bredon group is Z2^C(n-1,d-1) for n in ``arities``,
    L in ``lengths`` and 1 <= d <= n, failing on the first (n, L, d) where
    it is not.  The coboundary cache is emptied when the table ends, so the
    Smith forms of one table do not stay alive through the next."""
    def check(seed):
        try:
            for n in arities:
                for L in lengths:
                    for d in range(1, n + 1):
                        got = bredon_torus(n, L, d)
                        if got != expected_bredon(n, d):
                            return False, f"mismatch at n={n}, L={L}, d={d}: {got}"
            return True, detail
        finally:
            bredon_torus.cache_clear()
    return check


def _quotient_projection(n, L, degrees, detail):
    """A check of the pullback along the double cover at (n, L) in each of
    ``degrees``, failing on the first that does not match; the quotient and
    coboundary caches are emptied when the degrees end."""
    def check(seed):
        try:
            for d in degrees:
                if not quotient_pstar_check(n, L, d)["matches_expected"]:
                    return False, f"projection check failed at d={d}"
            return True, detail
        finally:
            quotient_pstar_check.cache_clear()
            bredon_torus.cache_clear()
    return check


def _check_odd_vector_count(seed):
    for n in (1, 2, 3):
        odd = sum(1 for bits in iter_product((0, 1), repeat=n) if sum(bits) % 2)
        group = bredon_torus(n, 4, 2)
        if group.free_rank:
            return False, f"degree-2 group unexpectedly infinite at n={n}"
        classes = 2 ** len(group.torsion)
        if odd != 2 ** (n - 1) or classes != odd:
            return False, f"counts disagree at n={n}: {odd} vs {classes}"
    return True, "odd vectors and degree-2 classes both number 2^(n-1), n <= 3"


def _check_alternation_ceiling(seed):
    report = arity_experiment(3, 3, seed=seed, chain_samples=4000)
    total = sum(row["chains_sampled"] for row in report["per_n"])
    bad = sum(row["alternation_violations"] for row in report["per_n"])
    odd_weights = all(all(int(w) % 2 == 1 for w in row["weight_histogram"])
                      for row in report["per_n"])
    ok = total >= 10000 and bad == 0 and odd_weights
    return ok, f"{total} chains sampled, {bad} violations, weights all odd"


CHECKS = (
    ("complexes", "hom-complex-K4-sphere", _check_hom_complex_sphere),
    ("complexes", "cycle-circle-isomorphism", _check_cycle_isomorphism),
    ("complexes", "structure-colouring-search", _check_t_search),
    ("degrees", "band-boundary-identity", _check_band_identity),
    ("degrees", "two-torus-exhaustive-battery", _check_two_torus_battery),
    ("degrees", "degree-patterns-realized", _check_degree_patterns),
    ("degrees", "minion-minor-compatibility", _check_minion_compatibility),
    ("degrees", "lax-minor-inequality", _check_lax_inequality),
    ("slices", "generalized-diagonal-invariants", _check_generalized_diagonals),
    ("bredon", "equivariant-torus-table", _bredon_table(
        (1, 2, 3), (4, 8), "Z2^C(n-1,d-1) for all 1 <= d <= n <= 3, L in {4,8}")),
    ("bredon", "quotient-projection-check", _quotient_projection(
        2, 8, (1, 2), "pullback injective with Z2^C(n-1,d-1) cokernel at n=2")),
    ("bredon", "odd-vector-count", _check_odd_vector_count),
    ("slices", "chain-alternation-ceiling", _check_alternation_ceiling),
    ("bredon-large", "equivariant-torus-table-n4", _bredon_table(
        (4,), (4, 8), "Z2^C(3,d-1) for all 1 <= d <= 4 at n = 4, L in {4,8}")),
    ("bredon-large", "equivariant-torus-table-n5", _bredon_table(
        (5,), (4,), "Z2^C(4,d-1) for all 1 <= d <= 5 at n = 5, L = 4")),
    ("bredon-large", "equivariant-torus-table-n6", _bredon_table(
        (6,), (4,), "Z2^C(5,d-1) for all 1 <= d <= 6 at n = 6, L = 4")),
    ("bredon-large", "quotient-projection-check-n4", _quotient_projection(
        4, 8, range(1, 5), "pullback injective with Z2^C(3,d-1) cokernel, 1 <= d <= 4, "
                           "n = 4, L = 8")),
    ("bredon-large", "quotient-projection-check-n5", _quotient_projection(
        5, 4, range(1, 6), "pullback injective with Z2^C(4,d-1) cokernel, 1 <= d <= 5, "
                           "n = 5, L = 4")),
    ("bredon-large", "equivariant-torus-table-n8", _bredon_table(
        (8,), (4,), "Z2^C(7,d-1) for all 1 <= d <= 8 at n = 8, L = 4")),
    ("bredon-large", "quotient-projection-check-n7", _quotient_projection(
        7, 8, range(1, 8), "pullback injective with Z2^C(6,d-1) cokernel, 1 <= d <= 7, "
                           "n = 7, L = 8")),
)

# suites too slow for "all": bredon-large takes about 2.5 s, most of it the
# n = 8 table and the quotient check at n = 7; its rows up to n = 6 take
# about 0.2 s
NOT_IN_ALL = frozenset({"bredon-large"})

# the --suite choices: each suite in order of first appearance, then all
SUITE_NAMES = (*dict.fromkeys(suite for suite, _, _ in CHECKS), "all")


def run(suite, seed):
    """Yield a ``{"check", "pass", "detail"}`` row per check of ``suite``, or of
    every suite but those in ``NOT_IN_ALL`` for ``"all"``, in table order; a
    check that raises an ``EquihomError`` fails with ``"Type: message"`` as
    its detail."""
    for row_suite, name, check in CHECKS:
        if suite != row_suite and (suite != "all" or row_suite in NOT_IN_ALL):
            continue
        try:
            ok, detail = check(seed)
        except EquihomError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        yield {"check": name, "pass": bool(ok), "detail": detail}
