"""Independent oracles used to freeze expected values.

Everything here recomputes quantities from first principles, avoiding the
library code paths under test: raw loops over tuples, the generic product of
simplicial sets, the signed boundary of a cell complex, determinantal divisors
for Smith forms, closed-form counts for cycle colourings.  The reference
formulas that table-driven paths replaced (``mu_prime`` per torus vertex, the
degree of each 2-variable minor map, GF(2) elimination against every basis
row) are kept here too, built from the slower public pieces.
"""

import math
from itertools import combinations, product

from equihom.degrees import minor_map, sigma_minor, torus_complex
from equihom.homcomplexes import mu_prime
from equihom.simplicial import gamma_power


def cycle_hom_count(ell, k):
    """Number of proper k-colourings of an ell-cycle (chromatic polynomial)."""
    return (k - 1) ** ell + (-1) ** ell * (k - 1)


def brute_multihom_count(edges, nverts):
    """Count ordered pairs of non-empty subsets spanning complete bipartite."""
    verts = range(nverts)
    count = 0
    for r in range(1, nverts + 1):
        for left in combinations(verts, r):
            for s in range(1, nverts + 1):
                for right in combinations(verts, s):
                    if all((a, b) in edges for a in left for b in right):
                        count += 1
    return count


def is_graph_hom(values, dom_edges, cod_edges):
    """Every domain edge (u, v) goes to a codomain edge (values[u], values[v])."""
    return all((values[u], values[v]) in cod_edges for u, v in dom_edges)


def composite_mapping(pi, sigma):
    """The 1-based map i -> sigma(pi(i)) of two minor maps given as tuples."""
    return tuple(sigma[p - 1] for p in pi)


def signed_boundary_rows(x, d):
    """Integer boundary of the sorted d-cells of x in the sorted (d-1)-cells.

    Raw loop: drop vertex i, skip a face with a consecutive repeat, add
    (-1)^i at the face's position.  Row j maps positions to coefficients.
    """
    position = {c: k for k, c in enumerate(sorted(x.cells(d - 1)))}
    rows = []
    for cell in sorted(x.cells(d)):
        row = {}
        for i in range(len(cell)):
            face = cell[:i] + cell[i + 1:]
            if any(face[k] == face[k + 1] for k in range(len(face) - 1)):
                continue
            k = position[face]
            row[k] = row.get(k, 0) + (-1) ** i
            if not row[k]:
                del row[k]
        rows.append(row)
    return rows


def poset_covers(u, L):
    """Successors of a vertex tuple in the product of alternating cyclic posets."""
    idx = [i for i in range(len(u)) if u[i] % 2 == 0]
    out = []
    for r in range(1, len(idx) + 1):
        for subset in combinations(idx, r):
            for signs in product((1, -1), repeat=r):
                w = list(u)
                for i, sgn in zip(subset, signs):
                    w[i] = (w[i] + sgn) % L
                out.append(tuple(w))
    return out


def strict_chains(L, n, length):
    """All strict chains with ``length`` vertices in the torus product poset."""
    chains = [(v,) for v in product(range(L), repeat=n)]
    for _ in range(length - 1):
        chains = [c + (w,) for c in chains for w in poset_covers(c[-1], L)]
    return chains


def _compositions(total, parts):
    """All ways to write total as an ordered sum of ``parts`` positive ints."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def weak_simplices(x, d):
    """All d-simplices of a relational simplicial set, degenerate ones included."""
    for k in range(min(d, x.cap) + 1):
        for core in x.cells(k):
            for mult in _compositions(d + 1, k + 1):
                yield tuple(v for v, m in zip(core, mult) for _ in range(m))


def sproduct(factors, cap):
    """Product of simplicial sets, taken dimension-wise over weak simplices.

    A tuple of weak simplices, one per factor, is a non-degenerate product
    cell iff no two consecutive vertex tuples coincide.  Returns the vertex
    tuple, the cells per dimension 0..cap and the diagonal involution.
    """
    vertices = tuple(product(*[f.vertices for f in factors]))
    cells = {0: frozenset((v,) for v in vertices)}
    for d in range(1, cap + 1):
        found = set()
        for combo in product(*[list(weak_simplices(f, d)) for f in factors]):
            cell = tuple(zip(*combo))
            if all(a != b for a, b in zip(cell, cell[1:])):
                found.add(cell)
        cells[d] = frozenset(found)
    involution = {v: tuple(f.involution[x] for f, x in zip(factors, v))
                  for v in vertices}
    return vertices, cells, involution


def brute_deg1(colour, L, Lp):
    """Degree of a 2-torus colouring by raw pattern counting.

    ``colour`` maps (a, b) to 1 (blue) or 0 (yellow).  Counts horizontal
    cells at the bottom row whose image is (blue, yellow) plus band triangles
    in rows [0, Lp/2] whose image is (blue, yellow, blue), mod 2.
    """
    e_count = 0
    for a in range(0, L, 2):
        for b in ((a + 1) % L, (a - 1) % L):
            if colour((a, 0)) == 1 and colour((b, 0)) == 0:
                e_count += 1
    d_count = 0
    for v in product(range(L), range(Lp)):
        for p1 in _covers2(v, L, Lp):
            for p2 in _covers2(p1, L, Lp):
                if all(0 <= q[1] <= Lp // 2 for q in (v, p1, p2)):
                    if colour(v) == 1 and colour(p1) == 0 and colour(p2) == 1:
                        d_count += 1
    return (e_count + d_count) % 2


def _covers2(p, L, Lp):
    sizes = (L, Lp)
    idx = [i for i in (0, 1) if p[i] % 2 == 0]
    out = []
    for r in range(1, len(idx) + 1):
        for subset in combinations(idx, r):
            for signs in product((1, -1), repeat=r):
                q = list(p)
                for i, sgn in zip(subset, signs):
                    q[i] = (q[i] + sgn) % sizes[i]
                out.append(tuple(q))
    return out


def determinantal_invariants(rows):
    """Smith invariant factors via gcds of k x k minors (small matrices only)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    previous = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for ris in combinations(range(m), k):
            for cis in combinations(range(n), k):
                g = math.gcd(g, _det([[rows[i][j] for j in cis] for i in ris]))
        if g == 0:
            break
        out.append(g // previous)
        previous = g
    return out


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * _det(minor)
    return total


def gf2_rank_reference(rows):
    """GF(2) rank of bitmask rows, reducing each row against every basis row."""
    basis = []
    for row in rows:
        for b in basis:
            if row & (b & -b):
                row ^= b
        if row:
            basis.append(row)
    return len(basis)


def mu_colours_reference(pipeline, f):
    """The colouring t(mu_prime(f, iso(y_1), ..., iso(y_n))) of each torus vertex."""
    n = pipeline.check_polymorphism(f)
    t_map = pipeline.t.as_vertex_map()
    colours = {}
    for v in gamma_power(pipeline.period, n).vertices:
        coords = (v,) if n == 1 else v
        colours[v] = t_map[mu_prime(f, tuple(pipeline.iso_map[c] for c in coords))]
    return colours


def minor_degree_vector(g, L, n):
    """deg1 of each 2-variable minor map of a torus colouring, as a raw list."""
    torus = torus_complex(L, L)
    return [torus.deg1(minor_map(g, sigma_minor(n, i), L=L, n=n))
            for i in range(1, n + 1)]
