"""Independent oracles used to freeze expected values.

Everything here recomputes quantities from first principles, avoiding the
library code paths under test: raw loops over tuples, the generic product of
simplicial sets, the signed boundary of a cell complex, determinantal divisors
for Smith forms, closed-form counts for cycle colourings.  The reference
formulas that table-driven paths replaced (``mu_prime`` per torus vertex, the
side masks of ``mu_lanes`` one side at a time, the degree of each 2-variable
minor map, GF(2) elimination against every basis row) are kept here too,
built from the slower public pieces.  So is the dense Smith form with
transforms, with the kernels, solvers and lattice quotients built on it,
which computed the map induced on cohomology by the quotient projection
before the mapping cone did.  The ordinary cochain complex of a simplicial
set and the quotient torus ``gamma(L/2) x gamma(L)^(n-1)`` with its
projection, which that map was induced by, are the reference for the
quotient check that reads both complexes off one orbit complex.  The orbit
complex with its entries a + b*nu kept as pairs in one dict, before it
became two sparse matrices, is kept too.  The tuple-based validation of a
simplicial set, one cell at a time, is the reference for the column check
the library runs on positions.
The homomorphism search with its arc consistency testing value pairs against
the edge set, over value lists, is the reference for the enumeration by
forward checking on value bitmasks, and the arity survey on colour dicts,
enumerating every arity up to the cutoff and sampling chains as vertex
tuples, is the reference for the
survey on byte lanes and row-major positions; its chain sampler, which
draws through ``randrange``, ``shuffle`` and ``choice``, and
``chain_alternations`` are the reference for the kernel that walks the
chains on ``getrandbits``.  Minors by decoding and
re-encoding every target vertex are the reference for the cached gather tables, and
the minor maps of a torus colouring, precomposed vertex by vertex, are the
reference for the degree slices of ``TorusTables``.  The band counted one
triangle at a time is the reference for the kernel that pairs its
triangles into squares, and the cycle and band read off the built 2-torus,
checked on mod-2 chains and paired by middles (``band_reference``), are
the reference for the plane ``TorusComplex`` writes down by arithmetic.
``iota``, sorting the encoded product of the sides, is the reference for
the side table summed from per-coordinate terms.  The boundary rows built
one cell and one face at a time are the reference for the columnar builder
``incidence`` behind the ordinary cochain complex, and the orbit complex that picks each representative by comparing the cell
with its mate and adds its faces to A and B entry by entry is the simplicial
model of the torus behind the Bredon groups; the same walk over the code
tuples of the cubical torus, with faces from the product rule, is the
reference for the builder of the cubical orbit complex.  The
strict chains of each poset, extended one element above at a time, and the
two-vertex sphere's tuples that change colour at every step are the
references for the cells a simplicial set stores.  The library holds a
map into sigma(2) as its blue bits in position order; the colour dicts keyed
by vertex tuples, built one vertex at a time (the winding and monomial
colourings, the equivariant colourings, and the coordinate edges with the
swap count read on them), are the reference for the bits, and
``colour_bits`` and ``colour_dict`` turn one form into the other.  ``phi``
with its scans of
the whole torus, the bits of every vertex, every 3-cell and every antipode,
is the reference for ``phi`` on the slice vertices under the check of t,
and the backtracking search for t is the reference for the colouring
``search_t_colouring`` writes down.  The multihomomorphisms found
by trying every vertex subset as a left side are the reference for the
enumeration that grows left sides, and ``mu_map``, the colouring of
mu(f) checked on the whole torus as a map into sigma(2), is what the check
of t stands for.
What only the tests use of the library's objects is here too, as plain
functions: the power-graph decoder, the graph and simplicial-set JSON
readers, the validity of a multihomomorphism, the image of a simplex under
the involution, the equivariance of a vertex map, the standard diagonal,
the slice check and the torus automorphisms, and the dense-matrix helpers
``from_dense``, ``to_dense``, ``add_at`` and ``matmul``.  The library
builds order complexes only; the small sets given by their cells, the
spheres ``sigma(k)`` among them, are checked by ``check_reference`` and
stored by ``explicit_set``, and their mod-2 homology drops the degenerate
faces that no order complex has.  The simplicial circle ``gamma`` is built
here only.  The simplicial torus ``gamma_product``, the order complex of
the product poset with every cell stored, refused past CELL_LIMIT cells in
all (``check_cell_limit``, on the closed-form count ``product_cell_count``),
and the scan of its 3-cells, ``check_alternation_reference``, are the
reference for the row-major ``Torus`` and the 3-alternation check on bit
sets.  A ``Torus`` holds no vertex tuples and no per-vertex antipode: tests read its
vertex tuples through ``vertex_labels``, and the mate positions listed one
vertex at a time, ``torus_antipode_reference``, with the scan over them,
``check_antipodes_reference``, are the reference for the half turn of bit
sets in ``Torus.mate`` and ``check_antipodes``.
"""

import functools
import math
import random
import warnings
from fractions import Fraction
from itertools import combinations, groupby, product, repeat
from operator import eq, itemgetter

from equihom import __version__, simplicial, zz2
from equihom.degrees import (deg_vector, find_colour_swapping_edge, sigma_minor,
                             torus_complex)
from equihom.errors import (AlternatingSimplexError, CapacityExceededError,
                            InternalError, InvalidInputError, InvalidParameterError,
                            NotEquivariantError, NotFreeActionError)
from equihom.graphs import (Graph, GraphHom, PowerGraph, complete_graph,
                            enumerate_homs, power, sample_homs)
from equihom.homcomplexes import CyclePipeline, Multihom, hom_complex, mu_prime
from equihom.simplicial import (CELL_LIMIT, SimplicialSet, Torus, _check_side,
                                _check_vertex_count, check_length, faces, is_degenerate,
                                map_from_colouring, order_complex, torus)
from equihom.slices import GeneralizedDiagonal
from equihom.snf import SparseMat, smith_normal_form
from equihom.zz2 import CohomologyGroup, bredon_torus, cohomology, expected_bredon

# the two colours of sigma(2), the labels of a colour dict
YELLOW = "yellow"
BLUE = "blue"


def vertex_labels(x):
    """The vertex labels of x in position order: the vertex tuples of a
    ``Torus`` in row-major order, or the vertices of an order complex."""
    return list(product(*map(range, x.sides))) if isinstance(x, Torus) else list(x.vertices)


def torus_antipode_reference(x):
    """The position of each vertex's mate on x: on a ``Torus`` one vertex
    at a time, every coordinate shifted by L/2, and on an order complex its
    ``antipode``."""
    if not isinstance(x, Torus):
        return x.antipode
    mates = [0]
    for L in reversed(x.sides):
        mates = [(v + L // 2) % L * len(mates) + m for v in range(L) for m in mates]
    return mates


def check_antipodes_reference(x, bits):
    """``check_antipodes`` one vertex at a time over the per-vertex antipode
    ``torus_antipode_reference``: the first position whose bit equals its
    mate's names the vertex."""
    for k, j in enumerate(torus_antipode_reference(x)):
        if bits[k] == bits[j]:
            v = vertex_labels(x)[k]
            raise NotEquivariantError(f"vertex {v} and its antipode share a colour", witness=v)


def colour_bits(x, colouring):
    """The blue bits, in position order, of a vertex -> colour dict on x, a
    ``Torus`` or an order complex: the form the library reads."""
    return bytes(colouring[v] == BLUE for v in vertex_labels(x))


def colour_dict(x, bits):
    """The vertex -> colour dict on x of blue bits in position order."""
    return {v: BLUE if b else YELLOW for v, b in zip(vertex_labels(x), bits)}


def winding_colouring_reference(L, n, j):
    """``winding_colouring`` one vertex tuple at a time: blue exactly when
    coordinate j lies in the lower half [0, L/2)."""
    return {v: BLUE if v[j - 1] < L // 2 else YELLOW
            for v in product(range(L), repeat=n)}


def monomial_colouring_reference(L, n, support):
    """``monomial_colouring`` one vertex tuple at a time: the sum of
    u(x) = x + (x mod 2) over the support coordinates, mod L, coloured by
    the half it lands in."""
    def level(v):
        return sum(v[j - 1] + v[j - 1] % 2 for j in support) % L

    return {v: BLUE if level(v) < L // 2 else YELLOW
            for v in product(range(L), repeat=n)}


def equivariant_colourings_reference(x):
    """``equivariant_colourings`` as colour dicts: the first vertex of each
    involution orbit, in vertex order, is the free choice, and the choices
    run in binary order, blue for a one bit."""
    labels = vertex_labels(x)
    pairs = [(labels[k], labels[j]) for k, j in enumerate(torus_antipode_reference(x))
             if k <= j]
    for choice in product((0, 1), repeat=len(pairs)):
        col = {}
        for (rep, mate), b in zip(pairs, choice):
            col[rep], col[mate] = (BLUE, YELLOW) if b else (YELLOW, BLUE)
        yield col


def coordinate_edges_reference(L, n, i, h):
    """The edges of E_i(h) as vertex tuples (u, v): u has coordinate i even
    and h of the others odd, and v moves coordinate i by +1, then by -1."""
    others = [j for j in range(n) if j != i - 1]
    for odd in combinations(others, h):
        pools = [range(1 if j in odd else 0, L, 2) for j in range(n)]
        for u in product(*pools):
            for sign in (1, -1):
                v = list(u)
                v[i - 1] = (v[i - 1] + sign) % L
                yield u, tuple(v)


def iter_coordinate_edges(L, n, i, h):
    """Stream the edges of E_i(h) in gamma(L)^n, as pairs (u, v) of row-major
    positions: the lower endpoint u has coordinate i even and h of the others
    odd, and v moves coordinate i to the odd x + 1 and then x - 1 mod L.
    The lower endpoints of each set of odd coordinates run in position order."""
    if not 1 <= i <= n:
        raise InvalidParameterError("coordinate direction out of range")
    if not 0 <= h <= n - 1:
        raise InvalidParameterError("height out of range")
    stride = L ** (n - i)
    others = [j for j in range(n) if j != i - 1]
    for odd in combinations(others, h):
        lows = [0]
        for j in range(n):
            lows = [u * L + x for u in lows for x in range(1 if j in odd else 0, L, 2)]
        for u in lows:
            x = u // stride % L
            for step in (1, L - 1):
                yield u, u + ((x + step) % L - x) * stride


def swap_fraction_reference(colours, L, n, i, h):
    """``swap_fraction`` on a colour dict keyed by vertex tuples."""
    pairs = [e for hh in sorted({h, n - 1 - h})
             for e in coordinate_edges_reference(L, n, i, hh)]
    return sum(colours[u] != colours[v] for u, v in pairs), len(pairs)


def cycle_hom_count(ell, k):
    """Number of proper k-colourings of an ell-cycle (chromatic polynomial)."""
    return (k - 1) ** ell + (-1) ** ell * (k - 1)


def brute_multihoms(edges, nverts):
    """Ordered pairs of non-empty subsets, as sorted tuples, spanning a
    complete bipartite subgraph."""
    verts = range(nverts)
    pairs = []
    for r in range(1, nverts + 1):
        for left in combinations(verts, r):
            for s in range(1, nverts + 1):
                for right in combinations(verts, s):
                    if all((a, b) in edges for a in left for b in right):
                        pairs.append((left, right))
    return pairs


def brute_multihom_count(edges, nverts):
    """Count ordered pairs of non-empty subsets spanning complete bipartite."""
    return len(brute_multihoms(edges, nverts))


def multihoms_reference(g):
    """``multihoms`` trying every vertex subset as a left side, in the
    canonical order."""
    verts = list(g.vertices())
    out = []
    for r in range(1, len(verts) + 1):
        for left in combinations(verts, r):
            common = set(verts)
            for a in left:
                common &= g.neighbours(a)
            common -= set(left)
            members = sorted(common)
            for k in range(1, len(members) + 1):
                for right in combinations(members, k):
                    out.append(Multihom(tuple(left), tuple(right)))
    out.sort(key=Multihom.sort_key)
    return out


def is_valid_multihom(m, g):
    """Both sides of the multihomomorphism m are non-empty, disjoint when g
    is loopless, and span a complete bipartite subgraph of g."""
    if not m.left or not m.right:
        return False
    if g.is_loopless() and set(m.left) & set(m.right):
        return False
    return all(g.has_edge(a, b) for a in m.left for b in m.right)


def graph_to_json(g):
    return {"vertices": g.vertex_count,
            "edges": sorted([u, v] for (u, v) in g.edges)}


def graph_from_json(obj):
    """The graph of ``graph_to_json``; an edge list that is not symmetric
    is closed under swapping, with a warning."""
    pairs = {(u, v) for u, v in obj["edges"]}
    if any((v, u) not in pairs for (u, v) in pairs):
        warnings.warn("edge list was not symmetric; applying symmetric closure")
    return Graph(obj["vertices"], pairs)


def decode(p, index):
    """The vertex tuple at ``index`` of the power graph p, the inverse of
    ``p.encode``: row-major mixed radix, coordinate 1 most significant."""
    radix = p.base.vertex_count
    out = [0] * p.exponent
    for i in range(p.exponent - 1, -1, -1):
        index, out[i] = divmod(index, radix)
    return tuple(out)


def is_graph_hom(values, dom_edges, cod_edges):
    """Every domain edge (u, v) goes to a codomain edge (values[u], values[v])."""
    return all((values[u], values[v]) in cod_edges for u, v in dom_edges)


def minor_reference(f, pi):
    """The pi-minor of a polymorphism, decoding and re-encoding each vertex."""
    dom = f.domain
    if not isinstance(dom, PowerGraph) or dom.exponent != pi.n:
        raise InvalidParameterError("minor arity does not match the domain power")
    base = dom.base
    target = power(base, pi.m)
    values = []
    for idx in range(target.vertex_count):
        ys = decode(target, idx)
        xs = tuple(ys[pi(i) - 1] for i in range(1, pi.n + 1))
        values.append(f.values[dom.encode(xs)])
    return GraphHom(target, f.codomain, values)


def composite_mapping(pi, sigma):
    """The 1-based map i -> sigma(pi(i)) of two minor maps given as tuples."""
    return tuple(sigma[p - 1] for p in pi)


def signed_boundary_rows(x, d):
    """Integer boundary of the sorted d-cells of x in the sorted (d-1)-cells.

    Raw loop: drop vertex i, skip a face with a consecutive repeat, add
    (-1)^i at the face's position.  Row j maps positions to coefficients.
    """
    position = {c: k for k, c in enumerate(sorted(labelled_cells(x, d - 1)))}
    rows = []
    for cell in sorted(labelled_cells(x, d)):
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


def check_reference(vertices, simplices, cap, involution=None):
    """Validate simplicial-set data one labelled cell at a time.

    Raises what the library raises, with the same messages: duplicate
    labels, a bad cap and an involution that is no self-inverse vertex
    permutation (``order_complex``), a degenerate cell, a missing face and
    an involution that does not preserve the cells (each dimension the
    chain builder grows).  A cell of the wrong length or with an unknown
    vertex, which no chain can be, is refused too.  A degenerate face is
    normalized: it passes when its core is stored.
    """
    vertices = tuple(vertices)
    vertex_set = frozenset(vertices)
    if len(vertex_set) != len(vertices):
        raise InvalidParameterError("duplicate vertex labels")
    if cap < 1:
        raise InvalidParameterError("dimension cap must be >= 1")
    cells = {0: frozenset((v,) for v in vertices)}
    for d in range(1, cap + 1):
        cells[d] = frozenset(tuple(s) for s in simplices.get(d, ()))

    def degenerate(tup):
        return any(a == b for a, b in zip(tup, tup[1:]))

    def has_simplex(tup):
        if not tup or any(v not in vertex_set for v in tup):
            return False
        core = tuple(v for k, v in enumerate(tup) if k == 0 or v != tup[k - 1])
        return core in cells.get(len(core) - 1, ())

    for d in range(1, cap + 1):
        for s in cells[d]:
            if len(s) != d + 1:
                raise InvalidParameterError(f"stored {d}-simplex of wrong length: {s}")
            if degenerate(s):
                raise InvalidParameterError(f"stored simplex is degenerate: {s}")
            if any(v not in vertex_set for v in s):
                raise InvalidParameterError(f"simplex uses unknown vertex: {s}")
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                if face not in cells[d - 1] and not has_simplex(face):
                    raise InvalidParameterError(
                        f"closure violated: face {face} of {s} missing")
    nu = involution
    if nu is not None:
        if set(nu) != vertex_set or set(nu.values()) != vertex_set:
            raise InvalidParameterError("involution is not a vertex permutation")
        for v in vertices:
            if nu[nu[v]] != v:
                raise InvalidParameterError("involution is not self-inverse")
        for d in range(1, cap + 1):
            for s in cells[d]:
                if tuple(nu[v] for v in s) not in cells[d]:
                    raise InvalidParameterError(
                        f"involution does not preserve simplices: {s}")


@functools.lru_cache(maxsize=64)
def labelled_cells(x, d):
    """The non-degenerate d-simplices of x as a set of vertex tuples (empty
    beyond the cap)."""
    return frozenset(map(x.labels, x.position_cells(d)))


def explicit_set(vertices, simplices, cap, involution=None):
    """The simplicial set with exactly the labelled cells ``simplices[d]``
    (d = 1..cap), checked by ``check_reference`` first.

    Built by the chain builder with empty up-lists, so that it grows no
    cell itself, and given each dimension in the sorted order of its vertex
    tuples: the sets that are no order complex, such as ``sigma(k)`` whose
    cells have degenerate faces, are stored this way.
    """
    check_reference(vertices, simplices, cap, involution)
    vertices = tuple(vertices)
    position = {v: k for k, v in enumerate(vertices)}
    antipode = None if involution is None else [position[involution[v]] for v in vertices]
    x = SimplicialSet(vertices, tuple((position[v],) for v in sorted(vertices)), cap,
                      antipode, [()] * len(vertices))
    for d in range(1, cap + 1):
        x._positions[d] = tuple(tuple(map(position.__getitem__, s))
                                for s in sorted(set(map(tuple, simplices.get(d, ())))))
    return x


def involution(x):
    """Vertex -> its mate for a simplicial set or a torus, or None without an
    involution."""
    antipode = torus_antipode_reference(x)
    if antipode is None:
        return None
    vertices = vertex_labels(x)
    return {v: vertices[j] for v, j in zip(vertices, antipode)}


def gamma(L):
    """Order complex of the alternating cyclic poset on Z_L, with cap 3.

    a < b iff a is even and b = a +- 1 mod L; the involution is the shift by
    L/2.  A triangulated circle with L vertices and L edges.
    """
    _check_side(L)
    # an odd vertex's mask holds its two even neighbours, an even one's itself
    masks = [1 << v | (v % 2 and 1 << v - 1 | 1 << (v + 1) % L) for v in range(L)]
    return order_complex(range(L), masks, 3, {v: (v + L // 2) % L for v in range(L)})


def product_cell_count(sides, d):
    """Number of non-degenerate d-cells of gamma(L_1) x ... x gamma(L_k).

    A d-chain of the product poset moves j of the k coordinates, each once,
    from an even value to one of its two odd neighbours, and the moves fill
    the d steps: d! S(j, d) surjections, counted by inclusion-exclusion.
    Every coordinate has L_i starting choices whether it moves or not.
    """
    k = len(sides)
    return math.prod(sides) * sum(
        math.comb(k, j) * sum((-1) ** i * math.comb(d, i) * (d - i) ** j
                              for i in range(d + 1))
        for j in range(d, k + 1))


def check_cell_limit(sides):
    """Refuse a product of circles with more than CELL_LIMIT cells in all.

    The vertices are counted first, so a product of many circles is refused
    before its cells are summed over every degree and every move count.
    """
    _check_vertex_count(sides, f"of {len(sides)} circles")
    total = sum(product_cell_count(sides, d) for d in range(len(sides) + 1))
    if total > CELL_LIMIT:
        raise CapacityExceededError(
            f"torus {sides} has {total} cells (limit {CELL_LIMIT})")


def gamma_product(sides):
    """Cached simplicial torus gamma(L_1) x ... x gamma(L_k) with the
    diagonal involution.

    Built as the order complex of the product of the alternating cyclic
    posets: the cells are the strict chains, and a vertex lies below exactly
    the tuples obtained by moving a nonempty subset of its even coordinates to
    a neighbour.  The cap is max(3, k), and every spelling of one torus
    shares one cache entry.  The cell limit is checked before anything is
    built.  The reference for ``simplicial.Torus``, whose order is read by
    shifts of bit sets.
    """
    return _gamma_product(tuple(sides))


def check_torus(sides):
    """Refuse what ``gamma_product`` refuses, before any cell is built: no
    sides, a side that is not a multiple of 4 from 4 up, or more than
    CELL_LIMIT cells."""
    if not sides:
        raise InvalidParameterError("a torus needs at least one side")
    for L in sides:
        _check_side(L)
    check_cell_limit(sides)


@functools.lru_cache(maxsize=16)
def _gamma_product(sides):
    check_torus(sides)
    vertices, points, antipode, ups = _product_chains(sides)
    return SimplicialSet(vertices, points, max(3, len(sides)), antipode, ups)


def _product_chains(sides):
    """Vertices, 0-cells, antipode and up-lists of the product poset.

    Positions are row-major: vertices[p] is the p-th tuple of the product,
    and every chain shares the one int object of each position.  ``ups[p]``
    lists the positions above vertex p in sorted order, so chains extended
    through them come out in the sorted order of their vertex tuples.
    """
    vertices = tuple(product(*(range(L) for L in sides)))
    strides = [math.prod(sides[i + 1:]) for i in range(len(sides))]
    positions = list(range(len(vertices)))
    ups = []
    for p, v in enumerate(vertices):
        options = [(x * s,) if x % 2 else (x * s, (x + 1) % L * s, (x - 1) % L * s)
                   for x, L, s in zip(v, sides, strides)]
        ups.append(sorted([positions[q] for q in map(sum, product(*options)) if q != p]))
    antipode = [sum((x + L // 2) % L * s for x, L, s in zip(v, sides, strides))
                for v in vertices]
    return vertices, tuple((p,) for p in positions), antipode, ups


def gamma_power(L, n):
    """The simplicial torus gamma(L)^n with the diagonal involution.

    Its vertex count L^n is checked before the n sides are listed, so a large
    n is refused at once.
    """
    _check_side(L)
    _check_vertex_count(repeat(L, n), f"gamma({L})^{n}")
    return gamma_product((L,) * n)


def cell3_columns(x):
    """The 3-cells of x as four columns of vertex positions, in
    ``position_cells(3)`` order."""
    cells = x.position_cells(3)
    return tuple(tuple(map(itemgetter(k), cells)) for k in range(4))


def check_alternation_reference(x, values):
    """``check_alternation`` by a scan of the stored 3-cells of x, a
    simplicial set: the first 3-alternating one, in the order of vertex
    tuples, is the witness."""
    for a, b, c, d in zip(*cell3_columns(x)):
        if values[a] != values[b] != values[c] != values[d]:
            simplex = tuple(x.vertices[k] for k in (a, b, c, d))
            raise AlternatingSimplexError(
                f"3-simplex {simplex} has a 3-alternating image", witness=simplex)


def mod2_homology_ranks_dropping_degenerate_faces(x, top=None):
    """``mod2_homology_ranks`` for the sets whose cells have degenerate
    faces, such as ``sigma(k)``: each boundary row is the bitmask of the
    distinct non-degenerate faces, and the ranks are taken by
    ``simplicial.gf2_rank``."""
    if top is None:
        top = x.dimension()
    cells = [x.position_cells(d) for d in range(top + 2)]
    index = [{c: i for i, c in enumerate(cs)} for cs in cells]
    bnd_rank = [0] * (top + 3)
    for d in range(1, top + 2):
        below = index[d - 1]
        rows = []
        for cell in cells[d]:
            found = {below[face] for _, face in faces(cell) if not is_degenerate(face)}
            rows.append(sum(1 << k for k in found))
        bnd_rank[d] = simplicial.gf2_rank(rows)
    return tuple(len(cells[d]) - bnd_rank[d] - bnd_rank[d + 1] for d in range(top + 1))


# the involution of sigma(k), swapping the two colours
COLOUR_SWAP = {YELLOW: BLUE, BLUE: YELLOW}


def sigma(k):
    """The two-vertex sphere model, cap 3: its d-simplices for d <= k are the
    two colour tuples that change colour at every step, and the free
    involution swaps the colours.  sigma(2) is the codomain of the maps a
    torus colouring stands for.  No sigma(k) with k >= 1 is an order
    complex: its two edges join the colours both ways, and from k = 2 on the
    middle faces of its cells repeat a colour."""
    cells = sphere_model_cells_reference(k)
    return explicit_set([YELLOW, BLUE], {d: cells[d] for d in range(1, 4)}, 3, COLOUR_SWAP)


def involution_simplex(x, tup):
    """The image of a vertex tuple of x under its involution."""
    nu = involution(x)
    return tuple(nu[v] for v in tup)


def is_equivariant(domain, vertex_map, mate=COLOUR_SWAP):
    """Does the vertex map on ``domain`` commute with the domain's involution
    and the codomain's, given as the dict ``mate`` and by default that of
    sigma(2) (False when the domain has none)?"""
    nu = involution(domain)
    if nu is None:
        return False
    return all(vertex_map[nu[v]] == mate[vertex_map[v]] for v in vertex_labels(domain))


def _label_from_json(v):
    if isinstance(v, list):
        return tuple(_label_from_json(x) for x in v)
    return v


def simplicial_set_from_json(obj):
    """The simplicial set of ``SimplicialSet.to_json`` (the ``hom-complex``
    report), labels read back as tuples."""
    vertices = [_label_from_json(v) for v in obj["vertices"]]
    simplices = {int(d): [tuple(vertices[i] for i in s) for s in ss]
                 for d, ss in obj["simplices"].items()}
    involution = None
    if "involution" in obj:
        involution = {vertices[i]: vertices[j] for i, j in enumerate(obj["involution"])}
    return explicit_set(vertices, simplices, obj["cap"], involution)


def poset_covers(u, sides):
    """Successors of a vertex tuple in the product of alternating cyclic posets
    of the given sides, one per coordinate."""
    idx = [i for i in range(len(u)) if u[i] % 2 == 0]
    out = []
    for r in range(1, len(idx) + 1):
        for subset in combinations(idx, r):
            for signs in product((1, -1), repeat=r):
                w = list(u)
                for i, sgn in zip(subset, signs):
                    w[i] = (w[i] + sgn) % sides[i]
                out.append(tuple(w))
    return out


def strict_chains(L, n, length):
    """All strict chains with ``length`` vertices in the torus product poset."""
    chains = [(v,) for v in product(range(L), repeat=n)]
    for _ in range(length - 1):
        chains = [c + (w,) for c in chains for w in poset_covers(c[-1], (L,) * n)]
    return chains


def order_complex_cells(elements, above, cap):
    """The cells of an order complex by dimension 0..cap, as sets of tuples:
    the strict chains, each extended by every element ``above`` its top."""
    cells = {0: {(a,) for a in elements}}
    for d in range(1, cap + 1):
        cells[d] = {c + (b,) for c in cells[d - 1] for b in above(c[-1])}
    return cells


def torus_cells_reference(sides, cap):
    """The cells of gamma(L_1) x ... x gamma(L_k) by dimension 0..cap, as
    tuples of vertex tuples."""
    return order_complex_cells(product(*map(range, sides)),
                               lambda u: poset_covers(u, sides), cap)


def circle_cells_reference(L):
    """The cells of gamma(L), with int vertices, by dimension 0..3."""
    return order_complex_cells(range(L), lambda a: [b for (b,) in poset_covers((a,), (L,))], 3)


def sphere_model_cells_reference(k):
    """The cells of sigma(k) by dimension 0..3: in dimension d <= k, the
    colour tuples of length d + 1 that change colour at every step."""
    return {d: {t for t in product((YELLOW, BLUE), repeat=d + 1)
                if all(a != b for a, b in zip(t, t[1:]))} if d <= k else set()
            for d in range(4)}


def hom_complex_cells_reference(edges, nverts):
    """The cells of Hom(K_2, G) by dimension 0..3: chains of multihomomorphisms
    under componentwise inclusion."""
    elements = brute_multihoms(edges, nverts)

    def above(m):
        return [o for o in elements
                if o != m and set(m[0]) <= set(o[0]) and set(m[1]) <= set(o[1])]

    return order_complex_cells(elements, above, 3)


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
        for core in labelled_cells(x, k):
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
    mates = [involution(f) for f in factors]
    return vertices, cells, {v: tuple(nu[x] for nu, x in zip(mates, v)) for v in vertices}


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


def count_deg1_reference(bits, x1, b1):
    """deg1 of a blue-bit list, one band triangle at a time: (blue, yellow)
    edges of x1 plus (blue, yellow, blue) triangles of b1, mod 2, with the
    cells given as index tuples into bits."""
    return (sum(bits[u] > bits[v] for u, v in x1)
            + sum(bits[p] > bits[q] < bits[r] for p, q, r in b1)) % 2


class ModTwoChain:
    """A mod-2 cellular chain: a set of non-degenerate cells of one dimension."""

    def __init__(self, dimension, cells):
        self.dimension = dimension
        self.cells = frozenset(cells)
        if any(len(c) != dimension + 1 for c in self.cells):
            raise InvalidParameterError("cell of wrong dimension in chain")
        if any(is_degenerate(c) for c in self.cells):
            raise InvalidParameterError("degenerate cell in chain")

    def __add__(self, other):
        if other.dimension != self.dimension:
            raise InvalidParameterError("chain dimensions differ")
        return ModTwoChain(self.dimension, self.cells ^ other.cells)

    def __eq__(self, other):
        return (isinstance(other, ModTwoChain)
                and self.dimension == other.dimension
                and self.cells == other.cells)

    def __len__(self):
        return len(self.cells)

    def __bool__(self):
        return bool(self.cells)

    def __repr__(self):
        return f"ModTwoChain(dim={self.dimension}, {len(self.cells)} cells)"


def boundary(chain):
    """Mod-2 sum of codimension-1 faces; degenerate faces are discarded."""
    if chain.dimension < 1:
        raise InvalidParameterError("boundary needs dimension >= 1")
    acc = set()
    for cell in chain.cells:  # a non-degenerate cell has distinct faces
        acc ^= {face for _, face in faces(cell) if not is_degenerate(face)}
    return ModTwoChain(chain.dimension - 1, acc)


@functools.lru_cache(maxsize=16)
def band_reference(L, Lp):
    """The cycle x1, the band b1 and its squares of the 2-torus
    gamma(L) x gamma(L'), read off the built torus as position tuples.

    x1 is the 1-cells of gamma(L) lifted to second coordinate 0, and b1 the
    2-cells of gamma(L) x gamma(L') whose second coordinates lie in
    [0, L'/2].  The band identity is checked on mod-2 chains, and the band
    is paired into squares (p, q1, q2, r) by the middles of each (p, r);
    a pair with other than two middles is refused.
    """
    sset = gamma_product((L, Lp))
    x1 = [(a * Lp, b * Lp) for a, b in gamma_product((L,)).position_cells(1)]
    b1 = [cell for cell in sset.position_cells(2) if all(p % Lp <= Lp // 2 for p in cell)]
    antipodal = [tuple(map(sset.antipode.__getitem__, e)) for e in x1]
    if boundary(ModTwoChain(2, b1)) != ModTwoChain(1, x1) + ModTwoChain(1, antipodal):
        raise InternalError("band boundary != cycle + antipodal cycle")
    middles = {}
    for p, q, r in b1:
        middles.setdefault((p, r), []).append(q)
    if any(len(qs) != 2 for qs in middles.values()):
        raise InternalError("a band pair without both middles")
    return x1, b1, [(p, q1, q2, r) for (p, r), (q1, q2) in middles.items()]


def standard_diagonal(n, L):
    """The diagonal embedding y -> (y, ..., y) as a period-L diagonal."""
    if n < 2:
        raise InvalidParameterError("need at least one ambient coordinate")
    path = [tuple(y for _ in range(n - 1)) for y in range(L)]
    return GeneralizedDiagonal(L, n - 1, path)


def slice_check(bits, L, n, zeta):
    """A colour-swapping coordinate-1 edge inside the image of the slice, for
    the blue bits of gamma(L)^n in row-major order.

    The slice pairs the free first coordinate with the diagonal; the map must
    restrict to degree 1 on it (checked, a precondition), and then a swapping
    edge must exist by the degree argument.  The edge is the one
    ``find_colour_swapping_edge`` finds on the restriction, lifted through
    the slice.
    """
    if zeta.ambient != n - 1 or zeta.L != L:
        raise InvalidParameterError("diagonal does not match the ambient torus")

    def full(x, y):
        return (x,) + zeta.path[y]

    colours = dict(zip(vertex_labels(torus(L, n)), bits))
    restricted = bytes(colours[full(x, y)] for x in range(L) for y in range(zeta.period))
    u, v = find_colour_swapping_edge(restricted, torus_complex(L, zeta.period))
    return full(*u), full(*v)


def permute_coordinates(v, perm):
    """The automorphism a_perm of a torus power (perm is 1-based)."""
    return tuple(v[perm[j] - 1] for j in range(len(v)))


def shift_coordinate(v, i, L):
    """The automorphism b_i shifting coordinate i by 2 (1-based)."""
    return tuple((x + 2) % L if j == i - 1 else x for j, x in enumerate(v))


def slice_deg1_reference(bits, L, n, i):
    """deg1 of the i-th 2-variable minor of the row-major blue bits of
    gamma(L)^n: the plane vertex (a, b) reads the torus vertex with a in
    coordinate i and b in every other, and the band of ``band_reference(L,
    L)`` is counted one triangle at a time."""
    x1, b1, _ = band_reference(L, L)

    def lift(p):
        a, b = divmod(p, L)
        return sum((a if j == i else b) * L ** (n - j) for j in range(1, n + 1))

    return count_deg1_reference(bits, [tuple(map(lift, e)) for e in x1],
                                [tuple(map(lift, c)) for c in b1])


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


def from_dense(dense):
    """The SparseMat of a list of rows."""
    ncols = len(dense[0]) if dense else 0
    return SparseMat(len(dense), ncols, [{j: v for j, v in enumerate(r) if v}
                                         for r in dense])


def to_dense(m):
    return [[r.get(j, 0) for j in range(m.ncols)] for r in m.rows]


def add_at(m, i, j, v):
    """Add v to entry (i, j) of the SparseMat m, dropping a zero sum."""
    c = m.rows[i].get(j, 0) + v
    if c:
        m.rows[i][j] = c
    else:
        m.rows[i].pop(j, None)


def matmul(a, b):
    """The product of two SparseMats."""
    if a.ncols != b.nrows:
        raise InvalidInputError("matrix shapes do not compose")
    out = SparseMat(a.nrows, b.ncols)
    for i, r in enumerate(a.rows):
        acc = out.rows[i]
        for k, v in r.items():
            for j, w in b.rows[k].items():
                c = acc.get(j, 0) + v * w
                if c:
                    acc[j] = c
                else:
                    del acc[j]
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
    """The colour t(mu_prime(f, iso(y_1), ..., iso(y_n))) of each torus
    vertex y, a dict keyed by vertex tuples."""
    n = pipeline.check_polymorphism(f)
    t = pipeline.t
    t_map = {m: BLUE if b else YELLOW for m, b in zip(t.labels, t.colours)}
    colours = {}
    for v in product(range(pipeline.period), repeat=n):
        colours[v] = t_map[mu_prime(f, tuple(pipeline.iso_map[c] for c in v))]
    return colours


def iota(ms, base):
    """Bundle an n-tuple of multihomomorphisms over G into one over G^n.

    Each side becomes the product set, encoded in the power graph's mixed
    radix.  Monotone, injective, and equivariant as a map of posets.
    """
    ms = tuple(ms)
    if not ms:
        raise InvalidParameterError("iota needs at least one multihomomorphism")
    pw = power(base, len(ms))
    left = tuple(sorted(pw.encode(c) for c in product(*[m.left for m in ms])))
    right = tuple(sorted(pw.encode(c) for c in product(*[m.right for m in ms])))
    return Multihom(left, right)


@functools.lru_cache(maxsize=8)
def _iota_sides(pipeline, n, positions=None):
    """The two sides of iota(iso(y_1), ..., iso(y_n)) of each torus vertex y,
    or of the vertices at the row-major ``positions``."""
    L = pipeline.period
    vertices = (product(range(L), repeat=n) if positions is None else
                [tuple(p // L ** (n - 1 - j) % L for j in range(n)) for p in positions])
    return [(v, tuple(iota([pipeline.iso_map[c] for c in v], pipeline.base)))
            for v in vertices]


def side_table_reference(pipeline, n, positions=None):
    """``CyclePipeline.side_table`` from the sides of iota at each vertex:
    the distinct sides grouped by size as index columns, and the grouped
    position of each vertex's left and right side."""
    position = {}
    lefts, rights = [], []
    for _, (left, right) in _iota_sides(pipeline, n, positions):
        lefts.append(position.setdefault(left, len(position)))
        rights.append(position.setdefault(right, len(position)))
    grouped = sorted(position, key=len)
    moved = {position[side]: k for k, side in enumerate(grouped)}
    return ([tuple(zip(*group)) for _, group in groupby(grouped, len)],
            [moved[k] for k in lefts], [moved[k] for k in rights])


def mu_bits_reference(pipeline, f, positions=None):
    """The blue bit of mu(f) at each torus vertex, or at the vertices at the
    row-major ``positions``, one side at a time: a side's mask ORs
    1 << f(i) over its indices, and t is read at (left << 4) | right from
    the labels and colours of ``pipeline.t``."""
    n = pipeline.check_polymorphism(f)
    values, t = f.values, pipeline.t
    table = {sum(1 << c for c in m.left) << 4 | sum(1 << c for c in m.right): b
             for m, b in zip(t.labels, t.colours)}
    bits = []
    for v, sides in _iota_sides(pipeline, n, positions):
        left, right = (sum({1 << values[i] for i in side}) for side in sides)
        bit = table.get(left << 4 | right)
        if bit is None:
            raise InvalidParameterError(
                f"f sends the multihomomorphism at vertex {v} to a pair of "
                "sides that is not a multihomomorphism of K_4")
        bits.append(bit)
    return bits


def mu_map(pipeline, f):
    """The blue bits of gamma(4*ell)^n of the polymorphism f, checked on the
    whole torus as an equivariant simplicial map into sigma(2)."""
    n = pipeline.check_polymorphism(f)
    bits = pipeline.mu_colours(f)
    try:
        map_from_colouring(torus(pipeline.period, n), bits)
    except Exception as exc:  # the composite is simplicial by construction
        raise InternalError(f"mu(f) failed validity: {exc}") from exc
    return bits


def search_t_reference():
    """The colours of t from a backtracking search over the antipodal orbit
    pairs of Hom(K_2, K_4) in canonical vertex order, the first orbit's
    colour fixed, rejecting assignments that complete a 3-alternating
    3-simplex: the reference for the colouring ``search_t_colouring``
    writes down."""
    x = hom_complex(complete_graph(4))
    count, partner = len(x.vertices), x.antipode
    cells = list(zip(*cell3_columns(x)))
    colours = [None] * count

    def consistent():
        return not any(None not in cs and cs[0] != cs[1] != cs[2] != cs[3]
                       for cs in ([colours[j] for j in cell] for cell in cells))

    def search(pos, first):
        while pos < count and colours[pos] is not None:
            pos += 1
        if pos == count:
            return True
        for bit in ((0,) if first else (0, 1)):
            colours[pos], colours[partner[pos]] = bit, 1 - bit
            if consistent() and search(pos + 1, False):
                return True
            colours[pos] = colours[partner[pos]] = None
        return False

    assert search(0, True)
    return colours


@functools.lru_cache(maxsize=1 << 15)
def sorted_covers(u, sides):
    """``poset_covers(u, sides)`` in sorted order, kept for later streams."""
    return sorted(poset_covers(u, sides))


def alternating_cells_reference(vertices, values, sides):
    """The 3-cells of gamma(L_1) x ... x gamma(L_k) with a 3-alternating
    image, streamed in the order of their vertex tuples without storing any.

    ``values`` lists a value per vertex of ``vertices``, the product's tuples
    in sorted order.  Each chain is extended through the sorted
    ``poset_covers`` of its top, and one that already repeats a value is not
    extended further, since every 3-cell through it repeats it too.
    """
    value = dict(zip(vertices, values))
    for a in vertices:
        for b in sorted_covers(a, sides):
            if value[b] == value[a]:
                continue
            for c in sorted_covers(b, sides):
                if value[c] == value[b]:
                    continue
                for d in sorted_covers(c, sides):
                    if value[d] != value[c]:
                        yield a, b, c, d


def phi_reference(f, pipeline):
    """phi with the checks on the whole torus gamma(4*ell)^n that the
    check of t stands for: the blue bits of every vertex, read by
    ``mu_bits_reference`` (a side pair that is not a multihomomorphism
    raises), no 3-cell with a 3-alternating image (AlternatingSimplexError
    on the least one, as ``check_alternation`` names it, found by
    ``alternating_cells_reference`` without building the 3-cells), then
    ``deg_vector``'s check that antipodes get opposite colours
    (NotEquivariantError) and the odd weight."""
    n = pipeline.check_polymorphism(f)
    L = pipeline.period
    vertices = vertex_labels(torus(L, n))
    bits = mu_bits_reference(pipeline, f)
    for cell in alternating_cells_reference(vertices, bits, (L,) * n):
        raise AlternatingSimplexError(
            f"3-simplex {cell} has a 3-alternating image", witness=cell)
    return deg_vector(bits, L, n)


def minor_map(g, pi, L, n):
    """Precompose a map on gamma(L)^n with the coordinate-duplication along pi.

    ``g`` holds the blue bits of gamma(L)^n in row-major order.  The result,
    in the same form, colours vertex (y_1..y_m) by g(y_{pi(1)}, ...,
    y_{pi(n)}), looked up by vertex tuple, and is checked as a map from
    gamma(L)^m into sigma(2).
    """
    if pi.n != n:
        raise InvalidParameterError("minor arity does not match the map")
    source = torus(L, n)
    check_length(source, g)
    colours = dict(zip(vertex_labels(source), g))
    target = torus(L, pi.m)
    out = bytes(colours[tuple(y[pi(i) - 1] for i in range(1, n + 1))]
                for y in vertex_labels(target))
    map_from_colouring(target, out)
    return out


def minor_degree_vector(g, L, n):
    """deg1 of each 2-variable minor map of a torus colouring, as a raw list."""
    plane = torus_complex(L, L)
    return [plane.deg1(minor_map(g, sigma_minor(n, i), L=L, n=n))
            for i in range(1, n + 1)]


def incidence(cells, index):
    """Signed boundary rows {index[face]: +-1}, one per cell, built by columns.

    ``cells`` lists stored d-cells (d >= 1) as position tuples, and ``index``
    maps each non-degenerate face, one to one, to its label in the chosen
    basis.  The cells become d + 1 columns of positions, and face i, with
    sign (-1)^i, zips every column but the i-th and is looked up in one
    pass.  A stored cell is non-degenerate, so face i is degenerate exactly
    where columns i - 1 and i + 1 agree; those faces are dropped.  A face
    missing from ``index`` raises KeyError naming the first one a
    cell-by-cell scan meets.
    """
    if not cells:
        return []
    width = len(cells[0])
    columns = [tuple(map(itemgetter(k), cells)) for k in range(width)]
    keys = []
    degenerate = False
    try:
        for i in range(width):
            face = zip(*columns[:i], *columns[i + 1:])
            if 0 < i < width - 1 and any(map(eq, columns[i - 1], columns[i + 1])):
                degenerate = True
                keys.append([None if a == b else index[f]
                             for f, a, b in zip(face, columns[i - 1], columns[i + 1])])
            else:
                keys.append(list(map(index.__getitem__, face)))
    except KeyError:
        raise KeyError(next(face for cell in cells for _, face in faces(cell)
                            if face not in index and not is_degenerate(face))) from None
    signs = tuple(-1 if i % 2 else 1 for i in range(width))
    rows = [dict(zip(row, signs)) for row in zip(*keys)]
    if degenerate:
        for row in rows:
            row.pop(None, None)
    return rows


def incidence_reference(cells, index):
    """Signed boundary rows [(index[face], +-1), ...], one cell at a time.

    Each cell yields its faces in ascending order, a degenerate face is
    dropped after a scan for a consecutive repeat, and a missing face fails
    the lookup with a KeyError naming it.
    """
    return [[(index[face], sign) for sign, face in faces(cell)
             if not is_degenerate(face)]
            for cell in cells]


def orbit_pairs_reference(x, max_dim):
    """Orbit representatives and boundaries (i, j) -> (a, b) of x, a cell at
    a time, on positions.

    Walks the sorted cells of each dimension, choosing a cell unless its
    mate came first and raising NotFreeActionError on a fixed cell; then
    adds the sign of each face of each representative to a or b entry by
    entry, as the face is the representative of its orbit or the mate.
    """
    mate = x.antipode.__getitem__
    reps = []
    index = []
    for d in range(max_dim + 1):
        chosen = []
        lookup = {}
        for c in sorted(x.position_cells(d), key=x.labels):
            if c in lookup:
                continue
            m = tuple(map(mate, c))
            if m == c:
                raise NotFreeActionError(
                    f"cell {x.labels(c)} is fixed by the involution")
            lookup[c] = (len(chosen), 0)
            lookup[m] = (len(chosen), 1)
            chosen.append(c)
        reps.append(chosen)
        index.append(lookup)
    boundaries = [_orbit_entries(enumerate(incidence_reference(reps[d], index[d - 1])))
                  for d in range(1, max_dim + 1)]
    return reps, boundaries


def _orbit_entries(faces_by_cell):
    """The dict (i, j) -> (a, b) of the signed faces ((i, is_mate), sign) of
    each cell j, without zero entries."""
    mat = {}
    for j, row_faces in faces_by_cell:
        for (i, is_mate), sign in row_faces:
            a, b = mat.get((i, j), (0, 0))
            if is_mate:
                b += sign
            else:
                a += sign
            if a or b:
                mat[(i, j)] = (a, b)
            else:
                mat.pop((i, j), None)
    return mat


def orbit_complex_reference(x, max_dim):
    """Orbit representatives and boundaries of x as dicts (i, j) -> (a, b).

    Entry (i, j) of the d-th dict is a + b*nu, the coefficient of orbit i of
    dimension d - 1 in the boundary of orbit j of dimension d.
    """
    reps = []
    index = []
    for d in range(max_dim + 1):
        chosen = []
        lookup = {}
        for c in sorted(labelled_cells(x, d)):
            mate = involution_simplex(x, c)
            if c <= mate:
                lookup[c] = (len(chosen), 0)
                lookup[mate] = (len(chosen), 1)
                chosen.append(c)
        reps.append(chosen)
        index.append(lookup)
    boundaries = [_orbit_entries(enumerate(incidence_reference(reps[d], index[d - 1])))
                  for d in range(1, max_dim + 1)]
    return reps, boundaries


def cube_orbit_reference(L, n, moved=None):
    """Orbit representatives and boundaries (i, j) -> (a, b) of the cubical
    torus C(L)^n under the half shift of the coordinates in ``moved`` (all by
    default), a cell at a time.

    Sorts every code tuple by dimension and then as a tuple, chooses a cell
    unless its mate came first, raising NotFreeActionError on a fixed cell,
    and adds each face of each representative to a or b entry by entry.  The
    faces come from the product rule d(a x b) = da x b + (-1)^|a| a x db,
    applied one factor at a time, over the circle's d(edge from i) =
    (i + 1) - i.
    """
    span = 2 * L
    moved = range(n) if moved is None else moved

    def mate(cell):
        return tuple((c + L) % span if i in moved else c for i, c in enumerate(cell))

    def boundary(cell):
        if not cell:
            return []
        head, tail = cell[0], cell[1:]
        out = [((f,) + tail, s) for f, s in
               ([((head + 1) % span, 1), (head - 1, -1)] if head % 2 else [])]
        sign = -1 if head % 2 else 1
        return out + [((head,) + f, sign * s) for f, s in boundary(tail)]

    def dimension(cell):
        return sum(c % 2 for c in cell)

    reps, index = [[] for _ in range(n + 1)], [{} for _ in range(n + 1)]
    for c in sorted(product(range(span), repeat=n), key=lambda c: (dimension(c), c)):
        chosen, lookup = reps[dimension(c)], index[dimension(c)]
        if c in lookup:
            continue
        if mate(c) == c:
            raise NotFreeActionError(f"cell {c} is fixed by the half shift")
        lookup[c] = (len(chosen), 0)
        lookup[mate(c)] = (len(chosen), 1)
        chosen.append(c)
    boundaries = [_orbit_entries((j, [(index[d - 1][face], sign) for face, sign in boundary(cell)])
                                 for j, cell in enumerate(reps[d]))
                  for d in range(1, n + 1)]
    return reps, boundaries


def specialize_reference(reps, boundaries, coefficients):
    """Coboundaries of the dict orbit complex: transpose, evaluate a + b*nu."""
    deltas = []
    for d in range(1, len(reps)):
        n_rows, n_cols = len(reps[d]), len(reps[d - 1])
        if coefficients == "ZZ2":
            delta = SparseMat(2 * n_rows, 2 * n_cols)
            for (i, j), (a, b) in boundaries[d - 1].items():
                add_at(delta, 2 * j, 2 * i, a)
                add_at(delta, 2 * j, 2 * i + 1, b)
                add_at(delta, 2 * j + 1, 2 * i, b)
                add_at(delta, 2 * j + 1, 2 * i + 1, a)
        else:
            delta = SparseMat(n_rows, n_cols)
            for (i, j), (a, b) in boundaries[d - 1].items():
                value = a - b if coefficients == "Zminus" else a + b
                if value:
                    add_at(delta, j, i, value)
        deltas.append(delta)
    return deltas


def _diagonalize(a, s, t):
    """Diagonalize ``a`` in place by unimodular row/column operations.

    ``s`` and ``t`` (optional) accumulate the operations so that the final
    matrix equals s * a_original * t.  Returns the diagonal.
    """
    m = len(a)
    n = len(a[0]) if m else 0

    def row_op(i, k, q):
        ai, ak = a[i], a[k]
        for j in range(n):
            ai[j] -= q * ak[j]
        if s is not None:
            si, sk = s[i], s[k]
            for j in range(len(si)):
                si[j] -= q * sk[j]

    def col_op(j, k, q):
        for row in a:
            row[j] -= q * row[k]
        if t is not None:
            for row in t:
                row[j] -= q * row[k]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        if s is not None:
            s[i], s[k] = s[k], s[i]

    def col_swap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        if t is not None:
            for row in t:
                row[j], row[k] = row[k], row[j]

    top = 0
    while True:
        pi = pj = None
        best = None
        for i in range(top, m):
            row = a[i]
            for j in range(top, n):
                v = abs(row[j])
                if v and (best is None or v < best):
                    best, pi, pj = v, i, j
        if best is None:
            break
        row_swap(top, pi)
        col_swap(top, pj)
        while True:
            p = a[top][top]
            restart = False
            for i in range(top + 1, m):
                if a[i][top]:
                    row_op(i, top, a[i][top] // p)
                    if a[i][top]:
                        row_swap(top, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(top + 1, n):
                if a[top][j]:
                    col_op(j, top, a[top][j] // p)
                    if a[top][j]:
                        col_swap(top, j)
                        restart = True
                        break
            if not restart:
                break
        if a[top][top] < 0:
            for j in range(n):
                a[top][j] = -a[top][j]
            if s is not None:
                for j in range(len(s[top])):
                    s[top][j] = -s[top][j]
        top += 1
    return [a[i][i] for i in range(min(m, n))]


def snf_with_transforms(matrix):
    """Smith form with transforms: returns (diag, S, T) with S*A*T diagonal.

    The diagonal satisfies the divisibility chain.  Intended for the modest
    dense matrices arising in cohomology-class computations.
    """
    a = [list(r) for r in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    s = [[int(i == j) for j in range(m)] for i in range(m)]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    diag = _diagonalize(a, s, t)
    # repair divisibility violations: merge the offending columns and
    # re-diagonalize (cheap at these sizes, and obviously correct)
    while True:
        rank = sum(1 for d in diag if d)
        bad = None
        for i in range(rank):
            for j in range(i + 1, rank):
                if diag[j] % diag[i]:
                    bad = (i, j)
                    break
            if bad:
                break
        if bad is None:
            break
        i, j = bad
        for row in a:
            row[i] += row[j]
        for row in t:
            row[i] += row[j]
        diag = _diagonalize(a, s, t)
    return [abs(d) for d in diag], s, t


def kernel_basis(matrix):
    """Basis (list of integer vectors) of the kernel of an integer matrix."""
    a = [list(r) for r in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0 or n == 0:
        return [[int(i == j) for i in range(n)] for j in range(n)]
    diag, _, t = snf_with_transforms(a)
    rank = sum(1 for d in diag if d)
    return [[t[i][j] for i in range(n)] for j in range(rank, n)]


def _nonzero_pairs(dense):
    return [[(k, v) for k, v in enumerate(row) if v] for row in dense]


class ExactSolver:
    """Prefactorized integer linear solver for repeated right-hand sides."""

    def __init__(self, matrix):
        self.m = len(matrix)
        self.n = len(matrix[0]) if self.m else 0
        self.diag, self.s, self.t = snf_with_transforms(matrix)
        # the transforms are mostly zero: keep each row's nonzero (k, v) pairs
        self._s_rows = _nonzero_pairs(self.s)
        self._t_rows = _nonzero_pairs(self.t)

    def solve(self, rhs):
        m, n = self.m, self.n
        c = [sum(v * rhs[k] for k, v in row) for row in self._s_rows]
        y = [0] * n
        for i in range(min(m, n)):
            if self.diag[i]:
                if c[i] % self.diag[i]:
                    raise InvalidInputError("no integer solution")
                y[i] = c[i] // self.diag[i]
            elif c[i]:
                raise InvalidInputError("no integer solution")
        for i in range(min(m, n), m):
            if c[i]:
                raise InvalidInputError("no integer solution")
        return [sum(v * y[k] for k, v in row) for row in self._t_rows]


class QuotientPresentation:
    """The quotient ker(A) / im(B) of integer lattices, with coordinates.

    ``a`` is a (r x dim) matrix (dense rows, possibly empty), ``b`` a
    (dim x m) matrix whose columns must lie in ker(a).  Exposes the free rank,
    the torsion coefficients, cocycle representatives of the free generators,
    and class coordinates of arbitrary kernel vectors.
    """

    def __init__(self, a, b, dim):
        self.dim = dim
        if a and any(any(row) for row in a):
            self.kernel = kernel_basis(a)
        else:
            self.kernel = [[int(i == j) for i in range(dim)] for j in range(dim)]
        k = len(self.kernel)
        # columns of the kernel-basis matrix are the basis vectors
        self._solver = ExactSolver([[self.kernel[j][i] for j in range(k)]
                                    for i in range(dim)])
        ncols_b = len(b[0]) if (b and b[0] is not None and len(b)) else 0
        if k == 0:
            self.diag, self._s = [], []
            self._s_solver = None
            self.free_positions = []
            self.torsion = ()
            self.free_rank = 0
            return
        if ncols_b:
            coords = [self._solver.solve([b[i][j] for i in range(dim)])
                      for j in range(ncols_b)]
            c = [[coords[j][i] for j in range(ncols_b)] for i in range(k)]
            self.diag, self._s, _ = snf_with_transforms(c)
        else:
            self.diag = []
            self._s = [[int(i == j) for j in range(k)] for i in range(k)]
        self._s_solver = ExactSolver(self._s)
        rank = sum(1 for d in self.diag if d)
        self.free_positions = list(range(rank, k))
        self.torsion = tuple(sorted(d for d in self.diag if d > 1))
        self.free_rank = len(self.free_positions)

    def class_coords(self, z):
        """(free, torsion) coordinates of a kernel vector's quotient class."""
        k = len(self.kernel)
        y = self._solver.solve(z)
        w = [sum(self._s[i][j] * y[j] for j in range(k)) for i in range(k)]
        free = [w[p] for p in self.free_positions]
        tors = [w[i] % d for i, d in enumerate(self.diag) if d > 1]
        return free, tors

    def free_representative(self, j):
        """A cocycle representing the j-th free generator."""
        k = len(self.kernel)
        pos = self.free_positions[j]
        x = self._s_solver.solve([int(i == pos) for i in range(k)])
        return [sum(self.kernel[i][c] * x[i] for i in range(k)) for c in range(self.dim)]


def ordinary_cochain_complex(x, max_dim):
    """Integer coboundaries on all non-degenerate cells (no group action).

    Returns the coboundaries and, per degree, the cells that index them: the
    position tuples of x in their stored order, that of their vertex tuples.
    """
    cells = [x.position_cells(d) for d in range(max_dim + 1)]
    index = [{c: i for i, c in enumerate(cs)} for cs in cells]
    deltas = [SparseMat(len(cells[d]), len(cells[d - 1]), incidence(cells[d], index[d - 1]))
              for d in range(1, max_dim + 1)]
    return deltas, cells


def ordinary_cohomology(x, d, max_dim=None):
    """Integer cohomology of the cell complex underlying a simplicial set."""
    if max_dim is None:
        max_dim = x.dimension()
    deltas, _ = ordinary_cochain_complex(x, max_dim)
    return cohomology(deltas, d)


def quotient_by_first_shift(L, n):
    """The quotient of gamma(L)^n by the first-coordinate half shift, as a
    simplicial set, with its projection.

    Identifying v with v + L/2 in the first factor halves that circle, so the
    quotient is gamma(L/2) x gamma(L)^(n-1), which needs L/2 divisible by 4;
    the projection reduces the first coordinate mod L/2.
    """
    half = L // 2
    quotient = gamma_product((half,) + (L,) * (n - 1))

    def project(v):
        return (v[0] % half,) + v[1:]

    return quotient, project


def quotient_complexes_reference(n, L):
    """``zz2._quotient_complexes`` on the simplicial quotient: the ordinary
    complexes of gamma(L)^n and of ``quotient_by_first_shift``, and the cone
    of the pullback along its projection, each X-cell looked up by its
    projected positions, as ``_Coboundaries`` (X, Q, Cone)."""
    x = gamma_power(L, n)
    quotient, project = quotient_by_first_shift(L, n)
    deltas_x, cells_x = ordinary_cochain_complex(x, n)
    deltas_q, cells_q = ordinary_cochain_complex(quotient, n)
    position = {v: k for k, v in enumerate(quotient.vertices)}
    pmap = [position[project(v)] for v in x.vertices]
    pullbacks = []
    for k in range(n + 1):
        qindex = {c: i for i, c in enumerate(cells_q[k])}
        images = [qindex[tuple(pmap[p] for p in cell)] for cell in cells_x[k]]
        assert sorted(images) == sorted(2 * list(range(len(qindex))))
        pullbacks.append(SparseMat(len(images), len(qindex), [{i: 1} for i in images]))
    cone = zz2._mapping_cone(deltas_q, pullbacks, deltas_x)
    return tuple(map(zz2._Coboundaries, (deltas_x, deltas_q, cone)))


def quotient_pstar_reference(n, L, d):
    """The quotient-projection record from the induced map on cohomology.

    Presents H^d of the torus X and of its quotient Q by the first-coordinate
    shift as lattice quotients, pulls back cocycles representing the free
    generators of H^d(Q), reads off their classes in H^d(X), and takes the
    Smith form of the resulting matrix.
    """
    x = gamma_power(L, n)
    quotient, project = quotient_by_first_shift(L, n)
    deltas_x, _ = ordinary_cochain_complex(x, n)
    deltas_q, _ = ordinary_cochain_complex(quotient, n)
    # both complexes index their cochains by the sorted vertex tuples
    cells_x, cells_q = sorted(labelled_cells(x, d)), sorted(labelled_cells(quotient, d))
    qindex = {c: i for i, c in enumerate(cells_q)}
    pullback = [qindex[tuple(project(v) for v in cell)] for cell in cells_x]

    # delta_(d-1) maps (d-1)-cochains to d-cochains, so its columns (indexed
    # by d-cells) generate the image lattice inside C^d
    a_x = to_dense(deltas_x[d]) if d < len(deltas_x) else []
    b_x = to_dense(deltas_x[d - 1])
    h_x = QuotientPresentation(a_x, b_x, len(cells_x))
    a_q = to_dense(deltas_q[d]) if d < len(deltas_q) else []
    b_q = to_dense(deltas_q[d - 1])
    h_q = QuotientPresentation(a_q, b_q, len(cells_q))
    assert not h_x.torsion and not h_q.torsion
    assert h_x.free_rank == h_q.free_rank == math.comb(n, d)

    induced = []
    for j in range(h_q.free_rank):
        z = h_q.free_representative(j)
        free, tors = h_x.class_coords([z[k] for k in pullback])
        assert not any(tors)
        induced.append(free)
    matrix = [[induced[j][i] for j in range(h_q.free_rank)]
              for i in range(h_x.free_rank)]
    snf = smith_normal_form(from_dense(matrix))
    injective = snf.rank == h_q.free_rank
    factors = sorted(snf.invariants)
    expected_factors = sorted([1] * math.comb(n - 1, d)
                              + [2] * math.comb(n - 1, d - 1))
    cokernel = CohomologyGroup(h_x.free_rank - snf.rank,
                               tuple(sorted(t for t in snf.invariants if t > 1)))
    bredon = bredon_torus(n, L, d)
    return {
        "n": n, "L": L, "d": d,
        "pstar_injective": injective,
        "pstar_invariant_factors": list(snf.invariants),
        "expected_invariant_factors": expected_factors,
        "cokernel": {"free_rank": cokernel.free_rank, "torsion": list(cokernel.torsion)},
        "bredon": {"free_rank": bredon.free_rank, "torsion": list(bredon.torsion)},
        "matches_expected": (injective and factors == expected_factors
                             and cokernel == expected_bredon(n, d)
                             and bredon == expected_bredon(n, d)),
    }


class HomStreamReference:
    """``graphs.enumerate_homs`` by AC-3 over value lists, testing each value
    against every neighbour value pair in ``cod.edges``, with vertices in
    index order and values ascending.

    Iterator over homomorphisms with a truncation flag; ``truncated``
    becomes True when a limit cut the enumeration short, and it is reliable
    once iteration has finished.
    """

    def __init__(self, dom, cod, limit=None):
        self.truncated = False
        self._gen = self._run(dom, cod, limit)

    def __iter__(self):
        return self._gen

    def _run(self, dom, cod, limit):
        n = dom.vertex_count
        emitted = 0
        all_values = sorted(cod.vertices())
        neighbours = [sorted(dom.neighbours(v)) for v in range(n)]

        def ac3(domains, queue):
            # arcs are directed pairs (x, y) with y adjacent to x
            while queue:
                x, y = queue.pop()
                dy = domains[y]
                keep = [a for a in domains[x]
                        if any((a, b) in cod.edges for b in dy)]
                if len(keep) != len(domains[x]):
                    domains[x] = keep
                    if not keep:
                        return False
                    for z in neighbours[x]:
                        if z != y:
                            queue.add((z, x))
            return True

        domains = [list(all_values) for _ in range(n)]
        for v in range(n):
            if dom.has_edge(v, v):
                domains[v] = [a for a in domains[v] if (a, a) in cod.edges]
        if not ac3(domains, {(x, y) for x in range(n) for y in neighbours[x]}):
            return

        # Depth-first search on an explicit stack of (vertex, domains, values
        # left) frames; AC-3 replaces domain lists and never edits one, so a
        # frame shares the lists it did not prune with the frame below.
        assignment = [None] * n
        stack = [(0, domains, iter(domains[0]))]
        while stack:
            v, domains, values = stack[-1]
            for a in values:
                nxt = list(domains)
                nxt[v] = [a]
                if ac3(nxt, {(w, v) for w in neighbours[v] if w > v}):
                    assignment[v] = a
                    break
            else:
                stack.pop()
                continue
            if v + 1 < n:
                stack.append((v + 1, nxt, iter(nxt[v + 1])))
                continue
            if limit is not None and emitted >= limit:
                self.truncated = True
                return
            emitted += 1
            yield GraphHom(dom, cod, tuple(assignment), check=False)


def fail_first_reference(dom, cod, rng, budget):
    """``graphs._search`` written with closures: the value arrays of the
    homomorphisms dom -> cod by forward checking on value masks, with the
    undone narrowings on a trail.

    Without an rng, vertices go in index order and values ascend.  With
    one, each step takes a vertex of smallest domain from a bucket queue,
    ``rng.randrange`` picking within the bucket, and tries its values in
    the order ``rng.shuffle`` leaves them.  With a ``budget``, the search
    ends once it would push more than that many frames past the first.
    """
    fail_first = rng is not None
    k = cod.vertex_count
    near = [sum(1 << a for a in cod.neighbours(b)) for b in range(k)]
    looped = sum(1 << a for a in range(k) if cod.has_edge(a, a))
    masks = [looped if dom.has_edge(v, v) else (1 << k) - 1 for v in dom.vertices()]
    if not all(masks):  # a looped vertex, and no looped value
        return
    # in index order the later neighbours; fail-first, all of them
    checked = [sorted(w for w in dom.neighbours(v) if w > v or (fail_first and w != v))
               for v in dom.vertices()]
    trail = []  # (vertex, its mask before a value narrowed it)
    stack = []  # (vertex, its domain, values left, trail length) per frame
    queue = None
    if fail_first:
        queue = [[] for _ in range(k + 1)]
        at = [0] * len(masks)

        def enqueue(v, d):
            bucket = queue[d.bit_count()]
            at[v] = len(bucket)
            bucket.append(v)

        def dequeue(v, d):
            bucket = queue[d.bit_count()]
            last = bucket.pop()
            if last != v:
                bucket[at[v]] = last
                at[last] = at[v]

        for v, d in enumerate(masks):
            enqueue(v, d)

    def push():
        if queue is None:
            v = len(stack)
        else:
            for bucket in queue:
                if bucket:
                    break
            v = bucket[rng.randrange(len(bucket))]
            dequeue(v, masks[v])
        d = masks[v]
        values = [a for a in range(k) if d >> a & 1]
        if queue is not None:
            rng.shuffle(values)
        stack.append((v, d, iter(values), len(trail)))

    def unwind(mark):
        while len(trail) > mark:
            w, m = trail.pop()
            if queue is not None:
                dequeue(w, masks[w])
                enqueue(w, m)
            masks[w] = m

    assignment = [None] * len(masks)
    push()
    pushed = 0
    while stack:
        v, d, values, mark = stack[-1]
        for a in values:
            unwind(mark)
            na = near[a]
            for w in checked[v]:
                m = masks[w]
                narrowed = m & na
                if narrowed != m:
                    if not narrowed:
                        break
                    trail.append((w, m))
                    if queue is not None:
                        dequeue(w, m)
                        enqueue(w, narrowed)
                    masks[w] = narrowed
            else:
                masks[v] = 1 << a
                assignment[v] = a
                break
        else:
            unwind(mark)
            masks[v] = d
            if queue is not None:
                enqueue(v, d)
            stack.pop()
            continue
        if len(stack) == len(masks):
            yield tuple(assignment)
        elif pushed == budget:
            return
        else:
            pushed += 1
            push()


def sample_maximal_chain_reference(L, n, rng):
    """A uniformly random maximal chain (top simplex) of gamma(L)^n, as a
    list of vertex tuples."""
    base = tuple(rng.randrange(0, L, 2) for _ in range(n))
    order = list(range(n))
    rng.shuffle(order)
    chain = [base]
    cur = list(base)
    for j in order:
        cur[j] = (cur[j] + rng.choice((1, -1))) % L
        chain.append(tuple(cur))
    return chain


def chain_alternations(colours, chain):
    """Colour changes between consecutive vertices of a chain."""
    labels = [colours[v] for v in chain]
    return sum(1 for a, b in zip(labels, labels[1:]) if a != b)


def arity_experiment_reference(ell, n_max, seed=0, sample_size=40, chain_samples=4000,
                     enumerate_cutoff=3000, swap_stat_maps=3):
    """The arity survey on colour dicts, enumerating every arity to the cutoff.

    Survey polymorphism degree weights and chain alternations up to n_max.
    Enumerates polymorphisms exhaustively while the count stays below the
    cutoff and falls back to seeded random sampling beyond; for each map it
    records the weight of its degree vector, counts colour alternations along
    sampled maximal chains of the torus (the sphere target caps these at two),
    and tabulates swap fractions per coordinate and height for a few maps.
    """
    if ell < 3 or ell % 2 == 0:
        raise InvalidParameterError("need an odd cycle length >= 3")
    rng = random.Random(seed)
    pipeline = CyclePipeline(ell)
    k4 = complete_graph(4)
    report = {
        "tool": "equihom",
        "version": __version__,
        "seed": seed,
        "t_fingerprint": pipeline.t.fingerprint(),
        "parameters": {"ell": ell, "n_max": n_max, "sample_size": sample_size,
                       "chain_samples": chain_samples,
                       "enumerate_cutoff": enumerate_cutoff},
        "per_n": [],
        "truncated": False,
    }
    L = pipeline.period
    for n in range(1, n_max + 1):
        dom = power(pipeline.base, n)
        stream = enumerate_homs(dom, k4, limit=enumerate_cutoff)
        polys = list(stream)
        mode = "exhaustive"
        if stream.truncated:
            mode = "sampled"
            report["truncated"] = True
            polys = sample_homs(dom, k4, sample_size, rng)
        inspected = polys if mode == "exhaustive" else polys[:sample_size]
        weights = {}
        alpha_by_values = {}
        colour_cache = []
        for f in inspected:
            bits = pipeline.mu_colours(f)
            alpha = deg_vector(bits, L=L, n=n)
            colours = dict(zip(product(range(L), repeat=n), bits))
            weights[alpha.weight] = weights.get(alpha.weight, 0) + 1
            alpha_by_values[f.values] = alpha.bits
            colour_cache.append((f, colours))
        max_alts = 0
        violations = 0
        chains_done = 0
        while chains_done < chain_samples and colour_cache:
            f, colours = colour_cache[chains_done % len(colour_cache)]
            chain = sample_maximal_chain_reference(L, n, rng)
            alts = chain_alternations(colours, chain)
            max_alts = max(max_alts, alts)
            if alts > 2:
                violations += 1
            chains_done += 1
        swap_stats = {}
        for f, colours in colour_cache[:swap_stat_maps]:
            alpha = alpha_by_values[f.values]
            for i in range(1, n + 1):
                if alpha[i - 1] != 1:
                    continue
                for h in range(0, (n - 1) // 2 + 1):
                    frac = Fraction(*swap_fraction_reference(colours, L, n, i, h))
                    key = f"i={i},h={h}"
                    entry = swap_stats.setdefault(key, [])
                    entry.append(str(frac))
        report["per_n"].append({
            "n": n,
            "mode": mode,
            "maps_inspected": len(inspected),
            "weight_histogram": {str(k): v for k, v in sorted(weights.items())},
            "max_weight": max(weights) if weights else 0,
            "chains_sampled": chains_done,
            "max_chain_alternations": max_alts,
            "alternation_violations": violations,
            "swap_fractions": swap_stats,
        })
    return report
