"""Relational simplicial sets: triangulated circles, their tori, and the
homomorphism complexes.

Every simplicial set here is the order complex of a finite strict order:
its non-degenerate d-simplices are the strict chains of d + 1 elements.
Each dimension up to a cap is stored once, as tuples of vertex positions,
the indices into its vertex list, in the sorted order of their vertex
tuples.  One chain builder makes every dimension: its chains come out
already in that order, and each dimension is built and checked on its
first read.  A degenerate simplex is a chain with a consecutive repeat;
collapsing the repeats leaves a stored chain.

A map into the two-vertex sphere sigma(2), whose simplices change colour
at most twice, is a yellow/blue colour per vertex: ``map_from_colouring``
checks that such a colouring is an equivariant simplicial map.
"""

from functools import cached_property, lru_cache
from itertools import product, repeat
from math import comb, prod
from operator import eq, itemgetter

from .errors import (AlternatingSimplexError, CapacityExceededError,
                     InvalidParameterError, NotEquivariantError)
from .snf import gf2_rank

YELLOW = "yellow"
BLUE = "blue"

# most cells a torus may have; checked against the closed-form count
CELL_LIMIT = 1 << 22


def is_degenerate(tup):
    """True when the tuple repeats a vertex consecutively."""
    return any(a == b for a, b in zip(tup, tup[1:]))


def faces(cell):
    """The codimension-1 faces of a cell as (sign, face) pairs.

    Face i drops vertex i, comes in ascending i and carries the sign (-1)^i.
    """
    for i in range(len(cell)):
        yield -1 if i % 2 else 1, cell[:i] + cell[i + 1:]


class SimplicialSet:
    """The order complex of a strict order, with an optional vertex involution.

    Each dimension is stored once, as a tuple of tuples of vertex positions,
    the indices into ``vertices``, sorted in the order of their vertex tuples
    and without repeats; every consumer reads the cells in that one order.
    ``labels`` turns a cell into its vertex tuple.  The involution is stored
    as ``antipode``, the position of each vertex's mate.  The labels of one
    set must be mutually comparable.
    """

    def __init__(self, vertices, points, cap, antipode, ups):
        """The order complex of a strict order on the tuple ``vertices``:
        ``points`` are the 0-cells and ``ups[p]`` the positions above vertex
        p, both in the order of the labels, so the d-cells, the (d-1)-cells
        extended through the up-list of their last vertex, come out sorted.
        ``antipode`` (or None) is checked on the vertices at once; dimension
        d is built, checked and stored on its first read, after the
        dimensions below."""
        self.vertices = vertices
        self.cap = cap
        self._positions = {0: points}
        self.antipode = antipode
        self._ups = ups
        self._check_antipode()

    def _check_antipode(self):
        antipode, count = self.antipode, len(self.vertices)
        if antipode is None:
            return
        if sorted(antipode) != list(range(count)):
            raise InvalidParameterError("involution is not a vertex permutation")
        if list(map(antipode.__getitem__, antipode)) != list(range(count)):
            raise InvalidParameterError("involution is not self-inverse")

    def _check_cells(self, d, here):
        """Check the d-cells ``here`` against the stored (d-1)-cells.

        The k-th entries of the cells form column k: a cell is degenerate
        where two neighbouring columns agree, and face i zips the columns
        but the i-th, looked up in a set of the (d-1)-cells.  Only a failing
        test goes back over the cells, in their stored order, to name the
        culprit.
        """
        label = self.labels
        columns = [tuple(map(itemgetter(k), here)) for k in range(d + 1)]
        for a, b in zip(columns, columns[1:]):
            if any(map(eq, a, b)):
                bad = next(s for s in here if is_degenerate(s))
                raise InvalidParameterError(f"stored simplex is degenerate: {label(bad)}")
        below = set(self._positions[d - 1])
        if all(all(map(below.__contains__, zip(*columns[:i], *columns[i + 1:])))
               for i in range(d + 1)):
            return
        # a face of a strict chain is never degenerate, so it is stored or missing
        s, face = next((s, face) for s in here for _, face in faces(s) if face not in below)
        raise InvalidParameterError(
            f"closure violated: face {label(face)} of {label(s)} missing")

    def _check_mates(self, d, here):
        """Check that the mate of each d-cell of ``here`` is in ``here``."""
        if self.antipode is None:
            return
        mate = self.antipode.__getitem__
        stored = set(here)
        mates = zip(*(map(mate, map(itemgetter(k), here)) for k in range(d + 1)))
        if not all(map(stored.__contains__, mates)):
            bad = next(s for s in here if tuple(map(mate, s)) not in stored)
            raise InvalidParameterError(
                f"involution does not preserve simplices: {self.labels(bad)}")

    def _grow(self, d):
        """Build dimensions up to d from the up-lists, each checked before it
        is stored.  The up-lists are dropped once the cap's cells are made,
        before their check; if it fails, they are read back off the 1-cells,
        so the next read fails again."""
        cells = self._positions
        for e in range(len(cells), d + 1):
            ups = self._ups
            here = tuple([chain + (w,) for chain in cells[e - 1] for w in ups[chain[-1]]])
            if e == self.cap:
                self._ups = ups = None
            try:
                self._check_cells(e, here)
                self._check_mates(e, here)
            except InvalidParameterError:
                if self._ups is None:
                    self._ups = [[] for _ in self.vertices]
                    for p, q in cells.get(1, here):
                        self._ups[p].append(q)
                raise
            cells[e] = here
        return cells[d]

    @cached_property
    def position(self):
        """Vertex -> its index in ``vertices``."""
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def involution(self):
        """Vertex -> its mate, or None without an involution."""
        if self.antipode is None:
            return None
        vertices = self.vertices
        return {v: vertices[j] for v, j in zip(vertices, self.antipode)}

    @cached_property
    def cell3_columns(self):
        """The 3-cells as four columns of vertex positions, in ``position_cells(3)`` order."""
        cells = self.position_cells(3)
        return tuple(tuple(map(itemgetter(k), cells)) for k in range(4))

    def labels(self, cell):
        """The vertex tuple of a position tuple."""
        return tuple(map(self.vertices.__getitem__, cell))

    def position_cells(self, d):
        """Non-degenerate d-simplices as position tuples, in the sorted order of
        their vertex tuples (empty beyond the stored range)."""
        cells = self._positions.get(d)
        if cells is None:
            if not 0 < d <= self.cap:
                return ()
            cells = self._grow(d)
        return cells

    def n_cells(self, d):
        return len(self.position_cells(d))

    def dimension(self):
        return max((d for d in range(self.cap + 1) if self.position_cells(d)), default=0)

    def euler_characteristic(self):
        return sum((-1) ** d * self.n_cells(d) for d in range(self.cap + 1))

    def has_free_involution(self):
        # freeness on vertices implies freeness on all cells
        return self.antipode is not None and not any(
            map(eq, self.antipode, range(len(self.vertices))))

    def to_json(self):
        obj = {"vertices": [_label_to_json(v) for v in self.vertices],
               "cap": self.cap,
               "simplices": {str(d): sorted(map(list, self.position_cells(d)))
                             for d in range(1, self.cap + 1)}}
        if self.antipode is not None:
            obj["involution"] = list(self.antipode)
        return obj


def _vertex_positions(vertices, cap):
    """Vertex -> its index in the tuple ``vertices``, for distinct labels and
    a dimension cap of at least 1."""
    position = {v: k for k, v in enumerate(vertices)}
    if len(position) != len(vertices):
        raise InvalidParameterError("duplicate vertex labels")
    if cap < 1:
        raise InvalidParameterError("dimension cap must be >= 1")
    return position


def _antipode(involution, position):
    """The mate positions of a vertex -> vertex involution (None passes through).

    A mate outside the vertices becomes -1, which the permutation check rejects.
    """
    if involution is None:
        return None
    involution = dict(involution)
    if involution.keys() != position.keys():
        raise InvalidParameterError("involution is not a vertex permutation")
    return [position.get(involution[v], -1) for v in position]


def _label_to_json(v):
    if isinstance(v, tuple):
        return [_label_to_json(x) for x in v]
    return v


def _check_side(L):
    if L < 4 or L % 4:
        raise InvalidParameterError("gamma(L) needs L >= 4 divisible by 4")


def gamma(L):
    """Order complex of the alternating cyclic poset on Z_L, with cap 3.

    a < b iff a is even and b = a +- 1 mod L; the involution is the shift by
    L/2.  A triangulated circle with L vertices and L edges.
    """
    _check_side(L)
    # an odd vertex's mask holds its two even neighbours, an even one's itself
    masks = [1 << v | (v % 2 and 1 << v - 1 | 1 << (v + 1) % L) for v in range(L)]
    return order_complex(range(L), masks, 3, {v: (v + L // 2) % L for v in range(L)})


def order_complex(elements, masks, cap, involution=None):
    """Order complex of a finite strict order: simplices are strict chains.

    ``masks[i]`` is an integer bitmask for ``elements[i]``, and one element
    lies below another when its mask is a proper submask of the other's
    (any finite order is the inclusion of its down-sets).  Positions follow
    the order of ``elements``; the 0-cells and each vertex's up-list follow
    the order of the labels, so chains extended through the up-lists come
    out sorted.  Each dimension is built and checked on its first read, as
    for a torus.
    """
    vertices = tuple(elements)
    position = _vertex_positions(vertices, cap)
    by_label = sorted(range(len(vertices)), key=vertices.__getitem__)
    labelled = [(q, masks[q]) for q in by_label]
    ups = [[q for q, up in labelled if a & up == a != up] for a in masks]
    return SimplicialSet(vertices, tuple((p,) for p in by_label), cap,
                         _antipode(involution, position), ups)


def product_cell_count(sides, d):
    """Number of non-degenerate d-cells of gamma(L_1) x ... x gamma(L_k).

    A d-chain of the product poset moves j of the k coordinates, each once,
    from an even value to one of its two odd neighbours, and the moves fill
    the d steps: d! S(j, d) surjections, counted by inclusion-exclusion.
    Every coordinate has L_i starting choices whether it moves or not.
    """
    k = len(sides)
    return prod(sides) * sum(
        comb(k, j) * sum((-1) ** i * comb(d, i) * (d - i) ** j for i in range(d + 1))
        for j in range(d, k + 1))


def _check_vertex_count(sides, name):
    """Refuse a torus with more vertices than CELL_LIMIT, reading its sides
    only until their running product passes the limit."""
    vertices = 1
    for L in sides:
        vertices *= L
        if vertices > CELL_LIMIT:
            raise CapacityExceededError(
                f"torus {name} has more vertices than the cell limit {CELL_LIMIT}")


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
    """Cached torus gamma(L_1) x ... x gamma(L_k) with the diagonal involution.

    Built as the order complex of the product of the alternating cyclic
    posets: the cells are the strict chains, and a vertex lies below exactly
    the tuples obtained by moving a nonempty subset of its even coordinates to
    a neighbour.  The cap is max(3, k), and every spelling of one torus
    shares one cache entry.  The cell limit and the involution on vertices
    are checked at once; each dimension is built and checked on first read.
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


@lru_cache(maxsize=16)
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
    strides = [prod(sides[i + 1:]) for i in range(len(sides))]
    positions = list(range(len(vertices)))
    ups = []
    for p, v in enumerate(vertices):
        options = [(x * s,) if x % 2 else (x * s, (x + 1) % L * s, (x - 1) % L * s)
                   for x, L, s in zip(v, sides, strides)]
        ups.append(sorted([positions[q] for q in map(sum, product(*options)) if q != p]))
    antipode = [sum((x + L // 2) % L * s for x, L, s in zip(v, sides, strides))
                for v in vertices]
    return vertices, tuple((p,) for p in positions), antipode, ups


# the one torus cache, reachable under the public name
gamma_product.cache_info = _gamma_product.cache_info
gamma_product.cache_clear = _gamma_product.cache_clear


def gamma_power(L, n):
    """The torus gamma(L)^n with the diagonal involution.

    Its vertex count L^n is checked before the n sides are listed, so a large
    n is refused at once.
    """
    _check_side(L)  # a side of at least 4 passes the limit within a dozen factors
    _check_vertex_count(repeat(L, n), f"gamma({L})^{n}")
    return gamma_product((L,) * n)


def check_colours(x, values):
    """Every vertex of x must carry yellow or blue (values in vertex order)."""
    for v, c in zip(x.vertices, values):
        if c not in (YELLOW, BLUE):
            raise InvalidParameterError(f"vertex {v} lacks a yellow/blue colour")


def check_alternation(x, values):
    """No 3-cell of x may have a 3-alternating image (values in vertex order).

    The witness is the least 3-alternating 3-cell in the order of vertex tuples.
    """
    for a, b, c, d in zip(*x.cell3_columns):
        if values[a] != values[b] != values[c] != values[d]:
            simplex = tuple(x.vertices[k] for k in (a, b, c, d))
            raise AlternatingSimplexError(
                f"3-simplex {simplex} has a 3-alternating image", witness=simplex)


def check_antipodes(x, values):
    """Antipodal vertices of x must carry different values (in vertex order)."""
    for k, j in enumerate(x.antipode):
        if values[k] == values[j]:
            v = x.vertices[k]
            raise NotEquivariantError(
                f"vertex {v} and its antipode share a colour", witness=v)


def colour_values(x, colouring):
    """The colours of x's vertices in vertex order, the form the checks read.

    ``colouring`` is a vertex -> colour dict; one with a key that is not a
    vertex of x is refused, and a vertex it misses reads None, which
    ``check_colours`` rejects.
    """
    if not colouring.keys() <= x.position.keys():
        raise InvalidParameterError("map domain is not this torus")
    return list(map(colouring.get, x.vertices))


def map_from_colouring(x, colouring):
    """Check that a yellow/blue vertex colouring of x is an equivariant
    simplicial map into sigma(2); raise on the first check that fails.

    Valid iff no non-degenerate 3-simplex of x maps to a 3-alternating tuple;
    degenerate ones never do, and faces of stored simplices are stored, so
    scanning the stored 3-simplices suffices.  Antipodal vertices must
    receive opposite colours, so x needs an involution.
    """
    if x.cap < 3:
        raise InvalidParameterError("need the 3-simplices: construct x with cap >= 3")
    values = colour_values(x, colouring)
    check_colours(x, values)
    check_alternation(x, values)
    if x.antipode is None:
        raise InvalidParameterError("domain has no involution")
    check_antipodes(x, values)


def equivariant_colourings(x):
    """Every yellow/blue vertex colouring of x giving antipodes opposite colours.

    One vertex per involution orbit, in vertex order, is the free choice; the
    colourings run through the choices in binary order, blue for a one bit.
    """
    nu = x.involution
    if nu is None:
        raise InvalidParameterError("an involution is required")
    reps, seen = [], set()
    for v in x.vertices:
        if v not in seen:
            seen.add(v)
            seen.add(nu[v])
            reps.append(v)
    for bits in product((0, 1), repeat=len(reps)):
        col = {}
        for rep, b in zip(reps, bits):
            col[rep] = BLUE if b else YELLOW
            col[nu[rep]] = YELLOW if b else BLUE
        yield col


def mod2_homology_ranks(x, top=None):
    """Ranks of the mod-2 cellular homology computed from non-degenerate cells.

    Row j of the d-th boundary is the bitmask of the distinct non-degenerate
    faces of d-cell j, by their index among the (d-1)-cells.
    """
    if top is None:
        top = x.dimension()
    cells = [x.position_cells(d) for d in range(top + 2)]
    index = [{c: i for i, c in enumerate(cs)} for cs in cells]
    ranks = []
    bnd_rank = [0] * (top + 3)
    for d in range(1, top + 2):
        below = index[d - 1]
        rows = []
        for cell in cells[d]:
            found = {below[face] for _, face in faces(cell) if not is_degenerate(face)}
            rows.append(sum(1 << k for k in found))
        bnd_rank[d] = gf2_rank(rows)
    for d in range(top + 1):
        ranks.append(len(cells[d]) - bnd_rank[d] - bnd_rank[d + 1])
    return tuple(ranks)
