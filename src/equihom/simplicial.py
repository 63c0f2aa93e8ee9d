"""Relational simplicial sets, tori of circles on row-major positions, and
maps into the two-vertex sphere sigma(2).

Every simplicial set here is the order complex of a finite strict order,
its d-simplices the strict chains of d + 1 elements.  ``Torus`` reads the
order of gamma(L_1) x ... x gamma(L_k) by shifting sets of vertices, ints
with bit p for position p, and its involution as a half turn of each
coordinate, one mask and one shift.  A map into sigma(2), whose simplices
change colour at most twice, is its blue bits in position order: a bytes
object or a list of ints, 1 for blue and 0 for yellow.
"""

from functools import cached_property, lru_cache, partial, reduce
from itertools import product, repeat
from math import prod
from operator import eq, itemgetter, or_

from .errors import (AlternatingSimplexError, CapacityExceededError,
                     InvalidParameterError, NotEquivariantError)
from .snf import gf2_rank

# most vertices a torus may have
CELL_LIMIT = 1 << 22

# byte 0 or 1 -> the digit "0" or "1"
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def is_degenerate(tup):
    """True when the tuple repeats a vertex consecutively."""
    return any(a == b for a, b in zip(tup, tup[1:]))


def faces(cell):
    """The codimension-1 faces of a cell as (sign, face) pairs.

    Face i drops vertex i, comes in ascending i and carries the sign (-1)^i.
    """
    for i in range(len(cell)):
        yield -1 if i % 2 else 1, cell[:i] + cell[i + 1:]


def least_alternating_chain(bits, up, down):
    """The least chain v_0 < v_1 < v_2 < v_3 whose colours alternate, as bit
    indices, or None; ``bits[k]`` is 1 where vertex k is blue, and ``up``
    and ``down`` are the strict up- and down-closures of a set of bits.

    S_0 is every vertex and S_k the vertices of one colour below S_(k-1) of
    the other, which start a chain of k changes.  Each vertex of the chain
    is the lowest of the other colour above the last in the S still due.
    """
    blue = int(bytes(bits).translate(_DIGITS)[::-1], 2)
    yellow = (1 << len(bits)) - 1 ^ blue
    starts = [blue | yellow]
    for _ in range(3):
        last = starts[-1]
        starts.append(down(last & blue) & yellow | down(last & yellow) & blue)
    chain, options = [], starts[3]
    for k in (2, 1, 0, None):
        if not options:
            return None
        v = (options & -options).bit_length() - 1
        chain.append(v)
        if k is not None:
            options = up(1 << v) & starts[k] & (yellow if blue >> v & 1 else blue)
    return chain


def _closure(masks, bits):
    """The union of ``masks[r]`` over the set bits r of ``bits``."""
    return reduce(or_, [masks[r] for r in range(bits.bit_length()) if bits >> r & 1], 0)


class SimplicialSet:
    """The order complex of a strict order, with an optional vertex involution.

    Each dimension is stored once, as a tuple of tuples of vertex positions,
    the indices into ``vertices``, sorted in the order of their vertex tuples
    and without repeats; every consumer reads the cells in that one order.
    ``labels`` turns a cell into its vertex tuple.  The involution is stored
    as ``antipode``, the position of each vertex's mate, and ``size`` is the
    vertex count.  The labels of one set must be mutually comparable.
    """

    def __init__(self, vertices, points, cap, antipode, ups):
        """The order complex of a strict order on the tuple ``vertices``:
        ``points`` are the 0-cells and ``ups[p]`` the positions above vertex
        p, both in label order, so the (d-1)-cells extended through the
        up-list of their last vertex, the d-cells, come out sorted.
        ``antipode`` (or None) is checked first, then each dimension."""
        self.vertices = vertices
        self.size = len(vertices)
        self.cap = cap
        self.antipode = antipode
        self.ups = ups
        self._check_antipode()
        self._positions = cells = {0: points}
        for d in range(1, cap + 1):
            here = tuple([chain + (w,) for chain in cells[d - 1] for w in ups[chain[-1]]])
            self._check_cells(d, here)
            self._check_mates(d, here)
            cells[d] = here

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

    def alternating_chain(self, bits):
        """The least 3-cell, in the order of vertex tuples, on which the blue
        ``bits`` (in position order) alternate, as positions, or None.
        Bit r stands for the vertex of rank r in label order, and a closure
        ORs the kept up-lists, or the down-lists read off them, over its bits.
        """
        if not self.position_cells(3):  # as for Hom(K_2, K_4)
            return None
        order = [p for (p,) in self._positions[0]]
        rank = {p: r for r, p in enumerate(order)}
        ups, downs = [0] * len(order), [0] * len(order)
        for r, p in enumerate(order):
            for q in self.ups[p]:
                ups[r] |= 1 << rank[q]
                downs[rank[q]] |= 1 << r
        chain = least_alternating_chain([bits[p] for p in order],
                                        partial(_closure, ups), partial(_closure, downs))
        return chain and [order[r] for r in chain]

    def mate(self, bits):
        """The mates of the vertices of a set of positions, bit p for position p."""
        return _closure([1 << j for j in self.antipode], bits)

    def labels(self, cell):
        """The vertex tuple of a position tuple."""
        return tuple(map(self.vertices.__getitem__, cell))

    def position_cells(self, d):
        """Non-degenerate d-simplices as position tuples, in the sorted order of
        their vertex tuples (empty beyond the stored range)."""
        return self._positions.get(d, ())

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
    out sorted.
    """
    vertices = tuple(elements)
    position = _vertex_positions(vertices, cap)
    by_label = sorted(range(len(vertices)), key=vertices.__getitem__)
    labelled = [(q, masks[q]) for q in by_label]
    ups = [[q for q, up in labelled if a & up == a != up] for a in masks]
    return SimplicialSet(vertices, tuple((p,) for p in by_label), cap,
                         _antipode(involution, position), ups)


def _check_vertex_count(sides, name, what="vertices", limit=CELL_LIMIT):
    """Refuse a torus with more vertices (or other ``what``) than ``limit``,
    reading its sides only until their running product passes the limit."""
    count = 1
    for L in sides:
        count *= L
        if count > limit:
            raise CapacityExceededError(
                f"torus {name} has more {what} than the cell limit {limit}")


class Torus:
    """gamma(L_1) x ... x gamma(L_k) with the diagonal involution, on the
    row-major positions of its vertices, which run in the order of their
    tuples.  A vertex lies below those that move a nonempty set of its even
    coordinates x to x +- 1 mod L; the mate of a vertex (``mate``) adds L/2
    to every coordinate.  The sides are checked when it is made.
    """

    def __init__(self, sides):
        sides = tuple(sides)
        if not sides:
            raise InvalidParameterError("a torus needs at least one side")
        for L in sides:
            _check_side(L)
        _check_vertex_count(sides, f"of {len(sides)} circles")
        self.sides, self.size = sides, prod(sides)
        self.strides = tuple(prod(sides[i + 1:]) for i in range(len(sides)))

    def labels(self, cell):
        return tuple(tuple(p // s % L for L, s in zip(self.sides, self.strides))
                     for p in cell)

    @cached_property
    def _moves(self):
        """Per coordinate: the stride s, the shift (L - 1) * s from 0 to L - 1,
        the masks of the positions where the coordinate is even, 0, odd and
        L - 1, each one block of s ones repeated, and the half turn h = L/2 * s
        with the mask of the positions where the coordinate is below L/2."""
        moves = []
        for L, s in zip(self.sides, self.strides):
            evens = int(("0" * s + "1" * s) * (self.size // (2 * s)), 2)
            zeros = int(("0" * (L - 1) * s + "1" * s) * (self.size // (L * s)), 2)
            h = L // 2 * s
            lows = int(("0" * h + "1" * h) * (self.size // (2 * h)), 2)
            moves.append((s, (L - 1) * s, evens, zeros, evens << s, zeros << (L - 1) * s,
                          h, lows))
        return moves

    def mate(self, bits):
        """The mates of ``bits``: each coordinate turns half way round in turn."""
        for *_, h, lows in self._moves:
            bits = (bits & lows) << h | bits >> h & lows
        return bits

    def up(self, bits):
        """The vertices strictly above those of ``bits``: each coordinate in
        turn moves from an even x to x + 1, or to x - 1, which wraps at 0."""
        moved = 0
        for s, wrap, evens, zeros, *_ in self._moves:
            even, zero = (bits | moved) & evens, (bits | moved) & zeros
            moved |= even << s | (even ^ zero) >> s | zero << wrap
        return moved

    def down(self, bits):
        """As ``up``, below: from an odd x to x - 1, or to x + 1, which wraps at L - 1."""
        moved = 0
        for s, wrap, _, _, odds, tops, *_ in self._moves:
            odd, top = (bits | moved) & odds, (bits | moved) & tops
            moved |= odd >> s | (odd ^ top) << s | top >> wrap
        return moved

    def alternating_chain(self, bits):
        """As ``SimplicialSet.alternating_chain``, on the positions."""
        return least_alternating_chain(bits, self.up, self.down)


@lru_cache(maxsize=16)
def torus(L, n):
    """The torus gamma(L)^n, cached.  Its vertex count L^n is checked before
    the n sides are listed, so a large n is refused at once."""
    _check_side(L)  # a side of at least 4 passes the limit within a dozen factors
    _check_vertex_count(repeat(L, n), f"gamma({L})^{n}")
    return Torus((L,) * n)


def check_length(x, bits):
    """A colouring of x, a ``Torus`` or an order complex, holds one bit per
    vertex."""
    if len(bits) != x.size:
        raise InvalidParameterError("map domain is not this torus")


def check_colours(x, bits):
    """Every vertex of x must carry yellow (0) or blue (1); the first that
    does not is named by its label."""
    if not set(bits) <= {0, 1}:
        k = next(k for k, b in enumerate(bits) if b not in (0, 1))
        raise InvalidParameterError(f"vertex {x.labels((k,))[0]} lacks a yellow/blue colour")


def check_alternation(x, bits):
    """No 3-cell of x may have a 3-alternating image (blue bits in position
    order); the witness is the least such cell in vertex-tuple order."""
    chain = x.alternating_chain(bits)
    if chain:
        simplex = x.labels(chain)
        raise AlternatingSimplexError(
            f"3-simplex {simplex} has a 3-alternating image", witness=simplex)


def check_antipodes(x, bits):
    """Antipodal vertices of x must carry different bits, 0 or 1 in position
    order; the witness is the lowest position whose bit equals its mate's."""
    blue = int(bytes(bits).translate(_DIGITS)[::-1], 2)
    same = ~(blue ^ x.mate(blue)) & (1 << x.size) - 1
    if same:
        v = x.labels(((same & -same).bit_length() - 1,))[0]
        raise NotEquivariantError(f"vertex {v} and its antipode share a colour", witness=v)


def map_from_colouring(x, bits):
    """Check that the blue bits of x's vertices in position order, x a
    ``Torus`` or an order complex, are an equivariant simplicial map into
    sigma(2); raise on the first check that fails.

    Valid iff no non-degenerate 3-simplex of x maps to a 3-alternating tuple
    and antipodal vertices receive opposite colours.
    """
    if isinstance(x, SimplicialSet) and x.cap < 3:
        raise InvalidParameterError("need the 3-simplices: construct x with cap >= 3")
    check_length(x, bits)
    check_colours(x, bits)
    check_alternation(x, bits)
    if isinstance(x, SimplicialSet) and x.antipode is None:
        raise InvalidParameterError("domain has no involution")
    check_antipodes(x, bits)


def equivariant_colourings(x):
    """Every colouring of x, as blue bits in position order, that gives
    antipodes opposite colours.

    One vertex per involution orbit, the first in position order, is the
    free choice; the colourings run through the choices in binary order,
    blue for a one bit.
    """
    if isinstance(x, SimplicialSet) and x.antipode is None:
        raise InvalidParameterError("an involution is required")
    pairs = [(k, j) for k in range(x.size) for j in [x.mate(1 << k).bit_length() - 1] if k <= j]
    for choice in product((0, 1), repeat=len(pairs)):
        bits = bytearray(x.size)
        for (k, j), b in zip(pairs, choice):
            bits[k], bits[j] = b, 1 - b
        yield bytes(bits)


def mod2_homology_ranks(x, top=None):
    """Ranks of the mod-2 cellular homology of an order complex.

    Row j of the d-th boundary is the bitmask of the faces of d-cell j, by
    their index among the (d-1)-cells: a face of a strict chain is a strict
    chain, so each is stored, and the faces of one cell are distinct.
    """
    if top is None:
        top = x.dimension()
    cells = [x.position_cells(d) for d in range(top + 2)]
    ranks = [0]
    for below, here in zip(cells, cells[1:]):
        index = {c: i for i, c in enumerate(below)}
        ranks.append(gf2_rank([sum(1 << index[face] for _, face in faces(cell))
                               for cell in here]))
    return tuple(len(cells[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1))
