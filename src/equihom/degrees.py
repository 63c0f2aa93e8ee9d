"""Mod-2 degree invariants of equivariant torus maps, and the minion of odd vectors.

The degree of a map from a 2-torus counts, mod 2, the horizontal edges whose
image is the non-degenerate edge [blue, yellow] plus the band triangles whose
image is [blue, yellow, blue].  Degrees in each coordinate direction of an
n-torus come from 2-variable minors, assemble into a vector of odd weight, and
composing with the polymorphism pipeline realizes the minion homomorphism into
odd Z_2-vectors.
"""

from functools import lru_cache, reduce
from operator import itemgetter, xor

from .errors import InvalidParameterError, InvariantViolationError
from .graphs import MinorSpec
from .homcomplexes import CyclePipeline, side_keys
from .simplicial import Torus, check_antipodes, check_colours, check_length, torus


class TorusComplex:
    """The triangulated 2-torus gamma(L) x gamma(L') with its cycle and band,
    written down as tuples of row-major positions, vertex (a, b) at a*L' + b.

    ``x1`` is the chain of horizontal edges at second coordinate 0,
    (a*L', (a + s)*L') for each even a and s = +-1.  The band is the
    triangles whose second coordinates lie in [0, L'/2]: each runs from
    p = (a, b), both even, through a corner (a + s, b) or (a, b + t) to
    r = (a + s, b + t), and the band holds both corners of every (p, r) it
    meets.  ``squares`` lists it as (p, q1, q2, r), the triangles
    [p, q1, r] and [p, q2, r], for each x1 edge shifted by an even b in
    [0, L'/2] and each t = +-1 with 0 < b + t < L'/2.  The band identity is
    checked on the squares as written.  ``grid``, the ``Torus`` of the two
    sides, checks them and the colourings.
    """

    def __init__(self, L, Lp):
        self.grid = Torus((L, Lp))
        self.L, self.Lp = L, Lp
        self.x1 = [(a * Lp, (a + s) % L * Lp) for a in range(0, L, 2) for s in (1, -1)]
        half = Lp // 2
        steps = [(b, b + t) for b in range(0, half + 1, 2) for t in (1, -1)
                 if 0 < b + t < half]
        self.squares = [(p + b, q + b, p + c, q + c) for p, q in self.x1 for b, c in steps]
        self._check_band()

    def _check_band(self):
        """The band's boundary mod 2 must be x1 plus its image under the
        antipode (a, b) -> (a + L/2, b + L'/2).  The two triangles of a
        square share the diagonal [p, r], so the boundary is the sum of the
        squares' outer edges (InvariantViolationError)."""
        mates = {p: self.grid.mate(1 << p).bit_length() - 1 for edge in self.x1 for p in edge}
        edges = set()
        for p, q1, q2, r in self.squares:
            edges ^= {(p, q1), (q1, r), (p, q2), (q2, r)}
        if edges != set(self.x1) ^ {(mates[u], mates[v]) for u, v in self.x1}:
            raise InvariantViolationError("band boundary != cycle + antipodal cycle")

    def deg1(self, bits):
        """Edge crossings on the coordinate cycle plus alternating band
        triangles, for the blue bits of the vertices at the row-major
        positions, each checked to be 0 or 1."""
        check_length(self.grid, bits)
        check_colours(self.grid, bits)
        return count_deg1(bits, self.x1, self.squares)


def count_deg1(bits, x1, squares):
    """deg1 of a blue-bit list: (blue, yellow) edges plus (blue, yellow, blue)
    band triangles, mod 2, with the cells given as index tuples into bits.

    A square (p, q1, q2, r) stands for its triangles [p, q1, r] and
    [p, q2, r]: with p and r blue, the yellow middles among q1 and q2 number
    1 exactly when their bits differ, and 0 or 2 otherwise, so the square
    adds bits[p] & bits[r] & (bits[q1] ^ bits[q2]) to the count mod 2.

    The terms are folded by XOR, so a bit may pack many maps, one per bit
    position (as ``TorusTables.lane_degrees`` packs them): each term only
    sets bits that are set in its operands, and no position carries into
    the next.  ``TorusTables.slot_degrees`` counts the same terms for one
    map with the lanes turned the other way, one byte per cell vertex, as
    ``CellLanes`` lays them out for ``phi``.
    """
    return reduce(xor, [bits[p] & bits[r] & (bits[q1] ^ bits[q2])
                        for p, q1, q2, r in squares],
                  reduce(xor, [bits[u] & ~bits[v] for u, v in x1], 0))


@lru_cache(maxsize=16)
def torus_complex(L, Lp):
    return TorusComplex(L, Lp)


class TorusTables:
    """The degree slices of gamma(L)^n, read on the bits of a few vertices.

    ``positions`` lists, in increasing order, the row-major positions of the
    vertices of gamma(L)^n that a slice reads.  ``slices[i - 1]`` holds the
    ``x1`` edges and band ``squares`` of ``torus_complex(L, L)`` pulled back
    through ``sigma_minor(n, i)``, as indices into ``positions``:
    ``count_deg1`` over them is deg1 of the i-th minor.  The vertex (a, b)
    of the plane lifts to a * w_1 + b * w_2, with w_k summing L^(n-j) over
    the coordinates j that the minor sends to k.  No torus is built: neither
    gamma(L)^n nor the plane, which is written down.

    ``slots`` lays out every cell vertex of every slice as an index into
    ``positions``, one region per role: every x1 u, every x1 v, then the
    squares' p, q1, q2 and r, slice by slice within a region.
    ``offsets`` holds the bit offsets of the regions after the first when
    slot j is byte j of an integer, and ``slot_masks[i - 1]`` the bit 0 of
    each byte of the i-th slice's edges and squares.
    """

    def __init__(self, L, n):
        plane = torus_complex(L, L)
        lifts = []
        for i in range(1, n + 1):
            pi, w = sigma_minor(n, i), [0, 0]
            for j in range(1, n + 1):
                w[pi(j) - 1] += L ** (n - j)
            lifts.append([a * w[0] + b * w[1] for a in range(L) for b in range(L)])
        self.positions = tuple(sorted({lift[p] for lift in lifts
                                       for cell in plane.x1 + plane.squares
                                       for p in cell}))
        index = dict(zip(self.positions, range(len(self.positions))))
        self.slices = []
        for lift in lifts:
            at = [index.get(p) for p in lift]
            self.slices.append(([tuple(map(at.__getitem__, e)) for e in plane.x1],
                                [tuple(map(at.__getitem__, s)) for s in plane.squares]))
        self.slots = [cell[k] for part, width in ((0, 2), (1, 4)) for k in range(width)
                      for cells in self.slices for cell in cells[part]]
        edges, squares = len(plane.x1), len(plane.squares)
        e, s = 8 * n * edges, 8 * n * squares  # region widths in bits
        self.offsets = (e, 2 * e, 2 * e + s, 2 * e + 2 * s, 2 * e + 3 * s)
        ones = [int.from_bytes(b"\1" * k, "little") for k in (edges, squares)]
        self.slot_masks = [(ones[0] << 8 * edges * i, ones[1] << 8 * squares * i)
                           for i in range(n)]

    def degrees(self, bits):
        """deg1 of each 2-variable minor, in coordinate order, of the blue
        bits ``bits[k]`` of the vertices at ``positions[k]``."""
        return [count_deg1(bits, x1, squares) for x1, squares in self.slices]

    def slot_degrees(self, w):
        """``degrees`` of one map from ``w``, whose byte j is the blue bit
        at ``positions[slots[j]]``: ``count_deg1`` on every slice at once,
        one byte lane per cell vertex.

        Each region shifted to the bottom lines its slots up with the
        first region's, so one AND, shift and XOR per term covers every
        cell, and each slice's count is the population count under its
        masks, mod 2.
        """
        v, p, q1, q2, r = self.offsets
        edges = w & ~(w >> v)
        squares = (w >> p) & (w >> r) & ((w >> q1) ^ (w >> q2))
        return [((edges & e).bit_count() + (squares & s).bit_count()) & 1
                for e, s in self.slot_masks]

    def lane_degrees(self, columns):
        """The degree vector of every map at once, from ``columns[k]``, the
        blue bits of the maps at ``positions[k]`` one byte per map (as
        ``CyclePipeline.mu_lanes`` gives them); one tuple per map.

        Each column is read as one integer, so one ``degrees`` pass counts
        every map, each in the low bit of its byte.
        """
        count = len(columns[0])
        return list(zip(*(degree.to_bytes(count, "little") for degree in
                          self.degrees([int.from_bytes(c, "little") for c in columns]))))


@lru_cache(maxsize=16)
def torus_tables(L, n):
    return TorusTables(L, n)


# the most bytes ``CellLanes`` may hold in its masks, ell^n of them as wide
# as the slots; past it ``phi`` reads side by side (``SideMasks``)
CELL_LANES_BUDGET = 1 << 23


class CellLanes:
    """``phi``'s reader of one map while it fits ``CELL_LANES_BUDGET``: the
    t-index of mu(f) at every slot of ``torus_tables(4*ell, n)``, one byte
    lane per slot, for the polymorphisms of one arity n of one
    ``CyclePipeline``.

    ``CyclePipeline.mu_lanes`` packs maps, one byte lane per map; here the
    lanes are turned the other way, as in bit-sliced DES (Biham, FSE 1997).
    Byte j of ``masks[i]`` has bit 4 set when domain vertex i of C_ell^n
    lies in the left side of iota(iso^n(y)) at slot j's vertex y, and bit
    0 when it lies in the right side, read off ``CyclePipeline.side_table``.
    ORed over the vertices of each colour c and shifted by c, they give
    every slot's t-index ``(left mask << 4) | right mask``;
    ``TorusTables.slot_degrees`` then counts, as ``count_deg1`` does, on
    the bits that t gives.
    """

    def __init__(self, pipeline, n, tables):
        columns, lefts, rights = pipeline.side_table(n, tables.positions)
        sides = [side for group in columns for side in zip(*group)]
        self.size = len(tables.slots)
        masks = [bytearray(self.size) for _ in range(pipeline.ell ** n)]
        for j, k in enumerate(tables.slots):
            for i in sides[lefts[k]]:
                masks[i][j] |= 0x10
            for i in sides[rights[k]]:
                masks[i][j] |= 1
        for i, m in enumerate(masks):  # each bytearray is dropped as it is read
            masks[i] = int.from_bytes(m, "little")
        self.masks = masks

    def keys(self, values):
        """The t-index of mu'(f) at every slot, one byte each, for the map
        f with ``values``."""
        planes = [0] * 4
        for c, mask in zip(values, self.masks):
            planes[c] |= mask
        key = planes[0] | planes[1] << 1 | planes[2] << 2 | planes[3] << 3
        return key.to_bytes(self.size, "little")


class SideMasks:
    """``phi``'s reader of one map where ``CellLanes`` would pass
    ``CELL_LANES_BUDGET``: the same t-index at every slot, read side by
    side.

    It keeps ``CyclePipeline.side_table`` at the slice positions.  Per map,
    ``side_keys`` ORs the colours 1 << f(i) over each distinct side, as
    ``CyclePipeline.mu_lanes`` does for packed maps, and the keys at the
    positions are laid out by slot: work and memory grow with the sides,
    not with ell^n masks as wide as the slots.
    """

    def __init__(self, pipeline, n, tables):
        self.sides = pipeline.side_table(n, tables.positions)
        self.by_slot = itemgetter(*tables.slots)

    def keys(self, values):
        """The t-index of mu'(f) at every slot, one byte each, for the map
        f with ``values``."""
        # the kernel indexes a list faster than bytes
        keys = bytes(side_keys(self.sides, [1 << v for v in values]))
        return bytes(self.by_slot(keys))


def one_map_reader(pipeline, n):
    """``phi``'s reader of the maps of arity n: ``CellLanes`` while its
    ell^n masks of one byte per slot fit in ``CELL_LANES_BUDGET`` bytes,
    ``SideMasks`` past it."""
    tables = torus_tables(pipeline.period, n)
    if pipeline.ell ** n * len(tables.slots) <= CELL_LANES_BUDGET:
        return CellLanes(pipeline, n, tables)
    return SideMasks(pipeline, n, tables)


class OddVector:
    """An element of the odd-weight Z_2-vector minion."""

    def __init__(self, bits):
        self.bits = tuple(int(b) % 2 for b in bits)
        self.n = len(self.bits)
        if self.n < 1:
            raise InvalidParameterError("odd vectors need positive arity")
        if sum(self.bits) % 2 != 1:
            raise InvariantViolationError(f"vector {self.bits} has even weight")

    @property
    def weight(self):
        return sum(self.bits)

    def minor(self, pi):
        """Sum coordinates over the preimage blocks of pi, mod 2."""
        if pi.n != self.n:
            raise InvalidParameterError("minor arity mismatch")
        return OddVector(tuple(sum(self.bits[i - 1] for i in pi.preimage(j)) % 2
                               for j in range(1, pi.m + 1)))

    def __eq__(self, other):
        return isinstance(other, OddVector) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"OddVector{self.bits}"


def sigma_minor(n, i):
    """The 2-variable minor sending slot i to coordinate 1, the rest to 2."""
    return MinorSpec(n, 2, tuple(1 if j == i else 2 for j in range(1, n + 1)))


def deg_vector(bits, L, n):
    """The vector (deg_1, ..., deg_n) of an equivariant map on gamma(L)^n; odd weight.

    ``bits`` are the blue bits of the torus vertices in row-major order.
    Raises if there is not one per vertex, if a bit is neither 0 nor 1, if
    the input is not equivariant, or if the computed weight comes out even,
    which would indicate a bug or an invalid input.  Coordinate i is deg1
    of the 2-variable minor along ``sigma_minor(n, i)``, read off
    ``bits[p]`` at the ``positions`` of the index tables.
    """
    x = torus(L, n)
    check_length(x, bits)
    check_colours(x, bits)
    check_antipodes(x, bits)
    tables = torus_tables(L, n)
    return OddVector(tables.degrees([bits[p] for p in tables.positions]))


def phi(f, pipeline):
    """The odd vector attached to a polymorphism: the degree vector of mu(f).

    Reads the blue bits of mu(f) only at the vertices the degree slices of
    gamma(4*ell)^n touch, and builds no such torus: the reader that
    ``one_map_reader`` picks, built once per arity and kept in
    ``pipeline.phi_readers``, gives the t-index of every cell vertex of
    every slice, one byte per cell vertex, ``CyclePipeline.read_t`` reads t
    on it, and ``TorusTables.slot_degrees`` counts the degrees.  The check of t, made
    when its ``TColouring`` was made, stands for the checks of the whole
    torus (see ``CyclePipeline``), so per map f must pass
    ``check_polymorphism`` and the vector must have odd weight
    (InvariantViolationError): a vector is built only for bits not yet in
    ``pipeline.phi_vectors``, where only odd ones are kept.  An accepted
    result is memoised on the pipeline under ``f.values``, and a later call
    with the same values returns it after ``check_polymorphism``; a failing
    input is not stored and raises again on every call.
    """
    if not isinstance(pipeline, CyclePipeline):
        raise InvalidParameterError("phi needs a CyclePipeline")
    n = pipeline.check_polymorphism(f)
    alpha = pipeline.phi_memo.get(f.values)
    if alpha is None:
        reader = pipeline.phi_readers.get(n)
        if reader is None:
            reader = pipeline.phi_readers[n] = one_map_reader(pipeline, n)
        blue = pipeline.read_t(reader.keys(f.values))
        tables = torus_tables(pipeline.period, n)
        bits = tuple(tables.slot_degrees(int.from_bytes(blue, "little")))
        alpha = pipeline.phi_vectors.get(bits)
        if alpha is None:
            alpha = pipeline.phi_vectors[bits] = OddVector(bits)
        pipeline.phi_memo[f.values] = alpha
    return alpha


def find_colour_swapping_edge(bits, plane):
    """A horizontal edge with differently coloured endpoints, for the blue
    bits of the plane's vertices in row-major order; needs deg1 = 1."""
    if plane.deg1(bits) != 1:
        raise InvalidParameterError("colour-swapping edges are guaranteed only for deg1 = 1")
    L, Lp = plane.L, plane.Lp
    for b in range(Lp):
        for a in range(L):
            if bits[a * Lp + b] != bits[(a + 1) % L * Lp + b]:
                return (a, b), ((a + 1) % L, b)
    raise InvariantViolationError("no colour-swapping edge on a deg1 = 1 map")


def winding_colouring(L, n, j):
    """The blue bits of gamma(L)^n in row-major order, blue exactly where
    coordinate j lies in the lower half [0, L/2): a block of L/2 strides of
    ones and one of zeros, repeated."""
    if not 1 <= j <= n:
        raise InvalidParameterError("coordinate out of range")
    x = torus(L, n)
    half = L // 2 * x.strides[j - 1]
    return (b"\1" * half + b"\0" * half) * (x.size // (2 * half))


def monomial_colouring(L, n, support):
    """An equivariant simplicial map whose degree vector is the support
    pattern, as blue bits in row-major order.

    Sums the round-up-to-even reparametrization u(x) = x + (x mod 2) over the
    support coordinates, one coordinate at a time over the positions, and
    colours blue where the sum mod L lands in the lower half.  Along any
    chain each step moves the sum forward by 0 or 2 per raised coordinate, so
    with |support| <= 3 and L >= 8 no 3-simplex image can alternate three
    times.  The support must have odd size (degree vectors have odd weight).
    """
    support = tuple(sorted(set(support)))
    if any(not 1 <= j <= n for j in support):
        raise InvalidParameterError("support out of range")
    if len(support) % 2 == 0 or not support:
        raise InvalidParameterError("support must have odd size")
    if len(support) > 3:
        raise InvalidParameterError("supports larger than 3 are not constructed here")
    if len(support) == 3 and L < 8:
        raise InvalidParameterError("weight-3 patterns need L >= 8")
    torus(L, n)  # checks the side and the vertex count
    levels = [0]
    for j in range(1, n + 1):
        steps = [x + x % 2 if j in support else 0 for x in range(L)]
        levels = [a + b for a in levels for b in steps]
    return bytes(a % L < L // 2 for a in levels)
