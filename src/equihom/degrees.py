"""Mod-2 degree invariants of equivariant torus maps, and the minion of odd vectors.

The degree of a map from a 2-torus counts, mod 2, the horizontal edges whose
image is the non-degenerate edge [blue, yellow] plus the band triangles whose
image is [blue, yellow, blue].  Degrees in each coordinate direction of an
n-torus come from 2-variable minors, assemble into a vector of odd weight, and
composing with the polymorphism pipeline realizes the minion homomorphism into
odd Z_2-vectors.
"""

from functools import cached_property, lru_cache, reduce
from operator import xor

from .errors import InvalidParameterError, InvariantViolationError
from .graphs import MinorSpec
from .homcomplexes import CyclePipeline
from .simplicial import (BLUE, YELLOW, check_antipodes, check_colours, check_torus,
                         colour_values, gamma_power, gamma_product)


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
    checked on the squares as written.  ``sset``, the torus itself, is
    built on the first read of a colouring.
    """

    def __init__(self, L, Lp):
        check_torus((L, Lp))
        self.L = L
        self.Lp = Lp
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
        L, Lp = self.L, self.Lp

        def mate(p):
            a, b = divmod(p, Lp)
            return (a + L // 2) % L * Lp + (b + Lp // 2) % Lp

        edges = set()
        for p, q1, q2, r in self.squares:
            edges ^= {(p, q1), (q1, r), (p, q2), (q2, r)}
        if edges != set(self.x1) ^ {(mate(u), mate(v)) for u, v in self.x1}:
            raise InvariantViolationError("band boundary != cycle + antipodal cycle")

    @cached_property
    def sset(self):
        return gamma_product((self.L, self.Lp))

    def deg1(self, colouring):
        """Edge crossings on the coordinate cycle plus alternating band triangles."""
        values = colour_values(self.sset, colouring)
        check_colours(self.sset, values)
        return count_deg1([c == BLUE for c in values], self.x1, self.squares)


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
    the next.
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
    the slots j that the minor sends to k.  No torus is built: neither
    gamma(L)^n nor the plane, which is written down.
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

    def degrees(self, bits):
        """deg1 of each 2-variable minor, in coordinate order, of the blue
        bits ``bits[k]`` of the vertices at ``positions[k]``."""
        return [count_deg1(bits, x1, squares) for x1, squares in self.slices]

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


def deg_vector(g, L, n):
    """The vector (deg_1, ..., deg_n) of an equivariant map on gamma(L)^n; odd weight.

    ``g`` is a colour dict or a SimplicialMap on the torus.  Raises if the
    input is not equivariant, if a vertex lacks a yellow/blue colour, or if
    the computed weight comes out even, which would indicate a bug or an
    invalid input.  Coordinate i is deg1 of the 2-variable minor along
    ``sigma_minor(n, i)``, counted on the index tables.
    """
    x = gamma_power(L, n)
    values = colour_values(x, g)
    check_antipodes(x, values)
    check_colours(x, values)
    tables = torus_tables(L, n)
    return OddVector(tables.degrees([values[p] == BLUE for p in tables.positions]))


def phi(f, pipeline):
    """The odd vector attached to a polymorphism: the degree vector of mu(f).

    Reads the blue bits of mu(f) only at the vertices the degree slices of
    gamma(4*ell)^n touch, and builds no such torus.  The check of t, made
    when its ``TColouring`` was made, stands for the checks of the whole
    torus (see ``CyclePipeline``), so per map f must pass
    ``check_polymorphism`` and the vector must have odd weight
    (InvariantViolationError).  An accepted
    result is memoised on the pipeline under ``f.values``, and a later call
    with the same values returns it after ``check_polymorphism``; a failing
    input is not stored and raises again on every call.
    """
    if not isinstance(pipeline, CyclePipeline):
        raise InvalidParameterError("phi needs a CyclePipeline")
    n = pipeline.check_polymorphism(f)
    memo, vectors = pipeline.phi_memo, pipeline.phi_vectors
    alpha = memo.get(f.values)
    if alpha is None:
        tables = torus_tables(pipeline.period, n)
        # the kernel indexes a list faster than bytes
        bits = list(pipeline.mu_lanes([f], tables.positions))
        alpha = OddVector(tables.degrees(bits))
        alpha = memo[f.values] = vectors.setdefault(alpha.bits, alpha)
    return alpha


def find_colour_swapping_edge(g, torus):
    """A horizontal edge with differently coloured endpoints; needs deg1 = 1."""
    if torus.deg1(g) != 1:
        raise InvalidParameterError("colour-swapping edges are guaranteed only for deg1 = 1")
    values, vertices = colour_values(torus.sset, g), torus.sset.vertices
    L, Lp = torus.L, torus.Lp
    for b in range(Lp):
        for a in range(L):
            u, v = a * Lp + b, (a + 1) % L * Lp + b
            if values[u] != values[v]:
                return vertices[u], vertices[v]
    raise InvariantViolationError("no colour-swapping edge on a deg1 = 1 map")


def winding_colouring(L, n, j):
    """Colour blue exactly when coordinate j lies in the lower half [0, L/2)."""
    if not 1 <= j <= n:
        raise InvalidParameterError("coordinate out of range")
    half = L // 2
    return {v: (BLUE if v[j - 1] < half else YELLOW)
            for v in gamma_power(L, n).vertices}


def monomial_colouring(L, n, support):
    """An equivariant simplicial map whose degree vector is the support pattern.

    Sums the round-up-to-even reparametrization u(x) = x + (x mod 2) over the
    support coordinates and colours by the half the sum lands in.  Along any
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
    half = L // 2

    def level(v):
        return sum((v[j - 1] + v[j - 1] % 2) for j in support) % L

    return {v: (BLUE if level(v) < half else YELLOW) for v in gamma_power(L, n).vertices}
