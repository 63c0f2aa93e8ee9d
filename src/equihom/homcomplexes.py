"""Multihomomorphism posets, the complexes Hom(K_2, G), and the map pipeline.

A multihomomorphism K_2 -> G is an ordered pair of non-empty vertex subsets
spanning a complete bipartite subgraph of G; the poset of these under
componentwise inclusion has the homomorphism complex as its order complex,
with the free involution swapping the two sides.  For an odd cycle the complex
is a circle with 4*ell vertices; for the complete graph on four vertices it is
a 2-sphere on 50 vertices, and any equivariant 2-colouring of it gives the
structure map into the two-vertex sphere used by the degree pipeline.
"""

import hashlib
import json
from functools import lru_cache
from itertools import chain, combinations, groupby, product
from operator import or_
from typing import NamedTuple

from .errors import (CapacityExceededError, InternalError, InvalidParameterError,
                     UnsupportedInputError)
from .graphs import GraphHom, PowerGraph, complete_graph, cycle_graph
from .simplicial import map_from_colouring, order_complex

# byte v -> 1 << v for the four colours of K_4, and the byte that a t-index
# with no multihomomorphism behind it reads in ``CyclePipeline.table``
ONE_HOT = bytes(1 << v if v < 4 else 0 for v in range(256))
UNLABELLED = 0xFF

# the most multihomomorphisms ``multihoms`` lists: complete:7 has 1 932 and
# cycle:211 has 844, and ``hom_complex`` compares the masks of every pair
MAX_MULTIHOMS = 4096


class Multihom(NamedTuple):
    """An ordered pair of vertex subsets, stored as sorted tuples."""

    left: tuple
    right: tuple

    def swap(self):
        return Multihom(self.right, self.left)

    def le(self, other):
        return set(self.left) <= set(other.left) and set(self.right) <= set(other.right)

    def sort_key(self):
        lmask = sum(1 << v for v in self.left)
        rmask = sum(1 << v for v in self.right)
        return (len(self.left) + len(self.right), lmask, rmask)


def multihoms(g):
    """All multihomomorphisms K_2 -> g, in the canonical order.

    A left side is grown one greater vertex at a time while its common
    neighbourhood stays non-empty; in a loopless graph that neighbourhood
    misses the side itself, and it only shrinks as the side grows, so no
    left side with a right side is missed, and the work follows the output.
    The right sides of each left side are counted before they are listed,
    and a graph with more than MAX_MULTIHOMS in all is refused
    (CapacityExceededError).
    """
    if not g.is_loopless():
        raise UnsupportedInputError("multihomomorphism enumeration needs a loopless graph")
    out = []
    stack = [((v,), g.neighbours(v)) for v in g.vertices()]
    while stack:
        left, common = stack.pop()
        members = sorted(common)
        if len(out) + 2 ** len(members) - 1 > MAX_MULTIHOMS:
            raise CapacityExceededError(
                f"a graph on {g.vertex_count} vertices has more than "
                f"{MAX_MULTIHOMS} multihomomorphisms from K_2")
        for k in range(1, len(members) + 1):
            out.extend(Multihom(left, right) for right in combinations(members, k))
        for v in range(left[-1] + 1, g.vertex_count):
            shared = common & g.neighbours(v)
            if shared:
                stack.append((left + (v,), shared))
    out.sort(key=Multihom.sort_key)
    return out


@lru_cache(maxsize=16)
def hom_complex(g):
    """The order complex of mhom(K_2, g) with the swap involution, cap 3."""
    if not g.is_loopless():
        raise UnsupportedInputError("hom_complex needs a loopless graph")
    elements = multihoms(g)
    involution = {m: m.swap() for m in elements}
    # m <= m' componentwise iff the left mask, then the right mask shifted
    # past it, is a submask of the other's
    shift = g.vertex_count
    masks = [sum(1 << v for v in m.left) | sum(1 << v + shift for v in m.right)
             for m in elements]
    x = order_complex(elements, masks, 3, involution=involution)
    if not x.has_free_involution():
        raise InternalError("swap involution is not free on a loopless graph")
    return x


def canonical_cycle_iso(ell):
    """The vertex map {k: multihomomorphism} of the equivariant isomorphism
    gamma(4*ell) -> hom_complex(C_ell).

    Seeds at the multihomomorphism ({0},{1}) and walks the 4*ell-cycle of the
    poset's comparability graph, taking the canonically smaller neighbour
    first; verified bijective on vertices and edges, equivariant, and
    monotone: each odd vertex goes above both of its even neighbours.
    """
    if ell < 3 or ell % 2 == 0:
        raise InvalidParameterError("need an odd cycle length >= 3")
    period = 4 * ell
    target = hom_complex(cycle_graph(ell))
    # a 1-cell is a pair (below, above) of positions, and positions follow
    # the canonical order, so the least position is the canonically least
    edges = set(target.position_cells(1))
    neighbours = [[] for _ in target.vertices]
    for p, q in target.position_cells(1):
        neighbours[p].append(q)
        neighbours[q].append(p)
    walk = [target.vertices.index(Multihom((0,), (1,)))]
    visited = set(walk)
    while len(walk) < period:
        options = [q for q in neighbours[walk[-1]] if q not in visited]
        if not options:
            raise InternalError("comparability walk got stuck before closing")
        walk.append(min(options))
        visited.add(walk[-1])
    if walk[0] not in neighbours[walk[-1]]:
        raise InternalError("comparability walk did not close into a cycle")
    for k in range(period):
        if walk[(k + 2 * ell) % period] != target.antipode[walk[k]]:
            raise InternalError("walk does not conjugate the shift to the swap")
        if k % 2 and not ((walk[k - 1], walk[k]) in edges
                          and (walk[(k + 1) % period], walk[k]) in edges):
            raise InternalError(f"walk does not send {k} above its even neighbours")
    if len(set(walk)) != period:
        raise InternalError("walk is not injective on vertices")
    # the edges of gamma(period) run from each even k to k + 1 and k - 1
    if {(walk[k], walk[(k + s) % period])
            for k in range(0, period, 2) for s in (1, -1)} != edges:
        raise InternalError("walk is not bijective on edges")
    return {k: target.vertices[p] for k, p in enumerate(walk)}


def mu_prime(f, ms):
    """Push an n-tuple of multihomomorphisms over G through f: G^n -> H.

    Each side u maps to { f(v_1..v_n) : v_i in m_i(u) }.  This is iota
    followed by the map induced by f, and it is lax with respect to minors:
    mu_prime(f^pi)(ms) is contained in mu_prime(f)(ms o pi) componentwise.
    """
    dom = f.domain
    if not isinstance(dom, PowerGraph) or dom.exponent != len(ms):
        raise InvalidParameterError("arity of f and the multihom tuple differ")
    left = tuple(sorted({f.values[dom.encode(c)] for c in product(*[m.left for m in ms])}))
    right = tuple(sorted({f.values[dom.encode(c)] for c in product(*[m.right for m in ms])}))
    return Multihom(left, right)


class TColouring:
    """An equivariant 2-colouring t of Hom(K_2, K_4), the structure map into sigma(2).

    ``colours`` holds one bit per vertex in the canonical order
    (0 = yellow, 1 = blue), given as ints, never coerced from a string,
    bool or float; the fingerprint identifies the choice in reports.
    A colouring is checked once, when it is made, searched or passed in
    alike: its bits, in the vertex order of ``hom_complex``, which is the
    order of ``labels``, must be an equivariant simplicial map
    Hom(K_2, K_4) -> sigma(2) (``map_from_colouring``), with a witness in
    Hom(K_2, K_4).
    """

    def __init__(self, colours):
        if (not isinstance(colours, (list, tuple))
                or any(type(b) is not int for b in colours)):
            raise InvalidParameterError("colours must be a list of ints")
        self.colours = tuple(colours)
        self.labels = tuple(multihoms(complete_graph(4)))
        if len(self.colours) != len(self.labels):
            raise InvalidParameterError("colour vector length mismatch")
        map_from_colouring(hom_complex(complete_graph(4)), self.colours)

    def fingerprint(self):
        """The SHA-256 of the canonical JSON of the colouring and its header."""
        payload = json.dumps({"complex": "HomK2K4", "order": "canonical-v1",
                              "colours": list(self.colours)},
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def search_t_colouring():
    """The canonical equivariant colouring t of Hom(K_2, K_4), a map into sigma(2).

    Hom(K_2, K_4) has no 3-simplex, so every equivariant colouring is a
    simplicial map; the one chosen colours the first vertex of each of the
    25 antipodal orbits yellow, in canonical vertex order, which is the
    first solution of a backtracking search over the orbits.  It is
    computed afresh on every call, in about a millisecond, and checks
    itself as a ``TColouring``.  ``phi`` does not depend on the choice:
    ``tests/test_degrees.py`` checks it against seeded random t.
    """
    # the vertices are multihoms(K_4) in the canonical order of TColouring
    x = hom_complex(complete_graph(4))
    colours = [None] * len(x.vertices)
    for i, j in enumerate(x.antipode):
        if colours[i] is None:
            colours[i], colours[j] = 0, 1
    return TColouring(colours)


def _t_index(m):
    """(left mask << 4) | right mask, a side's mask setting bit c for each c."""
    left, right = (sum(1 << c for c in side) for side in m)
    return left << 4 | right


def side_keys(sides, onehot):
    """The t-index ``(left mask << 4) | right mask`` at each vertex of the
    ``CyclePipeline.side_table`` ``sides``, as an iterator, from the one-hot
    colours ``onehot[i]`` of the domain vertices.

    A side's mask ORs the colours over its indices, a whole index column at
    a time.  ``onehot[i]`` may pack many maps, one byte lane each: a mask
    fills the low half of each byte, so each key stays in its byte.
    """
    columns, lefts, rights = sides
    masks = []
    for group in columns:
        acc = map(onehot.__getitem__, group[0])
        for column in group[1:]:
            acc = map(or_, acc, map(onehot.__getitem__, column))
        masks.extend(acc)
    high = [m << 4 for m in masks]
    return map(or_, map(high.__getitem__, lefts), map(masks.__getitem__, rights))


class CyclePipeline:
    """Everything needed to turn polymorphisms of (C_ell, K_4) into torus maps.

    Holds the vertex map ``iso_map`` of the canonical circle isomorphism
    and the structure colouring t, the canonical one of
    ``search_t_colouring`` unless a ``TColouring`` is passed in, and runs
    on integer tables.
    ``table`` is 256 bytes: the blue bit of t at ``_t_index(m)`` for each
    multihomomorphism m of K_4, ``UNLABELLED`` elsewhere, read by
    ``read_t``.  For each arity n, the pipeline caches the distinct sides
    of iota(iso(y_1), ..., iso(y_n)) at every vertex y of gamma(4*ell)^n as
    index columns of encoded domain indices, one group per side size
    (``side_table``, which builds them at given positions for phi's
    reader, uncached).  Its readers share ``table``: ``mu_lanes`` packs
    maps, one byte lane per map, for the survey and ``mu_colours``, and
    ``degrees.phi`` reads one map at a time, one byte per cell vertex of
    the degree slices, with the reader ``degrees.one_map_reader`` picks
    for the arity n, kept in ``phi_readers`` under n.

    mu(f) = t o f_* o iota o iso^n.  iso is equivariant and sends each odd
    vertex above its even neighbours (``canonical_cycle_iso`` checks both),
    iota is monotone and equivariant, and so is f_* when f is a homomorphism
    (``check_polymorphism``).  So a torus 3-cell goes to a weak chain of
    multihomomorphisms of K_4, and antipodes to swapped pairs: a
    3-alternating image would be a 3-simplex of Hom(K_2, K_4) on which t
    alternates (it has none), and an antipode clash a failure of t's
    equivariance.  A ``TColouring`` is checked when it is made, so t is
    checked once for every f.

    ``phi_memo`` maps the value tuple of each polymorphism ``degrees.phi``
    has accepted to its odd vector, one shared ``OddVector`` per result in
    ``phi_vectors``.
    """

    def __init__(self, ell, t=None):
        self.ell = ell
        self.base = cycle_graph(ell)
        self.codomain = complete_graph(4)
        self.iso_map = canonical_cycle_iso(ell)
        self.t = t if t is not None else search_t_colouring()
        table = bytearray([UNLABELLED]) * 256
        for m, b in zip(self.t.labels, self.t.colours):
            table[_t_index(m)] = b
        self.table = bytes(table)
        self.phi_memo = {}
        self.phi_vectors = {}
        self.phi_readers = {}
        self._sides = {}

    @property
    def period(self):
        return 4 * self.ell

    def check_polymorphism(self, f):
        """The arity of f, a homomorphism C_ell^n -> K_4; the edges of a map
        whose ``checked`` is false are checked here."""
        dom = f.domain
        # the shared templates pass on ``is``, without a call to Graph.__eq__
        if not (isinstance(dom, PowerGraph)
                and (dom.base is self.base or dom.base == self.base)):
            raise InvalidParameterError("not a polymorphism over this cycle")
        if f.codomain is not self.codomain and f.codomain != self.codomain:
            raise InvalidParameterError("codomain must be the 4-clique")
        if not f.checked:
            GraphHom(dom, f.codomain, f.values)
        return dom.exponent

    def side_table(self, n, positions):
        """Distinct sides of iota at the vertices of gamma(4*ell)^n at
        ``positions`` (all of them for None), and where each vertex's are.

        iota(m_1, ..., m_n) bundles multihomomorphisms over C_ell into one
        over C_ell^n: each side is the product of the m_i's sides, a tuple
        of domain indices in the power's mixed radix.  The distinct sides of
        the circle's iso(x) are numbered once, and a product side is named
        by the mixed-radix number, base their count, of its coordinates'
        side numbers, built one coordinate at a time; each distinct product
        side is then summed once from the terms v * ell^(n-1-i) of its
        coordinates' sides, and sums over sorted sides in mixed radix come
        out sorted.  The distinct sides, in the order each first appears
        with a vertex's left side before its right, are grouped by size,
        and a group of size s is stored as s index columns, column j
        holding the j-th index of each side; ``lefts[k]`` and ``rights[k]``
        are the positions of the k-th vertex's sides in the grouped order.
        The table of every vertex is cached under n; one at ``positions``
        is built afresh for the reader that keeps it.
        """
        table = self._sides.get(n) if positions is None else None
        if table is None:
            L, ell = self.period, self.ell
            number = {}
            for m in self.iso_map.values():
                for side in m:
                    number.setdefault(side, len(number))
            circle, radix = list(number), len(number)

            def codes(nums):  # nums[x]: the number of a side of iso(x)
                if positions is None:
                    out = [0]
                    for _ in range(n):
                        out = [a * radix + b for a in out for b in nums]
                    return out
                out = [0] * len(positions)
                for k in range(n - 1, -1, -1):
                    out = [a * radix + nums[p // L ** k % L] for a, p in zip(out, positions)]
                return out

            lefts = codes([number[self.iso_map[x].left] for x in range(L)])
            rights = codes([number[self.iso_map[x].right] for x in range(L)])
            sides = {}
            for code in dict.fromkeys(chain.from_iterable(zip(lefts, rights))):
                side = [0]
                for k in range(n - 1, -1, -1):
                    terms = [v * ell ** k for v in circle[code // radix ** k % radix]]
                    side = [u + v for u in side for v in terms]
                sides[code] = tuple(side)
            grouped = sorted(sides, key=lambda code: len(sides[code]))
            moved = dict(zip(grouped, range(len(grouped))))
            columns = [tuple(zip(*map(sides.__getitem__, group)))
                       for _, group in groupby(grouped, key=lambda code: len(sides[code]))]
            table = (columns, list(map(moved.__getitem__, lefts)),
                     list(map(moved.__getitem__, rights)))
            if positions is None:
                self._sides[n] = table
        return table

    def mu_lanes(self, fs):
        """The blue bits of mu(f) of every map in ``fs`` at once, at every
        vertex of gamma(4*ell)^n in vertex order: one bytes object with
        ``len(fs)`` bytes per vertex, byte k the bit of ``fs[k]``.

        Each f must pass ``check_polymorphism``, all at one arity.  The
        one-hot colours 1 << f(i) of a domain vertex are packed one byte per
        map, one map as many maps are, and a side's mask ORs them over its
        indices, a whole index column at a time.  A mask fills the low half of its
        byte, so the t-index ``(left mask << 4) | right mask`` stays in it,
        and ``read_t`` reads t.  This is the reader that packs maps;
        ``phi`` reads one map with ``degrees.CellLanes``, which packs cells,
        or ``degrees.SideMasks`` past their budget.
        """
        if not fs:
            raise InvalidParameterError("mu_lanes needs at least one map")
        arities = set(map(self.check_polymorphism, fs))
        if len(arities) != 1:
            raise InvalidParameterError(f"maps of arities {sorted(arities)} in one call")
        count = len(fs)
        onehot = [int.from_bytes(bytes(column).translate(ONE_HOT), "little")
                  for column in zip(*(f.values for f in fs))]
        keys = side_keys(self.side_table(arities.pop(), None), onehot)
        return self.read_t(b"".join(key.to_bytes(count, "little") for key in keys))

    def read_t(self, keys):
        """The blue bit of t at each byte of ``keys``, a t-index
        ``(left mask << 4) | right mask``, through ``table``; a key with no
        multihomomorphism of K_4 behind it reads ``UNLABELLED`` and is
        refused (InternalError)."""
        blob = keys.translate(self.table)
        if UNLABELLED in blob:
            raise InternalError("a map sends a vertex to a pair of sides that is "
                                "not a multihomomorphism of K_4")
        return blob

    def mu_colours(self, f):
        """The blue bits of mu(f) in row-major order, for the polymorphism f."""
        return self.mu_lanes([f])
