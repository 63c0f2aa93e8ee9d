"""Finite graphs as symmetric binary relations, products, and homomorphisms.

Graphs live on the vertex set ``range(vertex_count)`` with an edge set of
ordered pairs closed under swapping.  Powers use the categorical product rule
and encode vertex tuples in mixed radix, row-major, with the first coordinate
most significant, so serialized polymorphisms are portable.
"""

import random
from functools import lru_cache, reduce
from itertools import product
from operator import or_

from .errors import (CapacityExceededError, InvalidParameterError,
                     InvariantViolationError)

# most vertices a power graph may have, and most ordered edges: the edge
# set is built one pair of vertex tuples at a time, and C_5^6's 10^6 pairs
# take about 2 GB
MAX_POWER_VERTICES = 1 << 24
MAX_POWER_EDGES = 1 << 20


class Graph:
    """A finite graph with loops allowed; edges are symmetric ordered pairs."""

    def __init__(self, vertex_count, edges):
        if vertex_count <= 0:
            raise InvalidParameterError("vertex_count must be positive")
        closed = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InvalidParameterError(f"edge ({u},{v}) out of range")
            closed.add((u, v))
            closed.add((v, u))
        self.vertex_count = vertex_count
        self.edges = frozenset(closed)
        adj = [set() for _ in range(vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
        self._adj = tuple(frozenset(s) for s in adj)
        self._hash = hash((vertex_count, self.edges))

    def vertices(self):
        return range(self.vertex_count)

    def neighbours(self, v):
        return self._adj[v]

    def has_edge(self, u, v):
        return (u, v) in self.edges

    def is_loopless(self):
        return all((v, v) not in self.edges for v in self.vertices())

    def __eq__(self, other):
        return self is other or (isinstance(other, Graph)
                                 and self.vertex_count == other.vertex_count
                                 and self.edges == other.edges)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph({self.vertex_count}, {len(self.edges)} ordered edges)"


class PowerGraph(Graph):
    """The n-fold categorical power of a base graph, with a tuple encoder."""

    def __init__(self, base, exponent):
        if exponent < 1:
            raise InvalidParameterError("exponent must be >= 1")
        radix = base.vertex_count
        # 2^exponent passes the limit once the exponent passes its bit length,
        # so a large exponent is refused before the power is taken
        if radix > 1 and (exponent > MAX_POWER_VERTICES.bit_length()
                          or radix ** exponent > MAX_POWER_VERTICES):
            raise CapacityExceededError(f"{radix}^{exponent} vertices exceeds the "
                                        f"limit {MAX_POWER_VERTICES}")
        # past the vertex check, a base of two or more vertices has a small
        # exponent, and a one-vertex base at most one edge
        pairs = len(base.edges)
        if pairs ** exponent > MAX_POWER_EDGES:
            raise CapacityExceededError(f"{pairs}^{exponent} ordered edges exceeds the "
                                        f"limit {MAX_POWER_EDGES}")
        count = radix ** exponent
        self.base = base
        self.exponent = exponent
        edges = set()
        base_edges = sorted(base.edges)
        for combo in product(base_edges, repeat=exponent):
            u = _encode(tuple(e[0] for e in combo), base.vertex_count)
            v = _encode(tuple(e[1] for e in combo), base.vertex_count)
            edges.add((u, v))
        super().__init__(count, edges)

    def encode(self, tup):
        return _encode(tup, self.base.vertex_count)


def _encode(tup, radix):
    """Row-major mixed radix; coordinate 1 is most significant."""
    out = 0
    for x in tup:
        out = out * radix + x
    return out


@lru_cache(maxsize=32)
def make_template(kind, size):
    """The cycle C_size or the complete loopless graph K_size.

    Cached, so every caller shares one graph per (kind, size), and the
    checks that a map's domain and codomain are the expected templates
    take the identity path of ``Graph.__eq__``.
    """
    if kind == "cycle":
        if size < 3:
            raise InvalidParameterError("cycles need size >= 3")
        return Graph(size, {(i, (i + 1) % size) for i in range(size)})
    if kind == "complete":
        if size < 1:
            raise InvalidParameterError("complete graphs need size >= 1")
        return Graph(size, {(i, j) for i in range(size) for j in range(size) if i != j})
    raise InvalidParameterError(f"unknown template kind {kind!r}")


def cycle_graph(size):
    return make_template("cycle", size)


def complete_graph(size):
    return make_template("complete", size)


@lru_cache(maxsize=32)
def power(g, n):
    """The categorical power g^n; for n = 1 a PowerGraph equal to g.

    Cached: minors and bundling ask for the same few powers again.
    """
    if n < 1:
        raise InvalidParameterError("power exponent must be >= 1")
    return PowerGraph(g, n)


class MinorSpec:
    """A function pi: [n] -> [m] along which minors are taken (1-based)."""

    def __init__(self, n, m, mapping):
        mapping = tuple(mapping)
        if n < 1 or m < 1 or len(mapping) != n:
            raise InvalidParameterError("minor spec shape mismatch")
        if any(not (1 <= x <= m) for x in mapping):
            raise InvalidParameterError("minor spec entries must lie in [1..m]")
        self.n = n
        self.m = m
        self.mapping = mapping

    def __call__(self, i):
        return self.mapping[i - 1]

    def preimage(self, j):
        return [i for i in range(1, self.n + 1) if self(i) == j]

    def __eq__(self, other):
        return (isinstance(other, MinorSpec)
                and (self.n, self.m, self.mapping) == (other.n, other.m, other.mapping))

    def __repr__(self):
        return f"MinorSpec({self.n}->{self.m}, {self.mapping})"


class GraphHom:
    """A graph homomorphism given by its vertex value array.

    ``checked`` records that the edges are known to be preserved: the
    constructor checked them, the search of ``HomStream`` found the map, or
    the map is a minor of a checked one.
    """

    def __init__(self, domain, codomain, values, check=True):
        values = tuple(values)
        if len(values) != domain.vertex_count:
            raise InvalidParameterError("value array length mismatch")
        if check:
            for (u, v) in domain.edges:
                if (values[u], values[v]) not in codomain.edges:
                    raise InvalidParameterError(
                        f"edge ({u},{v}) not preserved: ({values[u]},{values[v]}) missing")
        self.domain = domain
        self.codomain = codomain
        self.values = values
        self.checked = check

    def __call__(self, v):
        return self.values[v]

    def __eq__(self, other):
        return (isinstance(other, GraphHom)
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.values == other.values)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.values))

    def __repr__(self):
        return f"GraphHom({self.values})"


def minor(f, pi):
    """The pi-minor of a polymorphism: substitute variables along pi.

    Vertex ys of base^m takes the value of f at (ys[pi(1)], ..., ys[pi(n)]),
    read through the cached ``_gather`` table of encoded source indices.
    The table carries every edge of base^m onto an edge of base^n, so the
    minor of a checked homomorphism needs no edge check of its own; the
    minor of an unchecked one is checked edge by edge.
    """
    dom = f.domain
    if not isinstance(dom, PowerGraph) or dom.exponent != pi.n:
        raise InvalidParameterError("minor arity does not match the domain power")
    values = f.values
    target = power(dom.base, pi.m)
    table = _gather(dom, target, pi.mapping)
    g = GraphHom(target, f.codomain, [values[k] for k in table], check=not f.checked)
    g.checked = True
    return g


@lru_cache(maxsize=64)
def _gather(dom, target, mapping):
    """For each vertex of the power ``target`` of dom's base, in row-major
    order, the encoded vertex of ``dom`` whose coordinate i is the target's
    coordinate mapping[i - 1].  Checked once: every edge of ``target`` must
    land on an edge of ``dom``."""
    radix, n = dom.base.vertex_count, dom.exponent
    # coordinate j of the target adds radix^(n - i) for each slot i it fills
    weight = [0] * target.exponent
    for i, j in enumerate(mapping, start=1):
        weight[j - 1] += radix ** (n - i)
    table = [0]
    for w in weight:
        table = [k + x * w for k in table for x in range(radix)]
    if any((table[u], table[v]) not in dom.edges for u, v in target.edges):
        raise InvariantViolationError(f"minor table {mapping} does not preserve edges")
    return tuple(table)


class _Supported(dict):
    """``supported[dy]``: the mask of values a with an edge (a, b) for some b
    in the value mask dy, the union of the neighbour masks ``near[b]`` of
    dy's members; each entry is computed on first use."""

    def __init__(self, near):
        super().__init__()
        self.near = near

    def __missing__(self, dy):
        mask = self[dy] = reduce(or_, [near for b, near in enumerate(self.near)
                                       if dy >> b & 1], 0)
        return mask


class HomStream:
    """Iterator over homomorphisms with a truncation flag.

    Each map is marked ``checked``: a vertex takes a value only once AC-3
    has kept it for an edge to every assigned neighbour.  Domains are
    bitmasks of values, pruned through the ``_Supported`` table.  ``truncated``
    becomes True when a limit cut the enumeration short; it is reliable
    once iteration has finished.  With a ``budget``, the search ends once
    it would push more than that many frames past the first.
    """

    def __init__(self, dom, cod, limit=None, rng=None, budget=None):
        self.truncated = False
        self._gen = self._run(dom, cod, limit, rng, budget)

    def __iter__(self):
        return self._gen

    def _run(self, dom, cod, limit, rng, budget):
        n = dom.vertex_count
        emitted = 0
        all_values = range(cod.vertex_count)
        neighbours = [sorted(dom.neighbours(v)) for v in range(n)]
        supported = _Supported([sum(1 << a for a in cod.neighbours(b)) for b in all_values])

        def ac3(domains, queue):
            # arcs are directed pairs (x, y) with y adjacent to x
            while queue:
                x, y = queue.pop()
                dx = domains[x]
                keep = dx & supported[domains[y]]
                if keep != dx:
                    if not keep:
                        return False
                    domains[x] = keep
                    queue.extend([(z, x) for z in neighbours[x] if z != y])
            return True

        full = (1 << cod.vertex_count) - 1
        looped = sum(1 << a for a in all_values if cod.has_edge(a, a))
        domains = [looped if dom.has_edge(v, v) else full for v in range(n)]
        if not ac3(domains, [(x, y) for x in range(n) for y in neighbours[x]]):
            return

        # Depth-first search on an explicit stack of (vertex, domains, values
        # left) frames; each domain is a bitmask of values, and a frame's
        # values are its vertex's domain in increasing order, shuffled by the
        # rng if there is one.
        def frame(v, domains):
            d = domains[v]
            order = [a for a in all_values if d >> a & 1]
            if rng is not None:
                rng.shuffle(order)
            return v, domains, iter(order)

        assignment = [None] * n
        stack = [frame(0, domains)]
        pushed = 0
        while stack:
            v, domains, values = stack[-1]
            later = [(w, v) for w in neighbours[v] if w > v]
            for a in values:
                nxt = list(domains)
                nxt[v] = 1 << a
                if ac3(nxt, list(later)):
                    assignment[v] = a
                    break
            else:
                stack.pop()
                continue
            if v + 1 < n:
                if pushed == budget:
                    return
                pushed += 1
                stack.append(frame(v + 1, nxt))
                continue
            if limit is not None and emitted >= limit:
                self.truncated = True
                return
            emitted += 1
            hom = GraphHom(dom, cod, tuple(assignment), check=False)
            hom.checked = True
            yield hom


def enumerate_homs(dom, cod, limit=None):
    """All homomorphisms dom -> cod in lexicographic order of the value array."""
    if limit is not None and limit < 0:
        raise InvalidParameterError(f"limit must be >= 0, got {limit}")
    return HomStream(dom, cod, limit=limit)


def sample_homs(dom, cod, count, rng):
    """Distinct homomorphisms found by randomized backtracking restarts.

    Used when the full enumeration is too large; the rng drives the value
    order of each restart, so results are reproducible from the seed.  Each
    restart may push ``20 * dom.vertex_count`` search frames; one that needs
    more is a failed attempt, which bounds the heavy tail of unlucky value
    orders.
    """
    found = {}
    attempts = 0
    budget = 20 * dom.vertex_count
    while len(found) < count and attempts < 50 * count:
        attempts += 1
        sub = random.Random(rng.getrandbits(64))
        for hom in HomStream(dom, cod, limit=1, rng=sub, budget=budget):
            found[hom.values] = hom
            break
    return list(found.values())


def hom_to_json(f):
    """Serialize a polymorphism over a cycle power (the wire format)."""
    dom = f.domain
    if not isinstance(dom, PowerGraph):
        raise InvalidParameterError("only power-domain homomorphisms serialize")
    return {"domain_base": dom.base.vertex_count,
            "arity": dom.exponent,
            "codomain": f.codomain.vertex_count,
            "values": list(f.values)}


def hom_from_json(obj):
    base = cycle_graph(obj["domain_base"])
    cod = complete_graph(obj["codomain"])
    return GraphHom(power(base, obj["arity"]), cod, obj["values"])
