"""Finite graphs as symmetric binary relations, products, and homomorphisms.

Graphs live on the vertex set ``range(vertex_count)`` with an edge set of
ordered pairs closed under swapping.  Powers use the categorical product rule
and encode vertex tuples in mixed radix, row-major, with the first coordinate
most significant, so serialized polymorphisms are portable.
"""

import random
from functools import cached_property, lru_cache
from itertools import product
from operator import itemgetter

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

    @cached_property
    def _masks(self):
        """The bit 1 << v of each vertex v and the mask of its neighbours,
        for ``GraphHom``'s colour-class check; None when the masks, up to
        |V|^2 / 8 bytes, would pass 8 bytes an edge, where the edge loop is
        the cheaper check."""
        if self.vertex_count ** 2 > 64 * len(self.edges):
            return None
        return ([1 << v for v in self.vertices()],
                [sum(1 << w for w in adj) for adj in self._adj])

    @cached_property
    def _non_neighbours(self):
        """Each vertex, mapped to the vertices it has no edge to."""
        return {v: tuple(w for w in self.vertices() if w not in adj)
                for v, adj in enumerate(self._adj)}

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
        # (m, mapping) -> the power base^m and a reader of the ``_gather``
        # table of the minor along mapping, filled by ``minor``
        self._minors = {}
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
    the map is a minor of a checked one.  The check accepts by colour
    classes where it can (``_preserves_edges``); otherwise, and to reject,
    it runs over the edges, naming the first one not preserved.
    """

    __slots__ = ("domain", "codomain", "values", "checked")

    def __init__(self, domain, codomain, values, check=True):
        values = tuple(values)
        if len(values) != domain.vertex_count:
            raise InvalidParameterError("value array length mismatch")
        if check and not _preserves_edges(domain, codomain, values):
            for (u, v) in domain.edges:
                if (values[u], values[v]) not in codomain.edges:
                    raise InvalidParameterError(
                        f"edge ({u},{v}) not preserved: ({values[u]},{values[v]}) missing")
        self.domain = domain
        self.codomain = codomain
        self.values = values
        self.checked = check

    @classmethod
    def _known(cls, domain, codomain, values):
        """A map whose edges are known to be preserved, with its value tuple
        taken as it is: no copy, no length check, no edge check."""
        hom = cls.__new__(cls)
        hom.domain, hom.codomain, hom.values, hom.checked = domain, codomain, values, True
        return hom

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


_INT = frozenset({int})


def _preserves_edges(domain, codomain, values):
    """True when every value is an int in ``range(codomain.vertex_count)``
    and the map sends each edge of the domain to one of the codomain.

    ``forbidden[c]`` ORs the bits of the vertices seen so far whose value
    has no edge to c; each vertex v adds its bit to the masks of the values
    its value has no edge to, then fails if it has a neighbour in
    ``forbidden[values[v]]``.  Edges are symmetric, so every edge is tested
    at its later end.  False says only that the edge loop must decide: a
    value is not such an int, or an edge is not preserved, or the domain's
    masks or the codomain's k^2 non-neighbours would cost more than the
    edge loop.
    """
    k = codomain.vertex_count
    masks = domain._masks
    if (masks is None or k * k > 64 * len(domain.edges)
            or not _INT.issuperset(map(type, values))):
        return False
    others = codomain._non_neighbours
    forbidden = [0] * k
    try:
        for bit, near, c in zip(*masks, values):
            for d in others[c]:  # a KeyError for a value out of range
                forbidden[d] |= bit
            if near & forbidden[c]:
                return False
    except KeyError:
        return False
    return True


def minor(f, pi):
    """The pi-minor of a polymorphism: substitute variables along pi.

    Vertex ys of base^m takes the value of f at (ys[pi(1)], ..., ys[pi(n)]),
    read through the ``_gather`` table of encoded source indices, which the
    domain keeps, with the power base^m, under (pi.m, pi.mapping): one
    lookup per call.
    The table carries every edge of base^m onto an edge of base^n, so the
    minor of a checked homomorphism needs no edge check of its own; the
    minor of an unchecked one is checked edge by edge.
    """
    dom = f.domain
    if not isinstance(dom, PowerGraph) or dom.exponent != pi.n:
        raise InvalidParameterError("minor arity does not match the domain power")
    key = (pi.m, pi.mapping)
    found = dom._minors.get(key)
    if found is None:
        target = power(dom.base, pi.m)
        table = _gather(dom, target, pi.mapping)
        # an itemgetter of two or more indices returns a tuple of exactly
        # their number, as a list would, and of one index the bare item
        pick = itemgetter(*table) if len(table) > 1 else lambda vs, k=table[0]: (vs[k],)
        found = dom._minors[key] = (target, pick)
    target, pick = found
    values = pick(f.values)
    if f.checked:
        return GraphHom._known(target, f.codomain, values)
    return GraphHom(target, f.codomain, values)


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


@lru_cache(maxsize=8)
def _search_tables(dom, cod, fail_first):
    """The fixed inputs of ``_search``: the neighbour mask ``near[b]`` of
    each value, the starting domain of each vertex (the looped values at a
    looped vertex, every value elsewhere), and the neighbours each
    assignment checks forward.  In index order those are the later
    neighbours; fail-first checks all of them, and an assigned one is left
    as it is, since its value has an edge to every value it lets its
    neighbours keep."""
    values = range(cod.vertex_count)
    near = tuple(sum(1 << a for a in cod.neighbours(b)) for b in values)
    looped = sum(1 << a for a in values if cod.has_edge(a, a))
    domains = tuple(looped if dom.has_edge(v, v) else (1 << cod.vertex_count) - 1
                    for v in dom.vertices())
    checked = tuple(tuple(sorted(w for w in dom.neighbours(v)
                                 if w > v or (fail_first and w != v)))
                    for v in dom.vertices())
    return near, domains, checked


def _search(dom, cod, rng, budget):
    """The value arrays of the homomorphisms dom -> cod, by depth-first
    search with forward checking (Haralick and Elliott 1980).

    A domain is a bitmask of values.  Assigning a to v ANDs ``near[a]`` into
    the domain of each unassigned neighbour, and a domain left empty fails
    the value; the masks it narrowed go on a trail, which backtracking
    unwinds, so no frame copies the domains.  Without an rng, vertices go
    in index order and values ascend, so the arrays come in lexicographic
    order.  With one, each step takes an unassigned vertex of smallest
    domain (Brelaz 1979), from a bucket queue indexed by domain size, with
    ties broken by the rng, and tries its values in shuffled order.  With a
    ``budget``, the search ends once it would push more than that many
    frames past the first.
    """
    near, domains, checked = _search_tables(dom, cod, rng is not None)
    if not all(domains):  # a looped vertex, and no looped value
        return
    masks = list(domains)
    trail = []  # (vertex, its mask before a value narrowed it)
    stack = []  # (vertex, its domain, values left, trail length) per frame
    queue = None
    if rng is not None:
        # queue[s] lists the unassigned vertices whose domain has s values,
        # and at[v] is the place of v in its list
        queue = [[] for _ in range(cod.vertex_count + 1)]
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
            v = len(stack)  # the frames below hold vertices 0 to v - 1
        else:
            for bucket in queue:  # the first that is not empty
                if bucket:
                    break
            v = bucket[rng.randrange(len(bucket))]
            dequeue(v, masks[v])
        d = masks[v]
        values = [a for a in range(cod.vertex_count) if d >> a & 1]
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
                masks[v] = 1 << a  # a singleton, which no later check narrows
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


class HomStream:
    """Iterator over homomorphisms with a truncation flag.

    The maps come from ``_search``, in lexicographic order of the value
    array without an rng and in a seeded fail-first order with one; each is
    marked ``checked``, since forward checking gives a vertex only values
    with an edge to the value of every assigned neighbour.  ``truncated``
    becomes True when a limit cut the enumeration short; it is reliable once
    iteration has finished.  With a ``budget``, the search ends once it
    would push more than that many frames past the first.
    """

    def __init__(self, dom, cod, limit=None, rng=None, budget=None):
        self.truncated = False
        self._gen = self._run(dom, cod, limit, rng, budget)

    def __iter__(self):
        return self._gen

    def _run(self, dom, cod, limit, rng, budget):
        for emitted, values in enumerate(_search(dom, cod, rng, budget)):
            if emitted == limit:
                self.truncated = True
                return
            yield GraphHom._known(dom, cod, values)


def enumerate_homs(dom, cod, limit=None):
    """All homomorphisms dom -> cod in lexicographic order of the value array."""
    if limit is not None and limit < 0:
        raise InvalidParameterError(f"limit must be >= 0, got {limit}")
    return HomStream(dom, cod, limit=limit)


def sample_homs(dom, cod, count, rng):
    """Distinct homomorphisms found by randomized fail-first restarts.

    Used when the full enumeration is too large; the rng seeds each restart,
    which drives its ties and value orders, so results are reproducible
    from the seed.  Each restart may push ``2 * dom.vertex_count`` search
    frames; one that needs more is a failed attempt, which cuts off the
    heavy tail of unlucky orders (Gomes, Selman and Kautz 1998).
    """
    found = {}
    attempts = 0
    budget = 2 * dom.vertex_count
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
