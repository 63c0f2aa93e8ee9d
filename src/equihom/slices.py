"""Heights, coordinate edge classes, generalized diagonals, and experiments.

The height of a torus-grid vertex is its number of odd coordinates; every
edge raises height, and coordinate edges raise it by exactly one.  A
generalized diagonal is a cyclic path in a torus power whose vertices sit at
two complementary heights; pairing it with a free coordinate embeds a 2-torus
(a slice) along which colour-swapping edges can be located.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, prod

from . import __version__
from .errors import (CapacityExceededError, InvalidParameterError,
                     InvariantViolationError)
from .graphs import complete_graph, power, sample_homs, enumerate_homs
from .degrees import OddVector, torus_tables
from .homcomplexes import CyclePipeline
from .simplicial import CELL_LIMIT, _check_vertex_count

# maps drawn per arity once the survey samples, and maps per arity whose
# swap fractions it tabulates
SAMPLE_SIZE = 40
SWAP_STAT_MAPS = 3


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


def height(v):
    """Number of odd coordinates of a torus-grid vertex tuple."""
    return sum(x % 2 for x in v)


def _is_edge(u, v, L):
    """Is [u, v] an edge of gamma(L)^m, i.e. v raises a set of even coordinates."""
    changed = [i for i in range(len(u)) if u[i] != v[i]]
    if not changed:
        return False
    for i in changed:
        if u[i] % 2 != 0:
            return False
        if (v[i] - u[i]) % L not in (1, L - 1):
            return False
    return True


class GeneralizedDiagonal:
    """A cyclic path in gamma(L)^(ambient) at two complementary heights.

    ``path`` has one vertex per vertex of gamma(period); consecutive vertices
    are joined by an edge, the vertex half a period along is the antipode, and
    the heights h and ambient - h alternate (even path positions low).
    """

    def __init__(self, L, ambient, path):
        self.L = L
        self.ambient = ambient
        self.path = tuple(tuple(v) for v in path)
        self.period = len(self.path)
        self.validate()

    @property
    def low_height(self):
        return height(self.path[0])

    def validate(self):
        L, m, path = self.L, self.ambient, self.path
        if self.period < 4 or self.period % 4:
            raise InvariantViolationError("period must be a positive multiple of 4")
        if any(len(v) != m for v in path):
            raise InvariantViolationError("path vertex of wrong length")
        h = height(path[0])
        hi = m - h
        if not h < hi:
            raise InvariantViolationError("low height must be below its complement")
        for k, v in enumerate(path):
            expect = h if k % 2 == 0 else hi
            if height(v) != expect:
                raise InvariantViolationError(
                    f"height {height(v)} at position {k}, expected {expect}")
        for k in range(self.period):
            a, b = path[k], path[(k + 1) % self.period]
            low, high = (a, b) if k % 2 == 0 else (b, a)
            if not _is_edge(low, high, L):
                raise InvariantViolationError(f"positions {k},{k+1} are not an edge")
        half = self.period // 2
        for k in range(self.period):
            shifted = tuple((x + L // 2) % L for x in path[k])
            if path[(k + half) % self.period] != shifted:
                raise InvariantViolationError(f"antipodality fails at position {k}")


def zeta0(n, h, L):
    """The explicit generalized diagonal of period 3L in gamma(L)^(n-1).

    Built from the three-step block: raise the third and fourth coordinate
    blocks, then raise the first and lower the fourth, then raise the second
    and fourth; every three steps the whole vertex advances by one along the
    diagonal.  Valid whenever 3h <= n-1 and 2h < n-1; a path of more than
    CELL_LIMIT entries in all is refused before any vertex is built.
    """
    if L < 4 or L % 4:
        raise InvalidParameterError("L must be a multiple of 4")
    m = n - 1
    if n < 2 or h < 0 or 3 * h > m or 2 * h >= m:
        raise InvalidParameterError("need 3h <= n-1 and 2h < n-1")
    if 3 * L * m > CELL_LIMIT:
        raise CapacityExceededError(f"a diagonal of {3 * L} vertices in gamma({L})^{m} "
                                    f"has {3 * L * m} entries (limit {CELL_LIMIT})")
    tail = m - 3 * h

    def block(a, b, c, d):
        return (a,) * h + (b,) * h + (c,) * h + (d,) * tail

    base = [block(1, 0, 0, 0), block(1, 0, 1, 1), block(2, 0, 1, 0)]
    path = []
    for k in range(3 * L):
        q, r = divmod(k, 3)
        path.append(tuple((x + q) % L for x in base[r]))
    return GeneralizedDiagonal(L, m, path)


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


def swap_fraction(bits, L, n, i, h):
    """Fraction of colour-swapping edges in E_i(h) together with E_i(n-1-h),
    for the blue bits of gamma(L)^n in row-major order."""
    total = swaps = 0
    for hh in sorted({h, n - 1 - h}):
        for u, v in iter_coordinate_edges(L, n, i, hh):
            total += 1
            swaps += bits[u] != bits[v]
    return Fraction(swaps, total)


def chain_alternation_counts(L, n, rng, samples, lanes, maps):
    """Colour alternations along ``samples`` random maximal chains of gamma(L)^n.

    Chain c reads map k = c % maps, whose colour at row-major position p
    is ``lanes[p*maps + k]``; the walk adds the map index to the base position
    once and compares each byte with the one before, building no chain.
    Returns the most alternations on one chain and the number of chains
    with more than two.

    The chains are uniform top simplices: an even base vertex drawn one
    coordinate at a time (``rng.randrange(0, L, 2)``), an order in which to
    raise the coordinates (``rng.shuffle``) and a direction for each raise
    (``rng.choice((1, -1))``).  The same draws are taken in the same order
    straight from ``rng.getrandbits``, as ``random.Random._randbelow``
    takes them: below(m) draws ``m.bit_length()`` bits until the value is
    below m, a base coordinate is 2*below(L//2), the shuffle is below(i+1)
    for i from n-1 down to 1, and a direction is below(2) (0 is +1).  So
    the chains, and the state ``rng`` is left in, are those of the calls.
    """
    getrandbits = rng.getrandbits
    half = L // 2
    width = half.bit_length()
    strides = [L ** j * maps for j in range(n - 1, -1, -1)]
    steps = [(stride, (L - 1) * stride) for stride in strides]
    swaps = [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
    coordinates = range(n)
    worst = violations = k = 0
    for _ in range(samples):
        # an even coordinate steps to x + 1, or to x - 1, which is L - 1 at 0
        position, downs = k, []
        for stride, wrap in steps:
            r = getrandbits(width)
            while r >= half:
                r = getrandbits(width)
            if r:
                position += 2 * r * stride
                downs.append(-stride)
            else:
                downs.append(wrap)
        order = list(coordinates)
        for i, bits in swaps:
            r = getrandbits(bits)
            while r > i:
                r = getrandbits(bits)
            order[i], order[r] = order[r], order[i]
        colour = lanes[position]
        alternations = 0
        for j in order:
            r = getrandbits(2)
            while r > 1:
                r = getrandbits(2)
            position += downs[j] if r else strides[j]
            byte = lanes[position]
            if byte != colour:
                colour = byte
                alternations += 1
        if alternations > worst:
            worst = alternations
        if alternations > 2:
            violations += 1
        k += 1
        if k == maps:
            k = 0
    return worst, violations


def arity_experiment(ell, n_max, seed=0, chain_samples=4000, enumerate_cutoff=3000):
    """Survey polymorphism degree weights and chain alternations up to n_max.

    Enumerates polymorphisms exhaustively while the count stays below the
    cutoff and falls back to seeded random sampling beyond; for each map it
    records the weight of its degree vector, counts colour alternations along
    sampled maximal chains of the torus (the sphere target caps these at two),
    and tabulates swap fractions per coordinate and height for a few maps.

    The maps of an arity are read once, all together: ``pipeline.mu_lanes``
    gives one byte per map at every vertex of gamma(4*ell)^n in row-major
    order, and one ``TorusTables.lane_degrees`` pass over the bytes at the
    slice positions gives every degree vector.  The checks are those of
    ``degrees.phi``: each f is a polymorphism, the check of t stands for
    the validity and equivariance of mu(f) (see ``CyclePipeline``), and
    the degree vector has odd weight.  The chains of an arity are walked
    by one call of ``chain_alternation_counts`` over the same bytes, chain
    c reading map c % count; it takes the draws of ``randrange``,
    ``shuffle`` and ``choice`` straight from ``rng.getrandbits``, so the
    report is that of the per-chain sampler.  Only the first
    ``SWAP_STAT_MAPS`` maps are read by ``swap_fraction``, each on every
    count-th byte of the lanes from its own.  No torus is built.

    With H(k) the exact number of polymorphisms at arity k and H(0) = 0,
    arity n is sampled without enumerating when arity n-1 was truncated,
    or when n*H(n-1) - C(n,2)*H(n-2) > enumerate_cutoff: either way
    H(n) > enumerate_cutoff, so the enumeration would be cut short.  The
    enumeration draws nothing from the rng, so the report is the same.
    Torus sizes are checked against the cell limit before any work.
    """
    if ell < 3 or ell % 2 == 0:
        raise InvalidParameterError("need an odd cycle length >= 3")
    if n_max < 1:
        raise InvalidParameterError(f"n_max must be >= 1, got {n_max}")
    if chain_samples < 0:
        raise InvalidParameterError(f"chain_samples must be >= 0, got {chain_samples}")
    L = 4 * ell
    for n in range(2, n_max + 1):  # the first torus over the cell limit
        check_cell_limit((L,) * n)
    rng = random.Random(seed)
    pipeline = CyclePipeline(ell)
    k4 = complete_graph(4)
    report = {
        "tool": "equihom",
        "version": __version__,
        "seed": seed,
        "t_fingerprint": pipeline.t.fingerprint(),
        "parameters": {"ell": ell, "n_max": n_max, "sample_size": SAMPLE_SIZE,
                       "chain_samples": chain_samples,
                       "enumerate_cutoff": enumerate_cutoff},
        "per_n": [],
        "truncated": False,
    }
    # H(n-1) and H(n-2) while no arity was truncated; no constant map is a
    # hom into the loopless K_4, so H(0) = 0, and C(1, 2) = 0
    below, two_below = 0, 0
    for n in range(1, n_max + 1):
        dom = power(pipeline.base, n)
        # The maps that depend only on a set S of n-1 coordinates are the homs
        # at arity n-1 composed with the projection to S, since every edge of
        # C_ell^(n-1) lifts to one of C_ell^n; two such sets share the maps
        # that depend only on S & T, H(n-2) of them.  By Bonferroni the n sets
        # hold at least n*H(n-1) - C(n,2)*H(n-2) maps, and H(n) >= H(n-1).
        polys = None
        if (not report["truncated"]
                and n * below - comb(n, 2) * two_below <= enumerate_cutoff):
            stream = enumerate_homs(dom, k4, limit=enumerate_cutoff)
            polys = list(stream)
            if stream.truncated:
                polys = None
        if polys is None:
            mode = "sampled"
            report["truncated"] = True
            inspected = sample_homs(dom, k4, SAMPLE_SIZE, rng)
        else:
            mode = "exhaustive"
            below, two_below = len(polys), below
            inspected = polys
        tables = torus_tables(L, n)
        count, blob, alphas = len(inspected), b"", []
        if inspected:
            blob = pipeline.mu_lanes(inspected)
            alphas = tables.lane_degrees([blob[p * count:(p + 1) * count]
                                          for p in tables.positions])
        weights = {}
        for bits in alphas:
            weight = OddVector(bits).weight
            weights[weight] = weights.get(weight, 0) + 1
        chains_done = chain_samples if count else 0
        max_alts, violations = chain_alternation_counts(L, n, rng, chains_done,
                                                        blob, count)
        swap_stats = {}
        for k, alpha in enumerate(alphas[:SWAP_STAT_MAPS]):
            bits = blob[k::count]
            for i in range(1, n + 1):
                if alpha[i - 1] != 1:
                    continue
                for h in range(0, (n - 1) // 2 + 1):
                    frac = swap_fraction(bits, L, n, i, h)
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
