"""Chain complexes of free Z[Z2]-modules and torus cohomology.

A free cellular involution makes the cellular chain complex a complex of free
modules over the group ring Z[Z2] = Z[nu]/(nu^2 - 1), with one generator per
cell orbit.  Bredon cohomology of a free Z2-CW complex does not depend on the
cell structure (Eilenberg and Zilber, Amer. J. Math. 1953), so the torus
gamma(L)^n is read off the cubical torus C(L)^n, and every group of it off
the smallest one, C(2)^n, whose circle has two vertices and two edges and
4^n cells in all.  One equivariant contraction of the circle C(L) onto C(2)
ties them, checked on the 2L cells of C(L) each time a group is read
(``_check_contraction``): a tensor product of contractions is again a
contraction (Eilenberg and Mac Lane, Ann. Math. 1953), so C(L)^n contracts
onto C(2)^n under the half shift of any set of coordinates, and the orbit
complexes of the two, in every coefficient ring, have the same cohomology.
A cell of C(L)^n is the integer whose base-2L digits are its circle codes.

Mapping equivariantly into a coefficient module turns the orbit complex
into integer coboundary matrices, and each face of an orbit representative
is written straight into them: a face at representative k puts its sign at
column k, a face at the mate of k puts its sign times the image of nu, -1
under the sign representation and +1 under the trivial one.  Under the
group ring itself a representative's face goes to column 2k and a mate's to
2k + 1, and the cell's second row is its first with each column c moved to
c ^ 1, so each entry a + b*nu becomes the block [[a, b], [b, a]].  Smith normal forms of those matrices give the
Bredon cohomology groups; for the n-torus with the diagonal action and sign
coefficients the answer in degree d is an elementary abelian 2-group of rank
C(n-1, d-1).  The quotient-projection check reproduces it as the cokernel of
the pullback along the double cover, read off the cohomology of the mapping
cone of the pullback with the same sparse Smith form.  It builds no quotient:
under the first-coordinate half shift the trivial coefficients give the
cochains of the quotient and the group ring those of the torus, and the
pullback sends each orbit to its two cells.

The coboundaries of a complex are reduced from the top down, and each one is
cleared first: the rows of delta_k that are unit pivot columns of
delta_(k+1) are dropped before its Smith form is taken.  This is the clearing
("twist") of Chen and Kerber, "Persistent homology computation with a twist"
(EuroCG 2011), and by the Gaussian-elimination lemma for chain complexes
(Skoldberg, "Morse theory from an algebraic viewpoint", Trans. AMS 2006) it
keeps every cohomology group and every invariant factor, provided
delta_(k+1) delta_k = 0, which is checked once, where a coboundary list
becomes a ``_Coboundaries``.
"""

from functools import lru_cache
from itertools import compress, repeat
from math import comb
from typing import NamedTuple

from .errors import (InvalidInputError, InvalidParameterError, InvariantViolationError,
                     NotFreeActionError)
from .simplicial import CELL_LIMIT, _check_side, _check_vertex_count
from .snf import SparseMat, smith_normal_form

COEFFICIENTS = ("Zminus", "Zplus", "ZZ2")

# the most cells a cubical torus may have: C(2)^11 has CELL_LIMIT of them,
# but its coboundaries, one dict per row, would need about 3 GB
CUBE_CELL_LIMIT = CELL_LIMIT >> 2


class EquivariantChainComplex:
    """The orbit complex in one coefficient ring: representatives per degree
    and the ring's coboundaries.

    ``reps[d]`` lists one d-cell per orbit, the lesser of the cell and its
    mate, as its integer code.  ``coboundaries[d - 1]`` is the SparseMat
    delta^(d-1) from equivariant (d-1)-cochains to d-cochains: one row per
    orbit of ``reps[d]``, or two under ZZ2.
    """

    def __init__(self, reps, coboundaries):
        self.reps = reps
        self.coboundaries = coboundaries

    def rank(self, d):
        return len(self.reps[d]) if d < len(self.reps) else 0


class CohomologyGroup(NamedTuple):
    """Free rank plus torsion coefficients (each dividing the next)."""

    free_rank: int
    torsion: tuple

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def elementary_two_group(rank):
    return CohomologyGroup(0, (2,) * rank)


class _Coboundaries:
    """A coboundary list that composes to zero, with its Smith forms taken
    once each.

    The constructor refuses a list with delta_(k+1) delta_k != 0 for some k,
    naming k, so every ``_Coboundaries`` is a complex.  Under ZZ2 this is
    the check over Z[Z2], the regular representation being faithful; under
    Zminus or Zplus it checks the image under that character, which is the
    complex whose Smith forms are read.

    ``smith(k)`` is the Smith form of delta_k with its rows at the unit pivot
    columns of ``smith(k + 1)`` removed, so every Smith form below the top
    one is taken of a cleared matrix.  A unit pivot (b, t) of delta_(k+1)
    pairs the (k+2)-cochain b with the (k+1)-cochain t, and the
    Gaussian-elimination lemma (Skoldberg 2006) removes both from the
    complex: delta_(k+1) becomes its Schur complement, which is what the
    sparse Smith phase leaves after that pivot, and delta_k loses row t and
    nothing else.  Applied to the p pivots in turn it leaves every group
    unchanged, and the invariant factors of the cleared delta_k equal those
    of delta_k:

    - the torsion of delta_k is that of coker delta_k, which is the torsion
      of H^(k+1) because im delta_(k+1) is free, and the lemma keeps
      H^(k+1);
    - the rank stays: dim C^(k+1) and the rank of the Schur complement of
      delta_(k+1) both fall by p, so their difference, rank delta_k plus the
      free rank of H^(k+1), is unchanged, and with H^(k+1) so is rank
      delta_k.

    The lemma holds for complexes only, as checked.  The top coboundary,
    with none above it, is taken whole.
    """

    def __init__(self, deltas):
        # delta_(k+1) delta_k = 0 for every k, one row of the product at a time
        for k, (lower, upper) in enumerate(zip(deltas, deltas[1:])):
            if upper.ncols != lower.nrows:
                raise InvalidInputError(f"delta_{k + 1} and delta_{k} do not compose")
            for row in upper.rows:
                acc = {}
                for i, v in row.items():
                    for j, w in lower.rows[i].items():
                        acc[j] = acc.get(j, 0) + v * w
                if any(acc.values()):
                    raise InvariantViolationError(
                        f"coboundaries do not compose to zero: delta_{k + 1} delta_{k} != 0")
        self.deltas = deltas
        self._smith = {}

    def smith(self, k):
        if k not in self._smith:
            delta = self.deltas[k]
            if k + 1 < len(self.deltas):
                cleared = set(self.smith(k + 1).pivot_columns)
                delta = SparseMat(delta.nrows - len(cleared), delta.ncols,
                                  [r for i, r in enumerate(delta.rows)
                                   if i not in cleared])
            self._smith[k] = smith_normal_form(delta)
        return self._smith[k]

    def cohomology(self, d):
        if d < 0:
            raise InvalidParameterError("negative degree")
        if not self.deltas or d > len(self.deltas):
            raise InvalidParameterError("no matrix describes this degree")
        if d < len(self.deltas):
            dim_d, rank_d = self.deltas[d].ncols, self.smith(d).rank
        else:
            dim_d, rank_d = self.deltas[d - 1].nrows, 0
        rank_prev, torsion = 0, ()
        if d:
            prev = self.smith(d - 1)
            rank_prev, torsion = prev.rank, prev.torsion
        return CohomologyGroup(dim_d - rank_d - rank_prev, torsion)


def cohomology(deltas, d):
    """H^d = ker(delta_d) / im(delta_(d-1)) from the coboundary list.

    ``deltas[k]`` maps k-cochains to (k+1)-cochains; indices beyond the list
    are zero maps.  A list whose consecutive coboundaries do not compose to
    zero is refused (``_Coboundaries``).
    """
    return _Coboundaries(deltas).cohomology(d)


def _check_cube(L, n, coefficients):
    """Refuse an unknown coefficient ring, a circle C(L) without a free half
    turn (L odd or below 2) or a C(L)^n over CUBE_CELL_LIMIT, before
    anything is built.  The cell limit is read on (2L)^n one factor at a
    time, so a large n fails at once."""
    if coefficients not in COEFFICIENTS:
        raise InvalidParameterError(f"coefficients must be one of {COEFFICIENTS}")
    if L < 2 or L % 2:
        raise InvalidParameterError(f"C(L) needs an even L >= 2, got {L}")
    _check_vertex_count(repeat(2 * L, n), f"C({L})^{n}", "cells", CUBE_CELL_LIMIT)


def equivariant_complex(L, n, coefficients, moved=None):
    """The orbit complex of the cubical torus C(L)^n under the half shift of
    the coordinates in ``moved``, all of them by default, with coboundaries
    in the ring ``coefficients``.

    A circle cell is a code c < 2L: vertex c/2, or the edge leaving
    (c - 1)/2.  A cell is the integer of its n codes in base 2L, first
    coordinate first, so each dimension is listed in integer order, the
    order of code tuples.  The mate adds L mod 2L to each moved code, keeping
    edge directions, and the representative, the lesser of the pair, has its
    first moved code below L; so only a shift of no coordinate fixes a cell,
    and it is refused.
    """
    _check_cube(L, n, coefficients)
    span, size = 2 * L, (2 * L) ** n
    strides = [span ** (n - 1 - i) for i in range(n)]
    turned = [s for i, s in enumerate(strides) if moved is None or i in moved]
    if not turned:
        raise NotFreeActionError(f"the half shift of C({L})^{n} fixes {L ** n} of its 0-cells")
    kinds = b"\0"  # per code, twice its dimension, plus 1 unless it is a representative
    for s in reversed(strides):
        kinds = b"".join(kinds.translate(bytes(range(k, 256)) + bytes(k)) for k in
                         [2 * (c & 1) + (c >= L and s == turned[0]) for c in range(span)])
    reps = [list(compress(range(size), kinds.translate(bytes(v == 2 * d for v in range(256)))))
            for d in range(n + 1)]
    # the column of each cell in its dimension: k, or 2k under ZZ2, at the
    # k-th representative; at its mate k under Zplus, 2k + 1 under ZZ2, and
    # ~k under Zminus, where nu turns the sign
    step = 2 if coefficients == "ZZ2" else 1
    mate_columns = {"Zminus": lambda m: range(-1, ~m, -1), "Zplus": range,
                    "ZZ2": lambda m: range(1, 2 * m, 2)}[coefficients]
    index = [0] * size
    for chosen in reps:
        for c, k in zip(chosen, mate_columns(len(chosen))):
            index[c] = k
    for s in turned:  # the half turn of each moved coordinate carries them to the mates
        for b in range(0, size, 2 * L * s):
            index[b:b + 2 * L * s] = index[b + L * s:b + 2 * L * s] + index[b:b + L * s]
    for chosen in reps:
        for c, k in zip(chosen, range(0, step * len(chosen), step)):
            index[c] = k
    return EquivariantChainComplex(reps, [_cube_coboundary(chosen, step * len(below), index,
                                                           span, strides, step)
                                          for below, chosen in zip(reps, reps[1:])])


def _cube_coboundary(cells, ncols, index, span, strides, step):
    """The coboundary rows of the d-cell codes ``cells`` over ``ncols``
    columns: row j is the Koszul-signed sum of next vertex minus vertex over
    the edge factors of cell j, each face at its column in ``index`` (~k for
    column k with the sign turned), equal columns summed.  An edge code e at
    stride s has the faces cell - s and cell + s, or cell - e*s where e is
    the top code span - 1.  Under ZZ2 (``step`` 2) each row is followed by
    its nu-multiple, the row with each column c moved to c ^ 1."""
    rows = []
    for cell in cells:
        row, sign, rest = {}, 1, cell
        for s in strides:
            e, rest = divmod(rest, s)
            if e & 1:
                for face, v in ((cell + s if e + 1 < span else cell - e * s, sign),
                                (cell - s, -sign)):
                    k = index[face]
                    if k < 0:
                        k, v = ~k, -v
                    v += row.get(k, 0)
                    if v:
                        row[k] = v
                    else:
                        del row[k]
                sign = -sign
        rows.append(row)
        if step == 2:
            rows.append({c ^ 1: v for c, v in row.items()})
    return SparseMat(step * len(cells), ncols, rows)


def _chain(terms, out=None):
    """Add the (code, coefficient) pairs ``terms`` into the chain ``out``, a
    new one by default, summing equal codes and dropping zeros; a chain of a
    circle is a dict from code to coefficient."""
    out = {} if out is None else out
    for c, v in terms:
        v += out.get(c, 0)
        if v:
            out[c] = v
        else:
            out.pop(c, None)
    return out


def _image(images, chain):
    """The image of a chain under the map taking each code c to ``images(c)``."""
    return _chain((k, v * w) for c, v in chain.items() for k, w in images(c).items())


def _circle_boundary(chain, span):
    """The boundary of a chain of the circle of ``span`` codes: each edge code
    e goes to its next vertex (e + 1) mod span minus its vertex e - 1, as in
    ``_cube_coboundary``."""
    return _chain(term for c, v in chain.items() if c & 1
                  for term in (((c + 1) % span, v), (c - 1, -v)))


def _turn(chain, span):
    """The half turn of a chain of the circle of ``span`` codes."""
    return {(c + span // 2) % span: v for c, v in chain.items()}


def _circle_contraction(L):
    """The equivariant contraction (f, g, step) of the circle C(L) onto C(2),
    on the representatives: the codes below L of C(L), and 0 and 1 of C(2).
    Each map extends to the mates by the half turn, so it commutes with it.

    C(L) has the vertex v_i at code 2i and the edge e_i from v_i to v_(i+1)
    at 2i + 1, and C(2) has w_0, a_0, w_1, a_1 at codes 0 to 3; a chain is a
    dict from code to coefficient.

    - ``f(c)`` sends every vertex of the first half to w_0, its last edge
      e_(L/2-1) to a_0 and every other edge to 0;
    - ``g[c]`` sends w_0 to v_0 and a_0 to the sum of the edges of the first
      half;
    - the homotopy h is 0 on edges and sends v_i to the sum of the edges
      from v_0 to v_i, given by its steps: h(v_i) is the sum of ``step(k)``
      over k <= i, the empty chain at v_0 and e_(k-1) after it.
    """
    def f(c):
        if c & 1:
            return {1: 1} if c == L - 1 else {}
        return {0: 1}

    def step(i):
        return {2 * i - 1: 1} if i else {}

    return f, ({0: 1}, dict.fromkeys(range(1, L, 2), 1)), step


@lru_cache(maxsize=None)
def _check_contraction(L):
    """Check that ``_circle_contraction(L)`` contracts the circle C(L) onto
    C(2) equivariantly, in O(L) steps, or raise an
    ``InvariantViolationError``: f and g are chain maps that keep the
    dimension, fg = id, h raises the dimension by one, and
    id - gf = dh + hd.

    Every map commutes with the half turn, and so does the boundary, so each
    identity is checked on the representatives only.  h is read as the
    running sum of its steps along the first half.  On the edge e_(i-1), hd
    is h(v_i) - h(v_(i-1)), which is step i, and dh is 0 since C(L) has no
    2-cells; on v_i, hd is 0 and dh is the running sum of the steps'
    boundaries.  By the tensor product of contractions, C(L)^n then
    contracts onto C(2)^n under the half turn of any set of its coordinates.
    Each L that passed is remembered, one int for the life of the process,
    so it is checked once; a failure raises and is not cached.
    """
    f, g, step = _circle_contraction(L)
    span = 2 * L

    def fail(what, c):
        raise InvariantViolationError(f"C({L}) does not contract onto C(2): {what} at code {c}")

    def mates(image, size, target):
        return lambda c: image(c) if 2 * c < size else _turn(image(c - size // 2), target)

    f_all, g_all = mates(f, span, 4), mates(g.__getitem__, 4, span)
    for name, image, size, target in (("f", f_all, span, 4), ("g", g_all, 4, span)):
        for c in range(size // 2):
            chain = image(c)
            if any((k ^ c) & 1 for k in chain):
                fail(f"{name} changes the dimension", c)
            if _circle_boundary(chain, target) != _image(image, _circle_boundary({c: 1}, size)):
                fail(f"{name} is no chain map", c)
    for c in (0, 1):
        if _image(f_all, g[c]) != {c: 1}:
            fail("fg is not the identity", c)

    def residue(c):  # (id - gf)(c)
        return _chain(((k, -v) for k, v in _image(g_all, f(c)).items()), {c: 1})

    h, dh = {}, {}
    for i in range(L // 2):
        now = step(i)
        if not all(k & 1 for k in now):
            fail("h does not raise the dimension", 2 * i)
        if i and now != residue(2 * i - 1):
            fail("id - gf != dh + hd", 2 * i - 1)
        _chain(now.items(), h)
        _chain(_circle_boundary(now, span).items(), dh)
        if dh != residue(2 * i):
            fail("id - gf != dh + hd", 2 * i)
    # the last edge of the half runs to v_(L/2), the mate of v_0
    if _chain(((k, -v) for k, v in h.items()), _turn(step(0), span)) != residue(L - 1):
        fail("id - gf != dh + hd", L - 1)


@lru_cache(maxsize=32)
def _torus_coboundaries(n, coefficients):
    return _Coboundaries(tuple(equivariant_complex(2, n, coefficients).coboundaries))


def bredon_torus(n, L, d, coefficients="Zminus"):
    """Equivariant cohomology of gamma(L)^n with the diagonal involution,
    read off the orbit complex of the cubical torus C(2)^n through the
    checked contraction of C(L) onto C(2); the coboundaries are built once
    per (n, coefficients), whatever L.

    With sign coefficients the expected value in degree d >= 1 is an
    elementary abelian 2-group of rank C(n-1, d-1).
    """
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    # before anything is built: the ring and the size of C(2)^n, the side
    # that gamma takes and the size of C(L), and then the contraction
    _check_cube(2, n, coefficients)
    _check_side(L)
    _check_vertex_count((2 * L,), f"C({L})", "cells")
    _check_contraction(L)
    if d > n:
        return CohomologyGroup(0, ())  # no cells above the torus dimension
    return _torus_coboundaries(n, coefficients).cohomology(d)


# the coboundary cache behind bredon_torus, reachable under the public name
bredon_torus.cache_clear = _torus_coboundaries.cache_clear


def expected_bredon(n, d):
    return elementary_two_group(comb(n - 1, d - 1)) if d >= 1 else CohomologyGroup(0, ())


def _mapping_cone(deltas_q, pullbacks, deltas_x):
    """Coboundaries of the mapping cone of a cochain map P: C(Q) -> C(X).

    Cone^e = C^(e+1)(Q) + C^e(X) for -1 <= e <= n, with
    D(a, b) = (-delta_Q a, P a + delta_X b).  Entry k of the returned list is
    D_(k-1), one block SparseMat whose rows and columns list the Q part first.
    The long exact sequence of the cone reads
    H^e(Q) -P*-> H^e(X) -> H^e(Cone) -> H^(e+1)(Q) -P*-> H^(e+1)(X).
    """
    n = len(pullbacks) - 1
    out = []
    for e in range(-1, n):
        shift = pullbacks[e + 1].ncols
        rows = []
        if e + 1 < n:
            rows.extend({j: -v for j, v in r.items()} for r in deltas_q[e + 1].rows)
        for r, p_row in enumerate(pullbacks[e + 1].rows):
            row = dict(p_row)
            if e >= 0:
                row.update((shift + j, v) for j, v in deltas_x[e].rows[r].items())
            rows.append(row)
        x_cols = pullbacks[e].nrows if e >= 0 else 0
        out.append(SparseMat(len(rows), shift + x_cols, rows))
    return out


@lru_cache(maxsize=2)
def _quotient_complexes(n):
    """The coboundaries of the torus C(2)^n, of its quotient by the
    first-coordinate half shift, and of the mapping cone of the pullback P
    between them, as ``_Coboundaries`` (X, Q, Cone), read off the orbit
    complex under that shift, built once in each ring.

    The shift is free, so the cochains of the quotient are the orbit complex
    with trivial coefficients and those of the torus are the same complex
    with group-ring coefficients (Brown, Cohomology of Groups, III.2): Zplus
    gives C(Q) with one cochain per orbit, ZZ2 gives C(X) in the basis
    (representative, mate), and P_k sends orbit i to rows 2i and 2i + 1.
    The cone's list composes to zero exactly when delta_Q and delta_X do and
    delta_X P = P delta_Q, so making its ``_Coboundaries`` is the cochain-map
    check.  The contraction of C(L) onto C(2) commutes with the half turn,
    so its tensor powers contract C(L)^n onto C(2)^n under the shift of the
    first coordinate alone, and since P comes from the coefficients it
    commutes with them: the three complexes of every L have the cohomology
    of these.  Cached per n, so the degrees of one quotient check, and the
    quotient checks of every L, share their Smith forms.
    """
    q = equivariant_complex(2, n, "Zplus", moved=(0,))
    pullbacks = [SparseMat(2 * m, m, [{i: 1} for i in range(m) for _ in (0, 1)])
                 for m in map(q.rank, range(n + 1))]
    deltas_q = q.coboundaries
    del q  # its representatives are dropped before the torus is built
    deltas_x = equivariant_complex(2, n, "ZZ2", moved=(0,)).coboundaries
    return (_Coboundaries(deltas_x), _Coboundaries(deltas_q),
            _Coboundaries(_mapping_cone(deltas_q, pullbacks, deltas_x)))


def quotient_pstar_check(n, L, d):
    """Verify the pullback along the torus double cover in degree d.

    Takes the orbit complex of the cubical torus C(2)^n under the shift of
    the first coordinate only, with trivial and with group-ring coefficients
    for the quotient and the torus, and the cochain map P induced by the
    projection (``_quotient_complexes``, once per n); they stand for those
    of C(L)^n through the contraction of C(L) onto C(2), which the
    cross-check against ``bredon_torus`` checks, with n and L, before any of
    them is built.  Any L that ``gamma`` accepts will do, L = 4 included,
    since no quotient is built.  Checks that H^d of both is free of rank
    C(n, d).  The cohomology of the mapping cone of P then gives p* on H^d:
    finite cone groups in degrees d - 1 and d mean that p* is injective with
    cokernel H^d(Cone), which must be elementary abelian of rank
    C(n-1, d-1), the invariant factors of p* being C(n-1, d-1) twos and
    C(n-1, d) ones.  Cross-checks the cokernel
    against the directly computed equivariant cohomology.
    """
    if not 1 <= d <= n:
        raise InvalidParameterError("need 1 <= d <= n")
    bredon = bredon_torus(n, L, d)
    h_x, h_q, cone = _quotient_complexes(n)

    expected_rank = comb(n, d)
    for h in (h_x, h_q):
        group = h.cohomology(d)
        # the torsion of H^(d+1) is that of the Smith form of delta_d, which
        # H^d has just computed; the cone argument below needs it to be zero
        if group.torsion or (d < n and h.smith(d).torsion):
            raise InvariantViolationError("torus cohomology should be torsion-free")
        if group.free_rank != expected_rank:
            raise InvariantViolationError("unexpected torus cohomology rank")

    # H^(d-1)(Cone) maps onto ker p*_d, and H^d(Cone) is an extension of
    # ker p*_(d+1) by coker p*_d; both kernels sit in free groups, so when the
    # two cone groups are finite p*_d is injective and H^d(Cone) = coker p*_d.
    # Cone degree e is degree e + 1 of its coboundary list.
    below, cokernel = cone.cohomology(d), cone.cohomology(d + 1)
    injective = below.free_rank == 0
    factors = [1] * (expected_rank - len(cokernel.torsion)) + list(cokernel.torsion)
    expected_factors = sorted([1] * comb(n - 1, d) + [2] * comb(n - 1, d - 1))
    record = {
        "n": n, "L": L, "d": d,
        "pstar_injective": injective,
        "pstar_invariant_factors": factors,
        "expected_invariant_factors": expected_factors,
        "cokernel": {"free_rank": cokernel.free_rank, "torsion": list(cokernel.torsion)},
        "bredon": {"free_rank": bredon.free_rank, "torsion": list(bredon.torsion)},
        "matches_expected": (injective and factors == expected_factors
                             and cokernel == expected_bredon(n, d)
                             and bredon == expected_bredon(n, d)),
    }
    if not record["matches_expected"]:
        record["cone"] = {str(e): {"free_rank": g.free_rank,
                                   "torsion": list(g.torsion)}
                          for e, g in ((d - 1, below), (d, cokernel))}
        raise InvariantViolationError(f"quotient projection check failed: {record}")
    return record


# the orbit complex cache behind quotient_pstar_check
quotient_pstar_check.cache_clear = _quotient_complexes.cache_clear
