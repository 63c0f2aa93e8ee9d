import random

import pytest

from equihom.errors import InvalidInputError
from equihom.simplicial import gamma_power
from equihom.snf import (QuotientPresentation, SparseMat,
                         _dense_smith_invariants, gf2_rank, kernel_basis,
                         smith_normal_form, snf_with_transforms, solve_exact)
from equihom.zz2 import equivariant_complex, specialize

from oracles import determinantal_invariants


def test_examples():
    assert smith_normal_form([[2, 0], [0, 3]]).invariants == (1, 6)
    assert smith_normal_form([[0, 0], [0, 0]]).rank == 0
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).invariants == (1, 1, 1)


def test_against_determinantal_divisors():
    rng = random.Random(42)
    for _ in range(60):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mat = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        got = list(smith_normal_form(mat).invariants)
        assert got == determinantal_invariants(mat), mat


def test_divisibility_chain():
    rng = random.Random(7)
    for _ in range(40):
        mat = [[rng.randrange(-9, 10) for _ in range(4)] for _ in range(4)]
        inv = smith_normal_form(mat).invariants
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0


def test_transforms_reconstruct():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mat = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        diag, s, t = snf_with_transforms(mat)
        prod = [[sum(s[i][k] * mat[k][j] for k in range(m)) for j in range(n)]
                for i in range(m)]
        prod = [[sum(prod[i][k] * t[k][j] for k in range(n)) for j in range(n)]
                for i in range(m)]
        for i in range(m):
            for j in range(n):
                expected = diag[i] if i == j and i < len(diag) else 0
                assert abs(prod[i][j]) == (expected if i == j and i < len(diag) else 0)
        nonzero = [d for d in diag if d]
        assert nonzero == list(smith_normal_form(mat).invariants)


def test_kernel_and_solve():
    mat = [[1, 2, 3], [2, 4, 6]]
    basis = kernel_basis(mat)
    assert len(basis) == 2
    for vec in basis:
        assert all(sum(r[j] * vec[j] for j in range(3)) == 0 for r in mat)
    x = solve_exact([[2, 0], [0, 5]], [4, 10])
    assert x == [2, 2]
    with pytest.raises(InvalidInputError):
        solve_exact([[2]], [3])


def test_sparse_phase_handles_large_sparse():
    # block-diagonal with many unit pivots and one sticky 2x2 block
    n = 200
    rows = []
    for i in range(n):
        rows.append({i: 1, (i + 1) % n: 1} if i % 2 else {i: 1})
    rows.append({n: 2, n + 1: 2})
    rows.append({n: 2, n + 1: 4})
    mat = SparseMat(len(rows), n + 2, rows)
    res = smith_normal_form(mat)
    assert res.rank == n + 2
    assert res.invariants[-1] % res.invariants[-2] == 0


def _unit_dominated(rng, m, n, density):
    """Random sparse matrix whose nonzero entries are mostly +-1."""
    values = (1, -1, 1, -1, 1, -1, 2, -2, 3)
    return [[rng.choice(values) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


def test_unit_dominated_small_against_determinantal_divisors():
    rng = random.Random(11)
    for _ in range(300):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = _unit_dominated(rng, m, n, rng.choice((0.3, 0.5, 0.8)))
        got = list(smith_normal_form(mat).invariants)
        assert got == determinantal_invariants(mat), mat


def test_unit_dominated_medium_against_dense_phase():
    rng = random.Random(12)
    for _ in range(40):
        m, n = rng.randrange(8, 40), rng.randrange(8, 40)
        mat = _unit_dominated(rng, m, n, rng.choice((0.08, 0.15, 0.3)))
        res = smith_normal_form(mat)
        assert list(res.invariants) == _dense_smith_invariants(
            [list(r) for r in mat]), mat


def test_row_gains_unit_after_elimination():
    # Row 0 is the first candidate and holds no unit.  Pivoting on row 1,
    # column 0 turns it into (0, 1, 0), so it must be reconsidered: both
    # unit pivots happen in the sparse phase and only the 2 is left dense.
    mat = [[2, 3, 0], [1, 1, 0], [0, 0, 2]]
    res = smith_normal_form(mat)
    assert res.invariants == (1, 1, 2)
    assert res.unit_pivots == 2
    assert list(res.invariants) == determinantal_invariants(mat)


def test_gamma4_four_torus_sign_coboundaries():
    # (number of unit invariant factors, torsion) of delta_0 .. delta_3
    x = gamma_power(4, 4, cap=4)
    deltas = specialize(equivariant_complex(x, 4), "Zminus")
    got = []
    for delta in deltas:
        res = smith_normal_form(delta)
        got.append((res.invariants.count(1), res.torsion))
    assert got == [(127, (2,)), (1789, (2, 2, 2)), (4605, (2, 2, 2)),
                   (3071, (2,))]


def test_quotient_presentation_z_mod_2():
    # C^1 = Z^2 with zero outgoing coboundary; image generated by (1,1), (1,-1)
    a = []
    b = [[1, 1], [1, -1]]
    q = QuotientPresentation(a, b, 2)
    assert q.free_rank == 0
    assert q.torsion == (2,)


def test_quotient_presentation_free_part_and_coords():
    # kernel of [1, 1, 1] modulo the image of (1, -1, 0): one free generator
    a = [[1, 1, 1]]
    b = [[1], [-1], [0]]
    q = QuotientPresentation(a, b, 3)
    assert q.free_rank == 1 and q.torsion == ()
    rep = q.free_representative(0)
    assert sum(rep) == 0
    free, tors = q.class_coords(rep)
    assert free == [1] and not any(tors)
    doubled = [2 * x for x in rep]
    free2, _ = q.class_coords(doubled)
    assert free2 == [2]
    killed = [1, -1, 0]
    free3, _ = q.class_coords(killed)
    assert free3 == [0]


def test_gf2_rank():
    assert gf2_rank([0b11, 0b01, 0b10]) == 2
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([0b111, 0b011, 0b100]) == 2


def test_sparse_matmul_and_transpose():
    a = SparseMat.from_dense([[1, 2], [0, 1]])
    b = SparseMat.from_dense([[1, 0], [3, 1]])
    assert a.matmul(b).to_dense() == [[7, 2], [3, 1]]
    assert a.transpose().to_dense() == [[1, 0], [2, 1]]
    with pytest.raises(InvalidInputError):
        a.matmul(SparseMat(3, 3))
