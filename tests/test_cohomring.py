"""Cohomology rings, pairings, reduced rings and the weight grading."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import examples
from tglab.cohomring import (
    build_ring,
    chern_data,
    grading_mu,
    kernel_of_multiplication,
    reduced_ring,
    twisted_pairing,
)
from tglab.errors import FanNotSmoothComplete
from tglab.intlinalg import IntegerMatrix
from tglab.toricfan import Fan


def test_ring_p1():
    ring = build_ring(examples.fan("p1_o2"))
    assert ring.dimension == 2
    p = ring.divisor_class(0)
    assert ring.mul(p, p) == {}


def test_ring_p2():
    ring = build_ring(examples.fan("p2"))
    assert ring.dimension == 3
    p = ring.divisor_class(0)
    p2 = ring.mul(p, p)
    assert p2 and ring.mul(p2, p) == {}
    assert ring.integrate(p2) == 1


def test_ring_p1xp1():
    ring = build_ring(examples.fan("p1p1_o11"))
    assert ring.dimension == 4
    p1 = ring.divisor_class(0)
    p2 = ring.divisor_class(2)
    assert ring.mul(p1, p1) == {}
    assert ring.mul(p2, p2) == {}
    assert ring.integrate(ring.mul(p1, p2)) == 1


def test_ring_rejects_incomplete():
    fan = Fan.make([(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(FanNotSmoothComplete):
        build_ring(fan)


def test_dimension_matches_cone_count():
    for fan in (
        examples.fan("p1_o2"),
        examples.fan("p2"),
        examples.fan("p1p1_o11"),
        examples.hirzebruch(1),
        examples.hirzebruch(3),
    ):
        assert build_ring(fan).dimension == len(fan.max_cones)


def h_vector(fan):
    """h_k = sum_{i<=k} (-1)^(k-i) C(n-i, k-i) f_i, where f_i counts the
    cones with i rays (all faces of the simplicial maximal cones); for a
    smooth complete fan h_k is the k-th Betti number of degree 2k
    (Fulton, Introduction to Toric Varieties, 1993, 4.5)."""
    n = fan.dim
    cones = {face for cone in fan.max_cones for i in range(n + 1)
             for face in combinations(sorted(cone), i)}
    f = [sum(len(c) == i for c in cones) for i in range(n + 1)]
    return [sum((-1) ** (k - i) * comb(n - i, k - i) * f[i] for i in range(k + 1))
            for k in range(n + 1)]


@pytest.mark.parametrize("name", examples.NAMES)
def test_ring_dimensions_are_the_h_vector(name):
    fan = examples.fan(name)
    ring = build_ring(fan)
    sizes = [len(ring.basis_by_degree[k]) for k in range(fan.dim + 1)]
    assert sorted(ring.basis_by_degree) == list(range(fan.dim + 1))
    assert sizes == h_vector(fan)


def test_h_vector_oracle_on_known_fans():
    assert h_vector(examples.fan("threefolds/p1cube_o111")) == [1, 3, 3, 1]
    assert h_vector(examples.fan("threefolds/p3_o2")) == [1, 1, 1, 1]
    assert h_vector(examples.hirzebruch(3)) == [1, 2, 1]


def test_dimension_matches_volume_for_fano_fans():
    # vol(conv(0, rays)) counts maximal cones exactly when the cone
    # simplices fill the hull; F3 is excluded on purpose (vol 5 > 4 cones).
    for fan in (
        examples.fan("p1_o2"),
        examples.fan("p2"),
        examples.fan("p1p1_o11"),
        examples.hirzebruch(1),
    ):
        ring = build_ring(fan)
        assert ring.dimension == fan.newton_polytope.volume


def test_chern_data_p1_o2():
    fan, d = examples.spec("p1_o2")
    ring = build_ring(fan)
    cd = chern_data(ring, d)
    p = ring.divisor_class(0)
    assert cd["c1"][0] == ring.scale(p, 2)
    assert cd["c_top"] == ring.scale(p, 2)
    assert cd["euler_class"] == {}


def test_chern_data_rank_zero():
    ring = build_ring(examples.fan("p2"))
    cd = chern_data(ring, IntegerMatrix(0, 3, ()))
    assert cd["c_top"] == ring.one()
    assert cd["euler_class"] == ring.scale(ring.divisor_class(0), 3)


def test_chern_data_p1p1():
    fan, d = examples.spec("p1p1_o11")
    ring = build_ring(fan)
    cd = chern_data(ring, d)
    expected = ring.add(ring.divisor_class(0), ring.divisor_class(2))
    assert cd["c_top"] == expected
    assert cd["euler_class"] == expected


def test_twisted_pairing_p1_o2():
    fan, d = examples.spec("p1_o2")
    ring = build_ring(fan)
    ctop = chern_data(ring, d)["c_top"]
    assert twisted_pairing(ring, ctop, ring.one(), ring.one()) == 2
    p = ring.divisor_class(0)
    assert twisted_pairing(ring, ctop, p, ring.one()) == 0


def test_twisted_pairing_reduces_to_poincare():
    ring = build_ring(examples.fan("p2"))
    ctop = chern_data(ring, IntegerMatrix(0, 3, ()))["c_top"]
    p = ring.divisor_class(0)
    pp = ring.mul(p, p)
    assert twisted_pairing(ring, ctop, ring.one(), pp) == 1
    assert twisted_pairing(ring, ctop, p, p) == 1


def test_pairing_kernel_equals_multiplication_kernel():
    for fan, d in [examples.spec("p1_o2"), examples.spec("p1p1_o11")]:
        ring = build_ring(fan)
        ctop = chern_data(ring, d)["c_top"]
        kern = kernel_of_multiplication(ring, ctop)
        n = ring.dimension
        pairing_rows = [
            tuple(
                twisted_pairing(ring, ctop, {bi: Fraction(1)}, {bj: Fraction(1)})
                for bj in ring.basis
            )
            for bi in ring.basis
        ]
        from tglab.rationalcone import nullspace

        pairing_kernel = nullspace(pairing_rows, n)
        # same rank and kern contained in the pairing kernel => equality
        assert len(pairing_kernel) == len(kern)
        for v in kern:
            assert all(
                sum(row[j] * v[j] for j in range(n)) == 0 for row in pairing_rows
            )


def test_reduced_ring_p1_o2():
    fan, d = examples.spec("p1_o2")
    ring = build_ring(fan)
    ctop = chern_data(ring, d)["c_top"]
    red = reduced_ring(ring, ctop)
    assert red["kernel_rank"] == 1
    assert len(red["basis"]) == 1
    assert red["nondegenerate"]


def test_reduced_ring_rank_zero_bundle():
    ring = build_ring(examples.fan("p2"))
    ctop = chern_data(ring, IntegerMatrix(0, 3, ()))["c_top"]
    red = reduced_ring(ring, ctop)
    assert red["kernel_rank"] == 0
    assert len(red["basis"]) == ring.dimension


def test_reduced_ring_p1p1_oracle():
    """Oracle: the 4x4 multiplication matrix by p1+p2 kills exactly
    p1 - p2 and p1 p2, so the quotient has rank two."""
    fan, d = examples.spec("p1p1_o11")
    ring = build_ring(fan)
    ctop = chern_data(ring, d)["c_top"]
    p1 = ring.divisor_class(0)
    p2 = ring.divisor_class(2)
    diff = ring.add(p1, ring.scale(p2, -1))
    prod = ring.mul(p1, p2)
    assert ring.mul(ctop, diff) == {}
    assert ring.mul(ctop, prod) == {}
    red = reduced_ring(ring, ctop)
    assert red["kernel_rank"] == 2
    assert len(red["basis"]) == 2
    assert red["nondegenerate"]
    # projection is compatible with multiplication on representatives
    proj = red["project"]
    assert proj(diff) == {}
    assert proj(prod) == {}


def test_frobenius_symmetry_classical():
    rng = random.Random(17)
    for fan, d in [examples.spec("p1_o2"), examples.spec("p2_o1"), examples.spec("p1p1_o11")]:
        ring = build_ring(fan)
        ctop = chern_data(ring, d)["c_top"]

        def random_class():
            return {
                b: Fraction(rng.randint(-3, 3))
                for b in ring.basis
                if rng.random() < 0.7
            }

        for _ in range(10):
            g1, g2, g3 = random_class(), random_class(), random_class()
            lhs = twisted_pairing(ring, ctop, ring.mul(g1, g2), g3)
            rhs = twisted_pairing(ring, ctop, g1, ring.mul(g2, g3))
            assert lhs == rhs


def test_grading_mu_examples():
    fan, d = examples.spec("p1_o2")
    ring = build_ring(fan)
    assert grading_mu(ring, 1) == [0, 1]
    ring2 = build_ring(examples.fan("p2"))
    assert grading_mu(ring2, 0) == [-1, 0, 1]
    ring1 = build_ring(examples.fan("p1_o2"))
    assert grading_mu(ring1, 0) == [Fraction(-1, 2), Fraction(1, 2)]
