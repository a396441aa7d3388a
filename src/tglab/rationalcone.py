"""Finitely generated cones over Q, done by brute force at desk scale.

A cone is handled either through generators (V-form) or through a pair
(equalities, inequalities) of primitive integer normals (H-form).
`cone_hform` is the one enumeration: it tries every subset of generators
that can span a facet, which is exact and fast for the dimensions (<= 5)
and sizes (<= ~20 vectors) this package meets.  The extreme rays of a
pointed cone are the facets of its dual cone, so `extreme_rays` is
`cone_hform` applied to the constraints.  They come primitive and sorted,
so two pointed cones are equal exactly when their `extreme_rays` are.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm
from typing import NamedTuple

from tglab.intlinalg import row_reduce


def _primitive(v):
    """Scale a rational vector to a primitive integer vector."""
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def nullspace(rows, dim):
    """Basis of {x : r . x = 0 for all rows r}, primitive integer vectors."""
    pivots, reduced = row_reduce(rows, dim)
    basis = []
    for fc in range(dim):
        if fc in pivots:
            continue
        vec = [0] * dim
        vec[fc] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        basis.append(_primitive(vec))
    return basis


class HForm(NamedTuple):
    """Cone {x : e.x = 0 for e in equalities, n.x >= 0 for n in inequalities}."""

    dim: int
    equalities: tuple
    inequalities: tuple

    def contains(self, x) -> bool:
        return all(_dot(e, x) == 0 for e in self.equalities) and all(
            _dot(n, x) >= 0 for n in self.inequalities
        )

    def contains_interior(self, x) -> bool:
        """Strict interior relative to the ambient space."""
        if self.equalities:
            return False
        return all(_dot(n, x) > 0 for n in self.inequalities)


def cone_hform(generators, dim) -> HForm:
    """H-form of the cone generated by the given vectors."""
    gens = [g for g in generators if any(x != 0 for x in g)]
    eqs = nullspace(gens, dim)
    if not gens:
        return HForm(dim, tuple(eqs), ())
    span_dim = dim - len(eqs)
    ineqs = set()
    if span_dim == 0:
        return HForm(dim, tuple(eqs), ())
    for subset in combinations(range(len(gens)), span_dim - 1):
        rows = [gens[i] for i in subset] + list(eqs)
        normals = nullspace(rows, dim)
        if len(normals) != 1:
            continue
        n = normals[0]
        pos = sum(1 for g in gens if _dot(n, g) > 0)
        neg = sum(1 for g in gens if _dot(n, g) < 0)
        if pos and not neg:
            ineqs.add(n)
        elif neg and not pos:
            ineqs.add(tuple(-x for x in n))
    return HForm(dim, tuple(eqs), tuple(sorted(ineqs)))


def extreme_rays(h: HForm):
    """Primitive generators of the extreme rays of a pointed H-form cone.

    They are the facet normals of the dual cone, which the inequalities
    and both signs of the equalities generate; the cone must be pointed
    (its dual full-dimensional).
    """
    neg = tuple(tuple(-x for x in e) for e in h.equalities)
    return list(cone_hform(h.inequalities + h.equalities + neg, h.dim).inequalities)


def intersect_hforms(forms):
    dim = forms[0].dim
    eqs = []
    ineqs = []
    for f in forms:
        if f.dim != dim:
            raise ValueError("dimension mismatch in cone intersection")
        eqs.extend(f.equalities)
        ineqs.extend(f.inequalities)
    seen_e, seen_i = [], []
    for e in eqs:
        if e not in seen_e:
            seen_e.append(e)
    for n in ineqs:
        if n not in seen_i:
            seen_i.append(n)
    return HForm(dim, tuple(seen_e), tuple(seen_i))

