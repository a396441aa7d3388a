"""Exact-arithmetic toolkit for toric Landau-Ginzburg data.

Everything in this package computes over the integers or the rationals;
there is no floating point anywhere.  The modules split along the
objects they handle:

``intlinalg``
    integer matrices, Smith normal form, kernel lattices, section systems
``rationalcone``
    cones over Q in H-form: the one facet enumeration ``cone_hform``,
    extreme rays, intersections
``polytopes``
    lattice polytopes: one lifted hull each, vertices, faces, normalized
    volume
``toricfan``
    fans and their Newton polytopes, total-space fans of split bundles, nef
    cones two ways
``semigroups``
    the doubled semigroup of a Newton polytope: slices, normality,
    Gorenstein and interior shifts
``weylops``
    normal-ordered operators in lambda, d/dlambda, z and z^2 d/dz, and the
    builders for all the operator families (box, Euler, hat, star, qdm)
``cohomring``
    Stanley-Reisner cohomology rings of smooth complete toric varieties
``lgfamily``
    Laurent-polynomial families, Kaehler-moduli restriction, Jacobian rings
``qdmcheck``
    I-function tables, annihilation and kernel-landing checks
``models``
    all derived data of one (fan, bundle rows) pair
``errors``
    the exception types: input errors (exit 2) and mathematical failures
    (exit 1)
``cli``
    the ``tglab`` command line front end
"""

__version__ = "0.1.0"
