"""Exception types shared across the package."""


class TglabError(Exception):
    """Base class for all package errors."""


class InputError(TglabError):
    """Malformed spec or flag data; the command line exits 2.

    Input errors are JSON types and keys, shapes (ragged rays, cones of the
    wrong size, a basis_p that is not r rows of one entry per ray), ray
    numbers out of range, repeated or non-primitive rays, repeated cones
    and flag values out of range.  Every other TglabError is a verdict on
    well-formed input: it exits 1 with its report (a negative bundle
    coefficient is the non-nef counterexample, not bad input).
    """


class NotSurjective(TglabError):
    """Columns of the matrix do not generate the full lattice Z^s."""


class NotARelation(TglabError):
    """Vector is not in the kernel of the given matrix."""


class DimensionMismatch(TglabError):
    """Shapes of the supplied objects are inconsistent."""


class NonPrimitiveRay(InputError):
    """A ray generator is not primitive (gcd of entries != 1)."""


class InputNotSmooth(TglabError):
    """Construction requires a smooth (and complete) input fan."""


class NegativeCoefficient(TglabError):
    """`build_model` refuses a bundle row with a negative entry that is not
    nef, or whose fan is not complete."""


class IncompleteFan(TglabError):
    """Operation requires a complete fan."""


class KahlerConeEmpty(TglabError):
    """The nef cone has empty interior; the input is not projective."""


class BundleNotNef(TglabError):
    """A bundle row does not define a nef (convex) class."""


class DegeneratePolytope(TglabError):
    """Polytope is not full-dimensional."""


class NotSaturated(TglabError):
    """Check requires saturation up to the degree bound first."""


class BoundTooSmall(TglabError):
    """Bounded computation did not stabilize within the given bound."""


class NotSameImage(TglabError):
    """Exponent vectors do not have the same semigroup image."""


class NotEliminable(TglabError):
    """Operator mixes the eliminated variable pair in an unsupported way."""


class NotLogExpressible(TglabError):
    """Operator contains a bare partial not paired as lambda*partial."""


class BasisNotNef(TglabError):
    """A requested basis vector lies outside the nef cone."""


class BasisConditionFailed(TglabError):
    """The sum of the divisor classes is not nonnegative on the basis."""


class ZeroCoefficient(TglabError):
    """Parameter has a zero coordinate; it lies on the torus boundary."""


class StabilizationFailed(TglabError):
    """Degree slices did not stabilize within the cutoff."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class NonEffectiveDegree(TglabError):
    """Degree vector has a negative coordinate."""


class MissingDegree(TglabError):
    """I-function table does not cover a required degree."""


class UnsupportedOperator(TglabError):
    """Operator is outside the class handled by this check."""


class FanNotSmoothComplete(TglabError):
    """Cohomology ring construction needs a smooth complete fan."""


class ParseError(InputError):
    """Problem specification could not be parsed."""
