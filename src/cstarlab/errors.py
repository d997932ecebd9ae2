"""Exception taxonomy for the library.

All errors raised by this package derive from :class:`CStarError`, so callers
can catch one base class.  The split between "bad input" and "a verified
invariant failed" matters for the command-line front end: input problems map
to exit code 1, verification problems to exit code 2.

Every certificate ends in :func:`check`: one comparison of a residual with
its bound, raising a typed error that names the identity, the residual and
the bound.
"""


class CStarError(Exception):
    """Base class for every error raised by cstarlab."""


# --- input-side problems -------------------------------------------------


class ShapeMismatch(CStarError):
    """A matrix has the wrong shape (or is not a 2-d array at all)."""


class NotSelfAdjoint(CStarError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class MembershipViolation(CStarError):
    """A matrix that must lie in a given subspace does not."""


class NotInAlgebra(CStarError):
    """An element handed to an algebra operation is not in that algebra."""


class NotAProjection(CStarError):
    """An element expected to be a self-adjoint idempotent is not."""


class ClosureViolation(CStarError):
    """A spanning set is not closed under products/adjoints as required."""


class NotUnital(CStarError):
    """The operation needs an algebra unit and none exists (zero algebra)."""


class NotProper(CStarError):
    """An ideal/submodule expected to be proper equals the whole object."""


class ZeroSubmodule(CStarError):
    """A generation certificate was requested for the zero submodule."""


class ParamError(CStarError):
    """Bad parameter combination (sizes, counts, ranges)."""


class ParseError(CStarError):
    """Malformed serialized input."""


# --- numerical / verification problems -----------------------------------


class NumericalFailure(CStarError):
    """A numerical routine failed to converge or produced garbage."""


class GapNotFound(CStarError):
    """The spectrum has no usable gap above its zero cluster."""


class CoefficientSolveFailed(CStarError):
    """The factorization of a positive root through the generators failed."""


class DegenerateRandomness(CStarError):
    """Repeated random draws failed to separate spectral clusters."""


class VerificationFailure(CStarError):
    """A mathematically guaranteed invariant did not hold numerically."""


#: Errors that indicate a problem with the *input* rather than with the
#: mathematics; the CLI maps these to exit code 1.
INPUT_ERRORS = (
    ShapeMismatch,
    NotSelfAdjoint,
    MembershipViolation,
    NotInAlgebra,
    NotAProjection,
    ClosureViolation,
    NotUnital,
    NotProper,
    ZeroSubmodule,
    ParamError,
    ParseError,
)


def check(identity, residual, bound, error=VerificationFailure):
    """``residual`` when ``residual <= bound``, else ``error`` naming the
    failed ``identity``, the residual and the bound.  The comparison is
    written so that a NaN residual (an overflowed ratio, say) never
    passes."""
    if residual <= bound:
        return residual
    raise error(f"{identity} (residual {residual:.3e}, bound {bound:.3e})")
