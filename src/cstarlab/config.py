"""Tolerance configuration shared by all numerical predicates.

Convention: every routine that decides anything takes one parameter,
``tol``, which is a :class:`Tolerances`, and reads the field it needs.
Public signatures default to ``tol=DEFAULT_TOL`` (safe, as the dataclass
is frozen) and pass ``tol`` on whole; no function body falls back to
``DEFAULT_TOL``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances used throughout the package.

    Every threshold is applied relative to the scale of its input (a norm,
    clamped below by 1 where an absolute floor makes sense), so the defaults
    behave uniformly for inputs of norm around one.

    Attributes
    ----------
    spec : float
        Spectral decomposition accuracy: Hermiticity checks and
        reconstruction residuals of eigendecompositions.
    rank : float
        Rank decisions when orthonormalizing spanning sets; singular values
        or residual norms at or below ``rank * scale`` count as zero.  It
        also decides which products of a right module's generators add a
        direction to its span.
    member : float
        Subspace membership: largest acceptable residual of a vector
        against an orthonormal basis.
    gap : float
        Spectral clustering: eigenvalues closer than ``gap * norm`` are
        treated as a single cluster, and spectral cuts must stay at least
        this far from every eigenvalue.
    """

    spec: float = 1e-10
    rank: float = 1e-9
    member: float = 1e-8
    gap: float = 1e-7

    @property
    def composite(self):
        """``member * 10``: the bound for identities checked on products of
        factors that were each verified to ``member`` (block forms, ternary
        morphisms, generation certificates), whose errors compound."""
        return self.member * 10


DEFAULT_TOL = Tolerances()
