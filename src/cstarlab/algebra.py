"""Concrete finite-dimensional *-algebras of complex matrices.

A :class:`StarAlgebra` is a subspace of ``N x N`` matrices closed under
products and adjoints, held as an orthonormal basis.  Closedness is what
separates an algebra from a mere subspace, and no span is closed to
certify it: :func:`generate_algebra` reads the algebra off the block
decomposition of its generators
(:func:`~cstarlab.structure.decompose_generators`), and
:meth:`StarAlgebra.from_span` decomposes a span that should already be an
algebra, refusing it when the algebra its basis generates is not the
span.  Both keep the decomposition's two certified draws as the family.

Every such algebra is semisimple and has a unit ``u`` (usually not the
ambient identity): the sum of squares of any spanning family has range
projection acting as the identity on the whole span.  ``unit_of`` computes
it that way and verifies the result.
"""

import numpy as np
from dataclasses import dataclass

from .config import DEFAULT_TOL
from .errors import (
    ClosureViolation,
    DegenerateRandomness,
    NotAProjection,
    NotInAlgebra,
    NumericalFailure,
    ParamError,
    ShapeMismatch,
    check,
)
from .linalg import (
    Subspace,
    as_matrix,
    grow_span,
    hs_norm,
    identity_defect,
    orthonormalize,
    support_projection_of_psd,
)

__all__ = [
    "StarAlgebra",
    "generate_algebra",
    "unit_of",
    "unitize",
    "center",
]

# Seed of the draws that decompose an algebra given by generators or by a
# span: fixed, so both are deterministic without a seed parameter.
_DECOMPOSE_SEED = 0


@dataclass(eq=False)
class StarAlgebra:
    """A *-closed algebra of ``N x N`` complex matrices.

    Attributes
    ----------
    basis : Subspace
        Orthonormal basis of the underlying subspace.
    unit : ndarray or None
        The multiplicative identity of the algebra (a projection in the
        ambient matrices), or None for the zero algebra.
    family : ndarray
        ``(k, N, N)`` unit-norm elements that generate the algebra with
        their adjoints: the two draws its block decomposition was
        certified with, set by :func:`generate_algebra` and
        :meth:`from_span`, or the three elements a planted algebra, or
        either algebra of a TRO, is written down with.  Left out, it is
        the basis, which generates what it spans.
    """

    basis: Subspace
    unit: np.ndarray | None = None
    family: np.ndarray | None = None

    def __post_init__(self):
        if self.family is None:
            self.family = self.basis.matrices

    @property
    def ambient_dim(self):
        return self.basis.rows

    @property
    def dim(self):
        return self.basis.dim

    def contains(self, x, tol=DEFAULT_TOL):
        return self.basis.contains(x, tol=tol)

    def require_member(self, x, tol=DEFAULT_TOL, what="element"):
        x = as_matrix(x, shape=self.basis.shape)
        check(f"{what} is not in the algebra, relative to its norm",
              self.basis.max_relative_residual(x.reshape(1, -1)), tol.member, NotInAlgebra)
        return x

    def require_projection(self, e, tol=DEFAULT_TOL, what="element"):
        """``e`` as a member of the algebra that is a self-adjoint
        idempotent, both to within ``tol.member * max(1, ||e||)``."""
        e = self.require_member(e, tol=tol, what=what)
        check(f"{what} is not a self-adjoint idempotent",
              max(hs_norm(e @ e - e), hs_norm(e - e.conj().T)),
              tol.member * max(1.0, hs_norm(e)), NotAProjection)
        return e

    @classmethod
    def from_span(cls, mats, ambient_dim=None, tol=DEFAULT_TOL):
        """Build an algebra from a family already spanning one.

        The family is orthonormalized into the algebra's basis ``S``.  A
        span that is not closed is refused first by one probe: for
        unit-norm seeded combinations ``x``, ``y`` of the basis, ``x y``
        and ``x*`` must lie in ``S`` within ``tol.member``.  Their
        residuals are polynomials in the coefficients of ``x`` and ``y``
        and their conjugates, so they vanish for generic ones only if they
        vanish for all.  Then the algebra the basis generates is read off
        as in :func:`generate_algebra`: the span is an algebra exactly when
        that algebra has its dimension, ``sum n_k^2 = dim S``, and lies
        within ``tol.member`` of it (:class:`ClosureViolation` otherwise).
        Below what the probe resolves, the copies of a block disagree on
        the basis beyond ``tol.spec``, so no draw certifies a decomposition;
        that :class:`DegenerateRandomness` becomes a chained
        :class:`ClosureViolation`.  The algebra keeps the given basis; its
        unit is the sum of the central projections and its family the
        decomposition's draws.
        """
        from .structure import decompose_generators  # structure imports this module

        shape = None if ambient_dim is None else (ambient_dim, ambient_dim)
        space = orthonormalize(mats, tol=tol, shape=shape)
        if space.rows != space.cols:
            raise ShapeMismatch("algebra elements must be square")
        if space.dim:
            rng = np.random.default_rng([_DECOMPOSE_SEED, 1])
            coeff = rng.standard_normal((2, space.dim)) + 1j * rng.standard_normal((2, space.dim))
            x, y = (coeff / np.linalg.norm(coeff, axis=1, keepdims=True) @ space.stack).reshape(
                2, *space.shape)
            check("span is not closed under products and adjoints",
                  space.max_relative_residual(np.array([(x @ y).ravel(), x.conj().T.ravel()])),
                  tol.member, ClosureViolation)
        try:
            closed = decompose_generators(space.rows, space.matrices, seed=_DECOMPOSE_SEED,
                                          tol=tol).algebra
        except DegenerateRandomness as exc:
            raise ClosureViolation(
                "span is not closed: the copies of a block disagree on its basis, "
                f"so no decomposition of it is certified ({exc})") from exc
        if closed.dim != space.dim:
            raise ClosureViolation(
                f"span of dimension {space.dim} is not closed: "
                f"the algebra it generates has dimension {closed.dim}"
            )
        check("span is not the algebra it generates", closed.basis.distance(space), tol.member,
              ClosureViolation)
        return StarAlgebra(basis=space, unit=closed.unit, family=closed.family)


def generate_algebra(ambient_dim, generators, tol=DEFAULT_TOL):
    """Smallest *-closed algebra of ``ambient_dim`` square matrices
    containing the generators.

    The certified algebra of
    :func:`~cstarlab.structure.decompose_generators` drawn from a fixed
    seed: its basis is the matrix units, its unit the sum of the central
    projections and its family the two draws, so no span is closed.  The
    generators are divided by their largest norm: a part of them below
    ``tol.composite`` of it is dropped within that bound, and one up to a
    few times that is refused (:class:`GapNotFound` where the unit's cut
    finds no gap, :class:`VerificationFailure` where the generators miss
    the block form).
    """
    from .structure import decompose_generators  # structure imports this module

    return decompose_generators(ambient_dim, generators, seed=_DECOMPOSE_SEED, tol=tol).algebra


def unit_of(algebra, tol=DEFAULT_TOL):
    """The multiplicative identity of the algebra, or None if there is none.

    The candidate is the range projection of ``sum_i b_i* b_i`` over the
    orthonormal basis: its kernel is exactly the common kernel of the
    basis acting on the right, so for a *-closed algebra it acts as the
    identity on the span.  The candidate is verified (projection, member,
    two-sided identity on the basis) before being returned.
    """
    space = algebra.basis
    if space.dim == 0:
        return None
    mats = space.matrices
    # the basis stacked as one (dim * N, N) matrix F, so the sum is F* F
    flat = space.stack.reshape(-1, space.cols)
    s = flat.conj().T @ flat
    u = support_projection_of_psd(s, tol=tol)
    checks = [
        hs_norm(u @ u - u),
        hs_norm(u - u.conj().T),
        space.residual(u),
        identity_defect(u, mats),
        identity_defect(u, mats, right=True),
    ]
    if max(checks) > tol.member * max(1.0, hs_norm(u)):
        return None
    return u


def unitize(algebra, tol=DEFAULT_TOL):
    """Adjoin the ambient identity, returning a unital algebra.

    If the algebra already contains the ambient identity it is returned
    unchanged; otherwise the span is extended by the identity (which keeps
    it closed: products of members with the identity are members).
    """
    n = algebra.ambient_dim
    eye = np.eye(n, dtype=np.complex128)
    if algebra.basis.contains(eye, tol=tol):
        return algebra
    stack, _ = grow_span(algebra.basis.stack, eye.ravel()[None, :], tol=tol)
    return StarAlgebra(basis=Subspace(n, n, stack), unit=eye)


def center(algebra, tol=DEFAULT_TOL):
    """The center of the algebra, as a (commutative) StarAlgebra: the span
    of the central projections of the block decomposition of its
    ``family`` (:func:`~cstarlab.structure.decompose_generators`, drawn
    from a fixed seed), each at unit norm.  Its unit is the algebra's, or
    the sum of the central projections when the algebra keeps none.
    Raises :class:`NumericalFailure` when a projection fails to commute
    with the ``family``.
    """
    from .structure import decompose_generators  # structure imports this module

    space = algebra.basis
    if space.dim == 0:
        return algebra
    gens = algebra.family
    found = decompose_generators(algebra.ambient_dim, gens, seed=_DECOMPOSE_SEED,
                                 tol=tol).central_projections
    cm = np.array([c / hs_norm(c) for c in found])
    comm = cm[:, None] @ gens[None] - gens[None] @ cm[:, None]
    check("center candidate fails to commute with the algebra",
          float(np.max(np.abs(comm), initial=0.0)), tol.member, NumericalFailure)
    unit = sum(found) if algebra.unit is None else algebra.unit
    return StarAlgebra(basis=Subspace(*space.shape, cm.reshape(len(cm), -1)), unit=unit)


def sample_self_adjoint(algebra, rng):
    """A random self-adjoint element drawn from a live generator: the
    Hermitian part of a real standard-normal combination of the
    orthonormal basis, formed after the combination so the basis is not
    copied."""
    if algebra.dim == 0:
        raise ParamError("cannot sample from the zero algebra")
    coeff = rng.standard_normal(algebra.dim)
    x = (coeff @ algebra.basis.stack).reshape(algebra.basis.shape)
    return 0.5 * (x + x.conj().T)


def sample_element(algebra, rng):
    """A random (generally non-self-adjoint) element of the algebra, or of
    any space with an orthonormal ``basis``, such as a TRO."""
    if algebra.dim == 0:
        raise ParamError("cannot sample from the zero algebra")
    coeff = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
    return np.einsum("a,aij->ij", coeff, algebra.basis.matrices)
