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
from dataclasses import dataclass, replace

from .config import DEFAULT_TOL
from .errors import (
    ClosureViolation,
    DegenerateRandomness,
    NotAProjection,
    NotInAlgebra,
    NotUnital,
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
    spectral_clusters,
    support_projection_of_psd,
)

__all__ = [
    "StarAlgebra",
    "generate_algebra",
    "unit_of",
    "unitize",
    "central_projections",
    "center",
    "random_self_adjoint",
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


def central_projections(algebra, h, tol=DEFAULT_TOL):
    """The minimal central projections of the algebra, read off one
    element ``h`` of it, or None when ``h`` does not separate the blocks.

    ``Phi(h) = sum_i b_i h b_i*`` over an orthonormal basis is
    ``tr(c_k h) / m_k^2`` times ``c_k`` on each block and ``S = Phi(1)`` is
    ``n_k / m_k`` times ``c_k``.  The candidates are the nonzero spectral
    clusters of ``x + 2||x|| u``, ``x = Phi(h + h*)``, for the unit ``u``.
    They must sum to ``u``, lie in the algebra and have ``S c = (n^2/tr c) c``
    for an integer ``n >= 1``: a cluster merging two blocks fails unless
    they share ``n / m`` and ``n_i^2 + n_j^2`` is a square.
    """
    u = algebra.unit
    mats = algebra.basis.matrices
    probes = np.stack([h + h.conj().T, np.eye(algebra.ambient_dim)])
    phi, s = np.tensordot(mats @ probes[:, None], mats.conj(), axes=([1, 3], [0, 2]))
    shifted = phi + 2.0 * hs_norm(phi) * u
    found = spectral_clusters(shifted, tol=tol)
    if hs_norm(sum(found) - u) > tol.member * max(1.0, hs_norm(u)):
        return None
    if algebra.basis.max_relative_residual(np.array([c.ravel() for c in found])) > tol.member:
        return None
    for c in found:
        sc = s @ c
        n = round(float(np.real(np.trace(sc))) ** 0.5)  # S >= u / N, so tr(c S) > 0
        rho = n * n / float(np.real(np.trace(c)))
        if n < 1 or hs_norm(sc - rho * c) > tol.member * max(1.0, hs_norm(sc)):
            return None
    return found


_PROBE_SEED = 0x0C57A  # fixed, so center() is deterministic without a seed


def center(algebra, tol=DEFAULT_TOL):
    """The center of the algebra, as a (commutative) StarAlgebra: the span
    of the :func:`central_projections` of one probe with a fixed seed.
    Raises :class:`DegenerateRandomness` when the probe does not separate
    the blocks, and :class:`NumericalFailure` when a projection fails to
    commute with the ``family``.
    """
    space = algebra.basis
    if space.dim == 0:
        return algebra
    if algebra.unit is None:
        algebra = replace(algebra, unit=unit_of(algebra, tol=tol))
        if algebra.unit is None:
            raise NotUnital("algebra has no detected unit; cannot find its center")
    found = central_projections(algebra, random_self_adjoint(algebra, _PROBE_SEED), tol=tol)
    if found is None:
        raise DegenerateRandomness("the center probe failed to separate the blocks")
    cm = np.array([c / hs_norm(c) for c in found])
    gens = algebra.family
    comm = cm[:, None] @ gens[None] - gens[None] @ cm[:, None]
    check("center candidate fails to commute with the algebra",
          float(np.max(np.abs(comm), initial=0.0)), tol.member, NumericalFailure)
    return StarAlgebra(basis=Subspace(*space.shape, cm.reshape(len(cm), -1)), unit=algebra.unit)


def random_self_adjoint(algebra, seed):
    """A reproducible random self-adjoint element of the algebra.

    The Hermitian part of a complex standard-normal combination of the
    orthonormal basis, so every self-adjoint direction is reached whatever
    the phases of the basis; the same seed always gives the same element.
    """
    x = sample_element(algebra, np.random.default_rng(seed))
    return 0.5 * (x + x.conj().T)


def sample_self_adjoint(algebra, rng):
    """A random self-adjoint element drawn from a live generator: real
    standard-normal coefficients against the Hermitian parts of the
    orthonormal basis."""
    if algebra.dim == 0:
        raise ParamError("cannot sample from the zero algebra")
    mats = algebra.basis.matrices
    herm = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
    coeff = rng.standard_normal(algebra.dim)
    return np.einsum("a,aij->ij", coeff, herm)


def sample_element(algebra, rng):
    """A random (generally non-self-adjoint) element of the algebra, or of
    any space with an orthonormal ``basis``, such as a TRO."""
    if algebra.dim == 0:
        raise ParamError("cannot sample from the zero algebra")
    coeff = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
    return np.einsum("a,aij->ij", coeff, algebra.basis.matrices)
