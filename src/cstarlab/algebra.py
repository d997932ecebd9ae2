"""Concrete finite-dimensional *-algebras of complex matrices.

A :class:`StarAlgebra` is a subspace of ``N x N`` matrices closed under
products and adjoints, held as an orthonormal basis.  Closedness is what
separates an algebra from a mere subspace, and it has one certificate:
closing the span under products and adjoints adds no direction.
:func:`generate_algebra` closes a generating family and keeps it;
:meth:`StarAlgebra.from_span` closes a family that should already span an
algebra and refuses it when the closure is larger.

Every such algebra is semisimple and has a unit ``u`` (usually not the
ambient identity): the sum of squares of any spanning family has range
projection acting as the identity on the whole span.  ``unit_of`` computes
it that way and verifies the result.
"""

import numpy as np
from dataclasses import dataclass

import numpy.linalg as npl

from .config import DEFAULT_TOL
from .errors import (
    ClosureViolation,
    NotAProjection,
    NotInAlgebra,
    NumericalFailure,
    ParamError,
    ShapeMismatch,
)
from .linalg import (
    Subspace,
    as_matrix,
    close_span,
    grow_span,
    hs_norm,
    identity_defect,
    orthonormalize,
    span_rows,
    support_projection_of_psd,
)

__all__ = [
    "StarAlgebra",
    "generate_algebra",
    "unit_of",
    "unitize",
    "center",
    "random_self_adjoint",
]


def _with_adjoints(mats):
    """A ``(k, n, n)`` family followed by its adjoints."""
    return np.concatenate([mats, mats.conj().transpose(0, 2, 1)])


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
    family : ndarray or None
        ``(k, N, N)`` orthonormal elements whose products span the
        algebra: the family the closure was certified with, set by
        :func:`generate_algebra` and so by :meth:`from_span`.  None when
        no such family is known (a planted algebra, a center, the algebras
        of a TRO); the basis then stands in for it.
    """

    basis: Subspace
    unit: np.ndarray | None = None
    family: np.ndarray | None = None

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
        if not self.contains(x, tol=tol):
            raise NotInAlgebra(
                f"{what} is not in the algebra "
                f"(residual {self.basis.residual(x):.3e})"
            )
        return x

    def require_projection(self, e, tol=DEFAULT_TOL, what="element"):
        """``e`` as a member of the algebra that is a self-adjoint
        idempotent, both to within ``tol.member * max(1, ||e||)``."""
        e = self.require_member(e, tol=tol, what=what)
        bound = tol.member * max(1.0, hs_norm(e))
        if hs_norm(e @ e - e) > bound or hs_norm(e - e.conj().T) > bound:
            raise NotAProjection(f"{what} is not a self-adjoint idempotent")
        return e

    @classmethod
    def from_span(cls, mats, ambient_dim=None, tol=DEFAULT_TOL):
        """Build an algebra from a family already spanning one.

        The family is orthonormalized and closed by :func:`generate_algebra`.
        A span is a *-closed algebra exactly when its closure has the same
        dimension (both spans decided by the ``tol.rank`` rule of
        :func:`grow_span`); otherwise :class:`ClosureViolation` is raised.
        Returns the generated algebra, with its unit and ``family``.
        """
        shape = None if ambient_dim is None else (ambient_dim, ambient_dim)
        space = orthonormalize(mats, tol=tol, shape=shape)
        if space.rows != space.cols:
            raise ShapeMismatch("algebra elements must be square")
        alg = generate_algebra(space.rows, space.matrices, tol=tol)
        if alg.dim > space.dim:
            raise ClosureViolation(
                f"span of dimension {space.dim} is not a *-closed algebra: "
                f"its closure has dimension {alg.dim}"
            )
        return alg


def generate_algebra(ambient_dim, generators, tol=DEFAULT_TOL):
    """Smallest *-closed algebra of ``ambient_dim`` square matrices
    containing the generators.

    :func:`close_span` closes by generators: ``T`` is an orthonormal
    basis of ``span(G u G*)`` for two generic combinations ``G`` of the
    generators, the span grows under left multiplication by ``T``, and no
    step forms all pairwise products of the basis.  The returned algebra
    keeps ``T`` as its ``family``.
    """
    n = int(ambient_dim)
    if n < 1:
        raise ParamError(f"ambient dimension must be >= 1, got {ambient_dim}")
    seeds = [as_matrix(g, shape=(n, n)) for g in generators]
    space, family = close_span(
        seeds, (n, n), start=_with_adjoints, multipliers=lambda family: family, tol=tol
    )
    alg = StarAlgebra(basis=space, family=family.reshape(-1, n, n))
    alg.unit = unit_of(alg, tol=tol)
    return alg


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
    s = np.einsum("aij,aik->jk", mats.conj(), mats)
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


# Fixed probe coefficients keep center() deterministic without a seed
# parameter: the commutant of two generic elements of the algebra is
# already the center, and the result is verified against the full basis.
_PROBE_SEED = 0x0C57A


def _center_coords(space, probe_mats, tol):
    """Coordinate-space solutions of [x, p] = 0 for all probes p."""
    d = space.dim
    mats = space.matrices
    rows = [(mats @ p - p @ mats).reshape(d, -1) for p in probe_mats]
    m = np.hstack(rows).T  # (constraints, d)
    # each probe gives N^2 >= d constraint rows, so the reduced SVD's vh is
    # d x d and holds the nullspace
    _, s, vh = npl.svd(m, full_matrices=False)
    # The rank cutoff is floored at the scale of the probes themselves
    # (the basis rows have unit norm): when every commutator is roundoff
    # noise the constraint matrix must count as zero, not full rank.
    scale = max(hs_norm(p) for p in probe_mats)
    rank = int(np.sum(s > tol.rank * max(s[0], scale)))
    return vh[rank:].conj().T  # columns span the nullspace


def center(algebra, tol=DEFAULT_TOL):
    """The center of the algebra, as a (commutative) StarAlgebra.

    Solves the commutation equations against two pseudo-random probe
    elements and verifies that the candidate commutes with the whole
    basis (:class:`NumericalFailure` otherwise).  The probe coefficients
    are fixed, so the result is deterministic.
    """
    space = algebra.basis
    if space.dim == 0:
        return algebra
    mats = space.matrices
    rng = np.random.default_rng(_PROBE_SEED)
    probes = []
    for _ in range(2):
        coeff = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        probes.append(np.einsum("a,aij->ij", coeff, mats))
    coords = _center_coords(space, probes, tol)
    cand = coords.T @ space.stack  # rows: center elements, flattened
    adjs = cand.reshape(-1, *space.shape).conj().transpose(0, 2, 1)
    elements = np.vstack([cand, adjs.reshape(cand.shape)])
    result = StarAlgebra(basis=span_rows(elements, space.shape, tol=tol))
    # verify: every candidate commutes with every basis element
    cm = result.basis.matrices
    comm = cm[:, None] @ mats[None] - mats[None] @ cm[:, None]
    worst = float(np.max(np.abs(comm), initial=0.0))
    if worst > tol.member:
        raise NumericalFailure(
            f"center candidate fails to commute with the algebra "
            f"(residual {worst:.3e}, bound {tol.member:.3e})"
        )
    result.unit = algebra.unit if algebra.unit is not None else unit_of(result, tol=tol)
    return result


def random_self_adjoint(algebra, seed):
    """A reproducible random self-adjoint element of the algebra.

    Real standard-normal coefficients against the Hermitian parts of the
    orthonormal basis; the same seed always gives the same element.
    """
    rng = np.random.default_rng(seed)
    return sample_self_adjoint(algebra, rng)


def sample_self_adjoint(algebra, rng):
    """Like :func:`random_self_adjoint` but drawing from a live generator."""
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
