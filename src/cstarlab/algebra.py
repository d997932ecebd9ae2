"""Concrete finite-dimensional *-algebras of complex matrices.

A :class:`StarAlgebra` is a subspace of ``N x N`` matrices closed under
products and adjoints, held as the isometry stacks of its blocks; its
dense basis is written down only when a caller reads it.  Closedness is
what separates an algebra from a mere subspace, and no span is closed to
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

import functools
import itertools
from dataclasses import dataclass

import numpy as np

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
    gram_sum,
    hs_norm,
    identity_defect,
    orthonormalize,
    safe_norm,
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


def _units(left, right, out=None):
    """The products ``x y*`` over the ``(p, n, m)`` isometry stack ``left``
    and the ``(q, n', m)`` stack ``right``, as one batched product of shape
    ``(p, q, n, n')``, into ``out`` when given: the matrix units ``e_ij =
    v_i v_j*`` of a block's transporters, and a TRO block's ``a_i b_j*``."""
    return np.matmul(left[:, None], right.conj().transpose(0, 2, 1)[None], out=out)


def _block_space(blocks, shape):
    """The orthonormal units ``x y* / sqrt(m_k)`` over the stacks ``(x, y)``
    of each block, in one allocation: an algebra's basis for the blocks
    ``(v, v)``, a TRO's, and a submodule's or its ideal's for the ranges of ``p``."""
    r, c = shape
    stack = np.empty((sum(len(x) * len(y) for x, y in blocks), r, c), dtype=np.complex128)
    at = 0
    for x, y in blocks:
        end = at + len(x) * len(y)
        _units(x, y, out=stack[at:end].reshape(len(x), len(y), r, c))
        stack[at:end] /= np.sqrt(x.shape[2])
        at = end
    return Subspace(r, c, stack.reshape(-1, r * c))


def _side_by_side(v):
    """The ``(n, N, m)`` isometry stack ``v`` laid side by side as one ``N x (n
    m)`` isometry ``[v_1 ... v_n]``."""
    return v.transpose(1, 0, 2).reshape(v.shape[1], -1)


def _coordinates(v, xs):
    """``X[s, i, j] = tr(v_i* x_s v_j) = <v_i v_j*, x_s>`` over the ``(n, N,
    m)`` isometry stack ``v`` and the ``(s, N, N)`` stack ``xs``, from one
    ``(n m) x (n m)`` compression per element."""
    count, _, mult = v.shape
    flat = _side_by_side(v)
    comp = (flat.conj().T @ xs @ flat).reshape(-1, count, mult, count, mult)
    return np.einsum("siuju->sij", comp)


def _unitary_completion(stacks, n):
    """The ``n x n`` unitary whose first columns are the isometry stacks, with
    orthogonal ranges, laid side by side (:func:`_side_by_side`), and whose
    other columns complete them."""
    f = np.concatenate([np.zeros((n, 0)), *(_side_by_side(v) for v in stacks)], axis=1)
    if f.shape[1] == n:
        return f
    return np.concatenate([f, np.linalg.qr(f, mode="complete")[0][:, f.shape[1]:]], axis=1)


def _frame(pairs, shape):
    """Block coordinates for the orthonormal units ``x_i y_j* / sqrt(m_k)``
    over one pair ``(x, y)`` of ``(p_k, r, m_k)`` and ``(q_k, c, m_k)``
    isometry stacks per block (an algebra's blocks ``(v, v)``, or a TRO's
    row and column stacks) in ``r x c = shape`` matrices.

    Returns ``(left*, right, (rows, cols), starts, mults)`` for the
    completions ``left`` of all the ``x`` and ``right`` of all the ``y``
    (:func:`_unitary_completion`).  In ``left* z
    right`` the unit ``t = (k, i, j)`` sits on the ``mults[t] = m_k``
    entries ``((i, u), (j, u))``, ``u < m_k``, of block ``k``; they are
    ``(rows[e], cols[e])`` for ``e`` from ``starts[t]`` on.
    """
    rows, cols, mults = [], [], []
    at_x = at_y = 0
    for x, y in pairs:
        (p, _, m), q = x.shape, len(y)
        for i, j in itertools.product(range(p), range(q)):
            rows += range(at_x + i * m, at_x + (i + 1) * m)
            cols += range(at_y + j * m, at_y + (j + 1) * m)
        mults += [m] * (p * q)
        at_x, at_y = at_x + p * m, at_y + q * m
    mults = np.array(mults, dtype=int)
    left = _unitary_completion([x for x, _ in pairs], shape[0])
    right = _unitary_completion([y for _, y in pairs], shape[1])
    return (np.ascontiguousarray(left.conj().T), right,
            (np.array(rows, dtype=int), np.array(cols, dtype=int)),
            np.cumsum(mults) - mults, mults)


def _block_coordinates(frame, xs):
    """``(coords, residuals)`` of the ``(s, r, c)`` stack ``xs`` in a
    :func:`_frame`: ``coords[s, t]`` is ``P_k[i, j] = tr(x_i* x_s y_j) /
    m_k`` for the ``t``-th unit ``(k, i, j)``, so that ``sum_t coords[s, t]
    x_i y_j*`` is the orthogonal projection of ``x_s`` onto the units' span,
    and ``residuals[s]`` the distance from ``x_s`` to it.  In ``left* x_s
    right`` that projection is ``P_k[i, j]`` on each unit's entries and zero
    elsewhere, so subtracting it there leaves a matrix with the residual's
    norm: two products per element, with no cancellation."""
    left_h, right, (rows, cols), starts, mults = frame
    y = left_h @ xs @ right
    diagonal = y[:, rows, cols]
    if len(starts) == len(rows):  # every m_k is 1: each unit is one entry
        coords = diagonal
        y[:, rows, cols] = 0.0
    else:
        coords = np.add.reduceat(diagonal, starts, axis=1) / mults
        y[:, rows, cols] = diagonal - np.repeat(coords, mults, axis=1)
    return coords, safe_norm(y, axis=(1, 2))


def _max_relative_residual(frame, xs):
    """Largest ``||x - Px|| / max(1, ||x||)`` over the ``(s, r, c)`` stack
    ``xs`` (0.0 for none), ``P`` the projection onto the span of a
    :func:`_frame`'s units (:func:`_block_coordinates`): the membership rule
    of algebras and TROs, ``x`` in the span when at most ``tol.member``."""
    scales = np.maximum(1.0, safe_norm(xs, axis=(1, 2)))
    return float(np.max(_block_coordinates(frame, xs)[1] / scales, initial=0.0))


def _compress(algebra, p, tol):
    """``(ranges, residual)`` of a projection ``p`` against the ``(n_k, N,
    m_k)`` isometry stacks of the algebra's blocks: a decomposition's
    transporters, or a TRO's row stacks for its left algebra.

    ``residual``, the distance from ``p`` to its block projection
    (:func:`_block_coordinates`) over ``max(1, ||p||)``, must stay within
    ``tol.member`` (:class:`NotInAlgebra`).  The compressions ``P_k``, padded
    with zeros to one size, take one batched eigendecomposition: together
    they must lie within ``tol.member`` of a projection
    (:class:`VerificationFailure`), and ``ranges[k]`` stacks the ``N x m_k``
    isometries ``v_q = sum_i q_i v_i`` over the eigenvectors ``q`` of ``P_k``
    above 1/2, an orthonormal basis of its range.  So ``dim pA = sum_k n_k
    rank P_k``, and ``u - p``, with the compressions ``1 - P_k``, is minimal
    exactly when ``sum_k (n_k - rank P_k) = 1``.
    """
    stacks = algebra.blocks
    coords, dist = _block_coordinates(algebra.frame, p[None])
    width = max((len(v) for v in stacks), default=0)
    comps = np.zeros((len(stacks), width, width), dtype=np.complex128)
    at = 0
    for k, v in enumerate(stacks):
        n = len(v)
        comps[k, :n, :n] = coords[0, at:at + n * n].reshape(n, n)
        at += n * n
    resid = check("projection p is not in the algebra of its blocks, relative to its norm",
                  float(dist[0]) / max(1.0, hs_norm(p)), tol.member, NotInAlgebra)
    w, q = np.linalg.eigh(0.5 * (comps + comps.conj().transpose(0, 2, 1)))
    check("a block compression of p is not a projection",
          hs_norm(np.minimum(np.abs(w), np.abs(1.0 - w))), tol.member)
    ranges = [(q[k][:len(v), w[k] > 0.5].T @ v.reshape(len(v), -1)).reshape(-1, *v.shape[1:])
              for k, v in enumerate(stacks)]
    return ranges, resid


def _require_idempotent(e, tol, what):
    """``e``, a self-adjoint idempotent within ``tol.member * max(1, ||e||)``."""
    check(f"{what} is not a self-adjoint idempotent",
          max(hs_norm(e @ e - e), hs_norm(e - e.conj().T)),
          tol.member * max(1.0, hs_norm(e)), NotAProjection)
    return e


@dataclass(eq=False)
class StarAlgebra:
    """A *-closed algebra of ``N x N`` complex matrices, held as its blocks.

    Attributes
    ----------
    ambient_dim : int
        ``N``.
    blocks : list of ndarray
        Per block, the ``(n_k, N, m_k)`` isometry stack of its transporters
        ``v_i``, with orthogonal ranges: the matrix units ``v_i v_j*`` span
        the block ``M_{n_k} (x) 1_{m_k}``.  No blocks is the zero algebra.
    family : ndarray
        ``(k, N, N)`` unit-norm elements that generate the algebra with
        their adjoints: the two draws its block decomposition was
        certified with, set by :func:`generate_algebra` and
        :meth:`from_span`.  Left out, it is the shift ``S = sum v_p
        v_{p+1}*``, ``S*`` and ``D = sum_k (k+1) v_1 v_1*``, whose words
        reach every unit: each ``v_1 v_1*`` is a polynomial in ``D``, and
        ``(S*)^p v_1 v_1* S^q = v_{p+1} v_{q+1}*``.

    The ``unit`` ``sum v_i v_i*`` (None for the zero algebra), the
    orthonormal ``basis`` ``e_ij / sqrt(m_k)`` (:func:`_block_space`) and
    the ``frame`` of block coordinates (:func:`_frame`) that membership and
    :func:`_compress` read are formed on first use.
    """

    ambient_dim: int
    blocks: list
    family: np.ndarray | None = None

    def __post_init__(self):
        if self.family is None:
            n = self.ambient_dim
            shift = sum(((v[:-1] @ v[1:].conj().transpose(0, 2, 1)).sum(axis=0)
                         for v in self.blocks), np.zeros((n, n), dtype=np.complex128))
            weights = sum((k + 1) * v[0] @ v[0].conj().T for k, v in enumerate(self.blocks))
            self.family = np.array([x / hs_norm(x) for x in (shift, shift.conj().T, weights)
                                    if np.any(x)], dtype=np.complex128).reshape(-1, n, n)

    @property
    def dim(self):
        return sum(len(v) ** 2 for v in self.blocks)

    @functools.cached_property
    def unit(self):
        return sum(gram_sum(v) for v in self.blocks) if self.blocks else None

    @functools.cached_property
    def basis(self):
        return _block_space([(v, v) for v in self.blocks], (self.ambient_dim,) * 2)

    @functools.cached_property
    def frame(self):
        return _frame([(v, v) for v in self.blocks], (self.ambient_dim,) * 2)

    def max_relative_residual(self, xs):
        """Largest ``||x - Px|| / max(1, ||x||)`` over the ``(s, N, N)`` stack
        ``xs`` (0.0 for none), ``P`` the projection onto the algebra
        (:func:`_max_relative_residual`): ``x`` is in it when at most
        ``tol.member``."""
        xs = np.asarray(xs, dtype=np.complex128).reshape(-1, self.ambient_dim, self.ambient_dim)
        return _max_relative_residual(self.frame, xs)

    def contains(self, x, tol=DEFAULT_TOL):
        x = as_matrix(x, shape=(self.ambient_dim,) * 2)
        return self.max_relative_residual(x[None]) <= tol.member

    def require_member(self, x, tol=DEFAULT_TOL, what="element"):
        x = as_matrix(x, shape=(self.ambient_dim,) * 2)
        check(f"{what} is not in the algebra, relative to its norm",
              self.max_relative_residual(x[None]), tol.member, NotInAlgebra)
        return x

    def require_projection(self, e, tol=DEFAULT_TOL, what="element"):
        """``e`` as a member of the algebra that is a self-adjoint
        idempotent, both to within ``tol.member * max(1, ||e||)``."""
        return _require_idempotent(self.require_member(e, tol=tol, what=what), tol, what)

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
        :class:`ClosureViolation`.  The decomposition's algebra is returned
        with the given basis, not the one its blocks write down.
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
        closed.basis = space
        return closed


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
    unchanged; otherwise the kernel of its unit ``u`` (eigenvalues below
    1/2) joins its blocks as one block of size one.
    """
    n = algebra.ambient_dim
    eye = np.eye(n, dtype=np.complex128)
    if algebra.contains(eye, tol=tol):
        return algebra
    w, q = np.linalg.eigh(np.zeros_like(eye) if algebra.unit is None else algebra.unit)
    return StarAlgebra(n, [*algebra.blocks, q[:, w < 0.5][None]])


def center(algebra, tol=DEFAULT_TOL):
    """The center of the algebra, as a (commutative) StarAlgebra: one block
    of size one per block of the algebra, its stack the block's
    transporters laid side by side, so that its basis is the central
    projections ``sum_i v_i v_i*`` at unit norm and its unit the
    algebra's.  Raises :class:`NumericalFailure` when a projection fails
    to commute with the ``family``.
    """
    n = algebra.ambient_dim
    z = StarAlgebra(n, [v.transpose(1, 0, 2).reshape(1, n, -1) for v in algebra.blocks])
    cm, gens = z.basis.matrices, algebra.family
    comm = cm[:, None] @ gens[None] - gens[None] @ cm[:, None]
    check("center candidate fails to commute with the algebra",
          float(np.max(np.abs(comm), initial=0.0)), tol.member, NumericalFailure)
    return z


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
