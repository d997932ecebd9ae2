"""Block structure of finite-dimensional *-closed matrix algebras.

Such an algebra is a direct sum of full matrix blocks, each appearing
with a multiplicity: conjugating by a suitable unitary turns every
element into ``blockdiag_k (I_{m_k} (x) alpha_k)`` with ``alpha_k`` an
arbitrary ``n_k x n_k`` matrix.  :func:`wedderburn_decompose` finds that
unitary constructively:

1. central projections from the spectral clusters of one central element
   ``sum_i b_i h b_i*`` over an orthonormal basis ``(b_i)``, for a generic
   ``h`` (:func:`~cstarlab.algebra.central_projections`);
2. inside each block ``c A``, the minimal projections as the spectral
   clusters of one generic self-adjoint element, all at once; their count
   ``n_k`` is certified by ``dim A = sum n_k^2``;
3. matrix units from the polar parts of ``e_i y e_1`` for one generic
   ``y``, the transporters from each minimal projection to the first;
4. the basis change from eigenvectors of the first minimal projection,
   moved around by the matrix units.

Every random element is the orthogonal projection of a seeded Gaussian
matrix onto a span, so for a given seed it depends on the span only, not
on the basis that represents it.

Everything downstream (socle, unit partition, the identity
``dim A = sum n_k^2``, the Dales-Zelazko style maximal-ideal check) reads
off this decomposition and re-verifies what it claims.
"""

import numpy as np
from dataclasses import dataclass, field

from .config import DEFAULT_TOL
from .errors import (
    DegenerateRandomness,
    NotAProjection,
    NotUnital,
    ParamError,
    VerificationFailure,
    check,
)
from .algebra import central_projections
from .ideals import (
    _corner_space,
    generate_right_ideal,
    is_minimal_projection,
    projection_generator,
)
from .linalg import hermitian_eig, hs_norm, project, pseudo_inverse_sqrt, spectral_clusters

__all__ = [
    "BlockDecomposition",
    "UnitPartition",
    "DalesZelazkoReport",
    "wedderburn_decompose",
    "socle",
    "unit_partition_certificate",
    "corner_dimension",
    "verify_dales_zelazko",
    "minimal_projection_below",
]

_MAX_DRAWS = 3


@dataclass(eq=False)
class BlockDecomposition:
    """Complete structure data for one algebra.

    ``matrix_units[k]`` has shape ``(n_k, n_k, N, N)``; its ``[i, j]``
    entry maps the ``j``-th copy of the block's column space onto the
    ``i``-th.  ``basis_change`` is the ambient unitary bringing every
    element to the form ``blockdiag_k (I_{m_k} (x) alpha_k)`` followed by
    zeros on the kernel of the algebra unit.
    """

    central_projections: list
    block_sizes: list
    multiplicities: list
    matrix_units: list
    basis_change: np.ndarray
    residuals: dict = field(default_factory=dict)

    @property
    def num_blocks(self):
        return len(self.block_sizes)

    def block_signature(self):
        """Sorted (size, multiplicity) pairs, the isomorphism invariant."""
        return sorted(zip(self.block_sizes, self.multiplicities), reverse=True)

    def block_form(self, a):
        """``U* a U`` for the stored basis change."""
        u = self.basis_change
        return u.conj().T @ a @ u


@dataclass(eq=False)
class UnitPartition:
    """Minimal projections ``e_i`` and coefficients ``a_i`` with
    ``sum_i e_i a_i`` equal to the algebra unit."""

    projections: list
    coefficients: list
    residual: float


def _draw(space, rng):
    """Orthogonal projection onto ``space`` of a seeded complex Gaussian
    matrix.  For a fixed generator state the result depends on the span
    only, not on the orthonormal basis that represents it."""
    g = rng.standard_normal(space.shape) + 1j * rng.standard_normal(space.shape)
    return project(space.stack, g.reshape(1, -1)).reshape(space.shape)


def _clusters(space, p, rng, tol):
    """Nonzero spectral clusters, in ascending order, of ``p h p + 2||h|| p``
    for the Hermitian part ``h`` of one draw from ``space``.  The shift
    lifts the range of ``p`` clear of zero, so the discarded zero cluster
    is the kernel of ``p``."""
    y = _draw(space, rng)
    h = 0.5 * (y + y.conj().T)
    x = p @ h @ p + 2.0 * hs_norm(h) * p
    return spectral_clusters(x, tol)


def minimal_projection_below(parent, start, seed=0, tol=DEFAULT_TOL):
    """A minimal projection of the algebra dominated by ``start``: the top
    spectral cluster of a generic self-adjoint element of ``start A start``,
    certified by the one-dimensional corner ``e A e = C e``.

    ``start`` must be a nonzero projection in the algebra, else
    :class:`NotAProjection` is raised.  The draw is randomized but
    reproducible through ``seed``.
    """
    start = parent.require_projection(start, tol=tol, what="starting projection")
    if hs_norm(start) <= tol.member:
        raise NotAProjection("no minimal projection lies below the zero projection")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        found = _clusters(parent.basis, start, rng, tol)
        if found and parent.contains(found[-1], tol=tol):
            if _corner_space(parent, found[-1], found[-1], tol) == 1:
                return found[-1]
    raise DegenerateRandomness(
        f"{_MAX_DRAWS} random corner elements failed to isolate a minimal projection"
    )


def _central_projections(parent, rng, tol):
    """:func:`central_projections` of generic draws, until one separates."""
    for _ in range(_MAX_DRAWS):
        found = central_projections(parent, _draw(parent.basis, rng), tol=tol)
        if found is not None:
            return found
    raise DegenerateRandomness(
        f"{_MAX_DRAWS} random central elements failed to separate the blocks"
    )


def _block_data(parent, central, rng, tol):
    """Minimal projections, matrix units and (size, multiplicity) of the
    block cut out by one minimal central projection ``c``.

    The minimal projections are the spectral clusters of one generic
    self-adjoint element of ``c A``; a draw whose clusters have unequal
    traces or leave the algebra is redrawn.  Their minimality is certified
    by the caller's identity ``dim A = sum n_k^2``: ``r`` orthogonal nonzero
    projections of ``A`` summing to ``c`` have ``r <= n_k``, with equality
    only when every one is minimal.  The transporters ``e_i -> e_1`` are the
    polar parts of ``e_i y e_1`` for one generic ``y`` in ``A``.
    """
    for _ in range(_MAX_DRAWS):
        minimals = _clusters(parent.basis, central, rng, tol)
        traces = [float(np.real(np.trace(e))) for e in minimals]
        flat = np.array([e.ravel() for e in minimals])
        if traces and max(traces) - min(traces) <= 0.5 and (
            parent.basis.max_relative_residual(flat) <= tol.member
        ):
            break
    else:
        raise DegenerateRandomness(
            f"{_MAX_DRAWS} random elements failed to split a block into minimal projections"
        )
    size = len(minimals)

    y = _draw(parent.basis, rng)
    ws = [e @ y @ minimals[0] for e in minimals]
    varr = np.array([w @ pseudo_inverse_sqrt(w.conj().T @ w, tol=tol) for w in ws])
    units = varr[:, None] @ varr.conj().transpose(0, 2, 1)[None]

    mult_f = traces[0]
    mult = int(round(mult_f))
    if mult < 1:
        raise VerificationFailure(f"multiplicity is not a positive integer: trace {mult_f!r}")
    check(f"multiplicity is not an integer: trace {mult_f!r}", abs(mult_f - mult),
          tol.member * max(1.0, mult_f))
    rank_f = float(np.real(np.trace(central)))
    check(f"block rank {rank_f!r} is not size*multiplicity = {size * mult}",
          abs(rank_f - size * mult), tol.member * max(1.0, rank_f))
    return {
        "central": central,
        "size": size,
        "multiplicity": mult,
        "units": units,
        "transporters": varr,
    }


def _basis_change(parent, blocks, tol):
    """Assemble the block-diagonalizing unitary from the sorted blocks."""
    n_amb = parent.ambient_dim
    cols = []
    for blk in blocks:
        e11 = blk["units"][0, 0]
        dec = hermitian_eig(e11, tol=tol)
        sel = dec.eigenvalues > 0.5
        if int(np.sum(sel)) != blk["multiplicity"]:
            raise VerificationFailure("rank of a diagonal unit disagrees with multiplicity")
        u_cols = dec.basis[:, sel]
        for j in range(blk["multiplicity"]):
            uj = u_cols[:, j]
            for v in blk["transporters"]:
                cols.append(v @ uj)
    dec = hermitian_eig(parent.unit, tol=tol)
    kernel = dec.basis[:, dec.eigenvalues < 0.5]
    for j in range(kernel.shape[1]):
        cols.append(kernel[:, j])
    u = np.array(cols).T
    if u.shape != (n_amb, n_amb):
        raise VerificationFailure(
            f"basis change is not square: {u.shape}; block data inconsistent"
        )
    check("basis change is not unitary", hs_norm(u.conj().T @ u - np.eye(n_amb)),
          tol.member * n_amb)
    return u


def _block_form_residual(parent, blocks, u):
    """Largest deviation of any basis element from blockdiag(I_m (x) alpha)."""
    t = u.conj().T @ parent.basis.matrices @ u
    recon = np.zeros_like(t)
    off = 0
    for blk in blocks:
        n_k = blk["size"]
        alpha = t[:, off : off + n_k, off : off + n_k]
        for _ in range(blk["multiplicity"]):
            recon[:, off : off + n_k, off : off + n_k] = alpha
            off += n_k
    return float(np.max(np.linalg.norm(t - recon, axis=(1, 2)), initial=0.0))


def wedderburn_decompose(parent, seed=0, tol=DEFAULT_TOL):
    """Block decomposition of a *-closed matrix algebra.

    Deterministic given ``(parent, seed)``.  Blocks are ordered by
    descending size, then descending multiplicity, then a fingerprint of
    the central projection, so equal inputs give equal outputs.

    Raises :class:`DegenerateRandomness` when three successive random
    draws fail to separate spectral clusters, and
    :class:`VerificationFailure` when a structural identity (integrality
    of multiplicities, ``dim A = sum n_k^2``, unitarity of the basis
    change) fails numerically.
    """
    n_amb = parent.ambient_dim
    if parent.dim == 0:
        return BlockDecomposition(
            central_projections=[],
            block_sizes=[],
            multiplicities=[],
            matrix_units=[],
            basis_change=np.eye(n_amb, dtype=np.complex128),
            residuals={"block_form": 0.0},
        )
    if parent.unit is None:
        raise NotUnital("algebra has no detected unit; cannot decompose")
    rng = np.random.default_rng(seed)
    centrals = _central_projections(parent, rng, tol)
    blocks = [_block_data(parent, c, rng, tol) for c in centrals]

    def fingerprint(blk):
        return tuple(np.round(np.real(np.diag(blk["central"])), 6))

    blocks.sort(key=lambda blk: (-blk["size"], -blk["multiplicity"], fingerprint(blk)))

    total = sum(blk["size"] ** 2 for blk in blocks)
    if total != parent.dim:
        raise VerificationFailure(
            f"dimension identity failed: sum n_k^2 = {total} != dim A = {parent.dim}"
        )

    u = _basis_change(parent, blocks, tol)
    worst = check("basis elements miss the block form",
                  _block_form_residual(parent, blocks, u), tol.composite)

    return BlockDecomposition(
        central_projections=[blk["central"] for blk in blocks],
        block_sizes=[blk["size"] for blk in blocks],
        multiplicities=[blk["multiplicity"] for blk in blocks],
        matrix_units=[blk["units"] for blk in blocks],
        basis_change=u,
        residuals={"block_form": worst},
    )


def socle(parent, decomposition=None, seed=0, tol=DEFAULT_TOL):
    """The right ideal generated by all minimal projections.

    For these (semisimple) algebras the socle is everything, so the
    returned ideal must coincide with the algebra; that is asserted.
    """
    dec = decomposition or wedderburn_decompose(parent, seed=seed, tol=tol)
    gens = [dec.matrix_units[k][i, i] for k in range(dec.num_blocks)
            for i in range(dec.block_sizes[k])]
    ideal = generate_right_ideal(parent, gens, tol=tol)
    if ideal.basis.dim != parent.dim:
        raise VerificationFailure(
            f"socle has dimension {ideal.basis.dim} != dim A = {parent.dim}"
        )
    return ideal


def unit_partition_certificate(parent, decomposition=None, seed=0, tol=DEFAULT_TOL):
    """Write the unit as ``sum_i e_i a_i`` with every ``e_i`` minimal.

    The diagonal matrix units do it with ``a_i = e_i``; each factor is
    re-verified minimal and the sum checked against the unit.
    """
    if parent.unit is None:
        raise NotUnital("algebra has no unit to partition")
    dec = decomposition or wedderburn_decompose(parent, seed=seed, tol=tol)
    projections = [dec.matrix_units[k][i, i] for k in range(dec.num_blocks)
                   for i in range(dec.block_sizes[k])]
    for e in projections:
        if not is_minimal_projection(parent, e, tol=tol):
            raise VerificationFailure("a diagonal matrix unit is not minimal")
    coefficients = [e.copy() for e in projections]
    total = sum(e @ a for e, a in zip(projections, coefficients))
    residual = check("partition of unity misses the unit", hs_norm(total - parent.unit),
                     tol.member * max(1.0, hs_norm(parent.unit)))
    return UnitPartition(
        projections=projections, coefficients=coefficients, residual=residual
    )


def corner_dimension(parent, e, f, tol=DEFAULT_TOL):
    """Dimension of ``e A f`` for projections ``e``, ``f`` in the algebra.

    When both projections are minimal the dimension is 0 or 1 (0 exactly
    when they live in different blocks); that bound is asserted.
    """
    e = parent.require_projection(e, tol=tol, what="left projection")
    f = parent.require_projection(f, tol=tol, what="right projection")
    dim = _corner_space(parent, e, f, tol)
    nonzero = hs_norm(e) > tol.member and hs_norm(f) > tol.member
    if nonzero and dim > 1:
        if is_minimal_projection(parent, e, tol=tol) and is_minimal_projection(
            parent, f, tol=tol
        ):
            raise VerificationFailure(
                f"corner between minimal projections has dimension {dim}"
            )
    return dim


@dataclass(eq=False)
class DalesZelazkoTrial:
    block_index: int
    certificate: object
    support_agreement: float
    is_maximal: bool
    single_generation: bool
    tol_member: float

    @property
    def ok(self):
        return (
            self.is_maximal
            and self.single_generation
            and self.support_agreement <= self.tol_member
        )


@dataclass(eq=False)
class DalesZelazkoReport:
    block_sizes: list
    multiplicities: list
    dimension_identity_ok: bool
    trials: list

    @property
    def all_ok(self):
        return self.dimension_identity_ok and all(t.ok for t in self.trials)


def verify_dales_zelazko(parent, trials=10, seed=0, tol=DEFAULT_TOL):
    """Check that every sampled maximal right ideal is singly generated
    by a projection.

    Samples ``trials`` maximal ideals by conjugating a diagonal matrix
    unit inside a cycling choice of block (trial ``t`` takes block
    ``t % num_blocks``) with a random block unitary, and forms
    ``J = (u - e) A``.  One :func:`projection_generator` certificate per
    trial carries both verdicts: it certifies ``J = pA``, so single
    generation holds, and ``J`` is maximal when ``u - p`` is minimal.
    Also records the dimension identity ``dim A = sum n_k^2``.  At least
    one trial is required: a sweep of none would certify nothing
    (:class:`ParamError`).
    """
    if trials < 1:
        raise ParamError(f"need at least one trial, got {trials}")
    if parent.unit is None:
        raise NotUnital("maximal ideal analysis needs a unital algebra")
    dec = wedderburn_decompose(parent, seed=seed, tol=tol)
    rng = np.random.default_rng([seed, 0xDA1E5])
    u = parent.unit
    out = []
    for t in range(trials):
        k = t % dec.num_blocks
        n_k = dec.block_sizes[k]
        units = dec.matrix_units[k]
        g = rng.standard_normal((n_k, n_k)) + 1j * rng.standard_normal((n_k, n_k))
        q, _ = np.linalg.qr(g)
        w = q[:, 0]
        # e = sum_ij w_i conj(w_j) e_ij, one row of weights against the units
        e = (np.outer(w, w.conj()).ravel() @ units.reshape(n_k * n_k, -1)).reshape(u.shape)
        e = 0.5 * (e + e.conj().T)
        g = u - e
        # e = u means the zero ideal; flush the roundoff left in u - e
        gens = [] if hs_norm(g) <= tol.member * max(1.0, hs_norm(u)) else [g]
        cert = projection_generator(parent, gens, tol=tol)
        out.append(
            DalesZelazkoTrial(
                block_index=k,
                certificate=cert,
                support_agreement=hs_norm(cert.projection - g),
                # J = pA with u - p minimal is the paper's criterion
                is_maximal=is_minimal_projection(parent, u - cert.projection, tol=tol),
                # projection_generator has certified p in J (p_in_ideal) and
                # p g = g (ideal_equals_pA): J = pA
                single_generation=True,
                tol_member=tol.member,
            )
        )
    dim_ok = sum(n * n for n in dec.block_sizes) == parent.dim
    return DalesZelazkoReport(
        block_sizes=list(dec.block_sizes),
        multiplicities=list(dec.multiplicities),
        dimension_identity_ok=dim_ok,
        trials=out,
    )
