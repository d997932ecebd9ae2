"""Block structure of finite-dimensional *-closed matrix algebras.

Such an algebra is a direct sum of full matrix blocks, each appearing
with a multiplicity: conjugating by a suitable unitary turns every
element into ``blockdiag_k (I_{m_k} (x) alpha_k)`` with ``alpha_k`` an
arbitrary ``n_k x n_k`` matrix.  One routine, :func:`_decompose`, finds
that unitary from a family ``F`` that generates the algebra ``A`` and two
random elements ``y``, ``z`` of it:

1. the unit ``u`` is the support projection of ``sum x x*`` over ``F``
   and its adjoints, since the range of ``A`` is the sum of their ranges,
   cut on the square roots of its eigenvalues (the scale of ``F``);
2. the minimal projections are the spectral clusters of the Hermitian
   part ``h`` of ``y`` on the range of ``u``;
3. they fall into blocks by which corners ``e_i z e_j`` are nonzero, at a
   cut placed in the gap of the corners' norms; one first-order step with
   ``z`` moves their bases onto the blocks' ranges, which ``y`` resolves
   only as well as the gaps between its eigenvalues of different blocks
   allow, and the transporters from each minimal projection to the first
   of its block are the polar parts of ``e_i z e_1``;
4. the basis change ``U`` lists, block by block, each copy of the block
   as one column of every transporter, then the kernel of ``u``.

With ``B = U (sum_k M_{n_k} (x) 1_{m_k}) U*`` the certificate is: ``y``
and ``z`` lie in ``B``; in each block the compression of ``h`` has a
simple spectrum, gapped and shared with no other block, and every corner
of ``z`` inside the block is nonzero, so the compressions have the
scalars as commutant (Burnside) and no two blocks are intertwined by
them: ``y`` and ``z`` generate ``B`` and ``B`` lies in ``A``; every
member of ``F`` lies in ``B``, so ``A`` lies in ``B``; and the copies of
each block agree on ``F``, so no multiplicity merges blocks ``F`` tells
apart.  Hence ``dim A = sum n_k^2``, without forming the span of ``A``.

:func:`decompose_generators` draws ``y`` and ``z`` as seeded polynomials
in the generators.  :func:`wedderburn_decompose` of a closed algebra
certifies against its orthonormal basis and draws orthogonal projections
of seeded Gaussian matrices onto its span, so for a given seed its result
depends on the span only, not on the basis that represents it.
Block structure is held as ``(n_k, N, m_k)`` isometry stacks, the
transporters: a :class:`~cstarlab.algebra.StarAlgebra` is its stacks
(``BlockDecomposition.algebra``, planted algebras, a TRO's two algebras).
:func:`~cstarlab.algebra._compress` reads ``dim pA`` and minimality off the
compressions of a projection ``p`` against them, and a minimal projection
is drawn off a block's coordinates (:func:`_top_projection`).

Everything downstream (socle, unit partition, the Dales-Zelazko style
maximal-ideal check) reads off this decomposition and re-verifies what it claims.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import StarAlgebra, _compress, _coordinates, _require_idempotent, _units
from .config import DEFAULT_TOL
from .errors import (
    DegenerateRandomness,
    GapNotFound,
    NotAProjection,
    NotUnital,
    ParamError,
    VerificationFailure,
    check,
)
from .ideals import (
    _corner_space,
    generate_right_ideal,
    is_minimal_projection,
    projection_generator,
)
from .linalg import (
    _stack_inputs,
    as_matrix,
    cluster_partition,
    gram_sum,
    hermitian_eig,
    hs_norm,
    project,
    safe_norm,
    spectrum_cut,
)

__all__ = [
    "BlockDecomposition",
    "UnitPartition",
    "DalesZelazkoReport",
    "wedderburn_decompose",
    "decompose_generators",
    "socle",
    "unit_partition_certificate",
    "corner_dimension",
    "verify_dales_zelazko",
    "minimal_projection_below",
]

_MAX_DRAWS = 3
# degree of the polynomials in a generating family that decompose_generators draws
_DEGREE = 2


@dataclass(eq=False)
class BlockDecomposition:
    """Complete structure data for one algebra.

    ``transporters[k]`` has shape ``(n_k, N, m_k)``: its ``i``-th entry is
    an isometry onto the range of the block's ``i``-th minimal projection,
    and ``matrix_units[k]``, of shape ``(n_k, n_k, N, N)``, is formed from
    them on first use, as is the certified ``algebra`` they span.
    ``basis_change`` is the ambient unitary bringing every element to the
    form ``blockdiag_k (I_{m_k} (x) alpha_k)`` followed by zeros on the
    kernel of the algebra unit.  ``draws`` is the ``(2, N, N)`` stack of
    the two random elements the decomposition was certified with, at unit
    norm, which generate the algebra with their adjoints (None for the
    zero algebra).
    """

    central_projections: list
    block_sizes: list
    multiplicities: list
    transporters: list
    basis_change: np.ndarray
    residuals: dict = field(default_factory=dict)
    draws: np.ndarray | None = None

    @property
    def num_blocks(self):
        return len(self.block_sizes)

    @functools.cached_property
    def matrix_units(self):
        """Per block, the ``[i, j]`` entry maps the ``j``-th copy of the
        block's column space onto the ``i``-th."""
        return [_units(t, t) for t in self.transporters]

    @functools.cached_property
    def algebra(self):
        """The certified algebra ``B = U (sum M_{n_k} (x) 1_{m_k}) U*`` as a
        :class:`StarAlgebra`, without closing a span: its blocks are the
        transporters, and its family the two certified ``draws``."""
        return StarAlgebra(self.basis_change.shape[0], self.transporters, family=self.draws)

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


def _top_projection(v, g):
    """``(values, x)``: the ascending eigenvalues of the Hermitian part of the
    coordinates ``tr(v_i* g v_j) / m`` of ``g`` against the ``(n, N, m)`` isometry
    stack ``v``, and the ``N x m`` isometry ``x = sum_i q_i v_i`` for the top
    eigenvector ``q``, whose range is that of the drawn projection
    (:func:`_range_projection`).  A change of the ``v_i`` conjugates the
    coordinates, and ``q`` with them."""
    coords = _coordinates(v, g[None])[0]
    w, q = np.linalg.eigh(coords + coords.conj().T)
    return w / (2 * v.shape[2]), np.tensordot(q[:, -1], v, axes=1)


def _range_projection(x):
    """The projection ``x x*`` onto the range of the isometry ``x``, made
    exactly self-adjoint."""
    e = x @ x.conj().T
    return 0.5 * (e + e.conj().T)


def minimal_projection_below(parent, start, seed=0, tol=DEFAULT_TOL):
    """A minimal projection of the algebra dominated by ``start``: the top
    eigenprojection in ``start A start`` of the Hermitian part of
    :func:`_draw`'s seeded Gaussian projected onto A, read off the ranges of
    ``start`` in A's blocks (:func:`_compress`, :func:`_top_projection`) with
    no basis of A.  A draw whose top eigenvalue :func:`cluster_partition`
    does not set apart is redrawn.  ``e`` is certified by ``start e = e``
    and by its compressions, of total rank 1.  ``start`` must be a nonzero
    projection (:class:`NotAProjection`) in A (:class:`NotInAlgebra`).
    """
    n = parent.ambient_dim
    start = _require_idempotent(as_matrix(start, shape=(n, n)), tol, "starting projection")
    ranges = [r for r in _compress(parent, start, tol)[0] if len(r)]
    if not ranges:
        raise NotAProjection("no minimal projection lies below the zero projection")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        tops = [_top_projection(r, g) for r in ranges]
        clusters, _ = cluster_partition(np.concatenate([w for w, _ in tops]), tol=tol)
        if len(clusters[-1]) == 1:
            break
    else:
        raise DegenerateRandomness(
            f"{_MAX_DRAWS} random corner elements failed to isolate a minimal projection")
    e = _range_projection(max(tops, key=lambda top: top[0][-1])[1])
    check("the drawn projection is not below the starting one", hs_norm(start @ e - e),
          tol.member * max(1.0, hs_norm(e)))
    if sum(len(r) for r in _compress(parent, e, tol)[0]) != 1:
        raise VerificationFailure("the drawn projection's block compressions are not of rank 1")
    return e


def _polynomial(family, unit, rng):
    """A seeded polynomial of degree :data:`_DEGREE` in the ``(k, N, N)``
    ``family``, evaluated by Horner: ``c_0 u + l_1 (c_1 u + l_2 (... l_d))``
    for the unit ``u``, complex Gaussian scalars ``c_i`` and complex
    Gaussian combinations ``l_i`` of the members and their adjoints."""
    k = family.shape[0]
    coeff = rng.standard_normal((2, _DEGREE, k)) + 1j * rng.standard_normal((2, _DEGREE, k))
    parts = (coeff / np.sqrt(2 * k) @ family.reshape(k, -1)).reshape(2, _DEGREE, *unit.shape)
    terms = parts[0] + parts[1].conj().transpose(0, 2, 1)
    consts = rng.standard_normal(_DEGREE) + 1j * rng.standard_normal(_DEGREE)
    y = terms[-1]
    for c, term in zip(consts[-1:0:-1], terms[-2::-1]):
        y = term @ (c * unit + y)
    return consts[0] * unit + y


def _minimal_bases(y, range_basis, tol):
    """Orthonormal bases of the spectral clusters, in ascending order, of
    the Hermitian part ``h`` of ``y`` on the range of the unit (given by
    its orthonormal ``range_basis``), with the eigenvalue of each basis
    column: the minimal projections when ``y`` is generic.  These are the
    nonzero clusters of ``u h u + 2||h|| u``; compressing ``h`` to the
    range instead of shifting it keeps the eigensolver's error at the
    scale of ``h``.  A cluster is one eigenvalue to the accuracy of the
    eigensolver, ``tol.spec`` of the spectrum's scale; one that spreads
    wider holds eigenvalues neither equal nor separated by ``tol.gap``
    (:class:`GapNotFound`)."""
    h = 0.5 * (y + y.conj().T)
    dec = hermitian_eig(range_basis.conj().T @ h @ range_basis, tol=tol)
    w = dec.eigenvalues
    clusters, _ = cluster_partition(w, tol=tol)
    spread = max(float(np.ptp(w[cl])) for cl in clusters)
    check("an eigenvalue cluster of the draw spreads into the gap band", spread,
          tol.spec * max(abs(w[0]), abs(w[-1])), GapNotFound)
    return [range_basis @ dec.basis[:, cl] for cl in clusters], w[np.concatenate(clusters)]


def _separation(corners, cols, values):
    """``1 + K``: one first-order step that moves the basis columns, grouped
    into blocks by the index arrays ``cols``, onto the blocks' ranges.

    The eigenvectors of ``h`` (eigenvalues ``values``) resolve two
    different blocks only to the eigensolver's error over the smallest gap
    between their eigenvalues, and eigenvalues of different blocks do not
    repel.  The Hermitian part ``g`` of the second draw, with the
    compression ``G`` given by ``corners``, has no block off the diagonal
    on the true ranges; where its spectra on two blocks are further apart
    than those of ``h`` (relative to each spectrum's scale), ``K_kl``
    solves the first-order condition ``G_kl + G_kk K_kl - K_kl G_ll = 0``,
    and ``K_lk = -K_kl*``.
    """
    g = 0.5 * (corners + corners.conj().T)
    k = np.zeros_like(g)
    eig = [np.linalg.eigh(g[np.ix_(c, c)]) for c in cols]
    top_h = float(np.max(np.abs(values)))
    top_g = max(float(np.max(np.abs(gam))) for gam, _ in eig)
    if top_g == 0.0:
        return np.eye(len(g)) + k
    for (ca, (ga, pa)), (cb, (gb, pb)) in itertools.combinations(zip(cols, eig), 2):
        gap_h = float(np.min(np.abs(values[ca][:, None] - values[cb][None]))) / top_h
        gap_g = float(np.min(np.abs(ga[:, None] - gb[None]))) / top_g
        if gap_g > gap_h:
            rotated = (pa.conj().T @ g[np.ix_(ca, cb)] @ pb) / (gb[None] - ga[:, None])
            k[np.ix_(ca, cb)] = pa @ rotated @ pb.conj().T
            k[np.ix_(cb, ca)] = -k[np.ix_(ca, cb)].conj().T
    return np.eye(len(g)) + k


def _blocks(bases, values, z, tol):
    """Group the minimal projections ``e_i`` (by their ``bases``) into
    blocks by which corners ``e_i z e_j`` of a second draw are nonzero,
    at a cut :func:`spectrum_cut` places in the gap of their norms, and
    move the bases onto the blocks' ranges (:func:`_separation`).  Each
    block's transporters are the polar parts of ``e_i z e_1``, for its
    first projection ``e_1``, as ``N x m`` isometries onto the ranges.

    A draw whose links are not a union of cliques of equal-rank
    projections did not separate the blocks (:class:`DegenerateRandomness`).
    """
    v = np.concatenate(bases, axis=1)
    sizes = [b.shape[1] for b in bases]
    starts = np.cumsum([0, *sizes[:-1]])
    corners = v.conj().T @ z @ v
    sq = np.add.reduceat(np.add.reduceat(np.abs(corners) ** 2, starts, axis=0), starts, axis=1)
    norms = np.sqrt(sq)
    cut, _ = spectrum_cut(np.sort(norms.ravel()), tol=tol)
    if cut is None:
        raise DegenerateRandomness("the second draw vanishes on the algebra")
    linked = norms > cut
    groups, seen = [], set()
    for i in range(len(bases)):
        if i in seen:
            continue
        members = np.flatnonzero(linked[i]).tolist()
        if i not in members or any(
            not np.array_equal(linked[j], linked[i]) or sizes[j] != sizes[i] for j in members
        ):
            raise DegenerateRandomness("the second draw links minimal projections inconsistently")
        seen.update(members)
        groups.append(members)
    cols = [np.concatenate([np.arange(starts[j], starts[j] + sizes[j]) for j in members])
            for members in groups]
    step = _separation(corners, cols, values)
    v = v @ step
    corners = step.conj().T @ corners @ step
    blocks = []
    for members, rows in zip(groups, cols):
        m, first = sizes[members[0]], starts[members[0]]
        c = corners[rows, first : first + m].reshape(len(members), m, m)
        # the polar part c (c* c)^(-1/2) of every corner at once
        w, vecs = np.linalg.eigh(c.conj().transpose(0, 2, 1) @ c)
        if not w.min() > cut * cut:
            raise DegenerateRandomness("a corner of the second draw between linked "
                                       "minimal projections is singular")
        polar = c @ (vecs / np.sqrt(w)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        range_basis = v[:, rows]
        blocks.append({
            "size": len(members),
            "multiplicity": m,
            "transporters": range_basis.reshape(-1, len(members), m).transpose(1, 0, 2) @ polar,
            "central": range_basis @ range_basis.conj().T,
        })
    return blocks


def _basis_change(blocks, kernel, tol):
    """Assemble the block-diagonalizing unitary from the sorted blocks:
    block by block, copy ``j`` of the block is column ``j`` of every
    transporter ``v_i`` (an ``N x m`` isometry onto the range of ``e_i``),
    and the ``kernel`` columns of the unit close it."""
    cols = [blk["transporters"].transpose(1, 2, 0).reshape(kernel.shape[0], -1)
            for blk in blocks]
    u = np.concatenate([*cols, kernel], axis=1)
    n_amb = u.shape[0]
    if u.shape != (n_amb, n_amb):
        raise VerificationFailure(
            f"basis change is not square: {u.shape}; block data inconsistent"
        )
    check("basis change is not unitary", hs_norm(u.conj().T @ u - np.eye(n_amb)),
          tol.member * n_amb)
    return u


def _block_form(mats, blocks, u):
    """``(residual, spread)`` for a ``(k, N, N)`` stack: the largest
    deviation of ``U* x U`` from ``blockdiag(I_m (x) alpha)``, for
    ``alpha`` the first diagonal copy of each block, and the largest
    deviation of a block's other diagonal copies from its first, the part
    of the residual that the multiplicities account for."""
    t = u.conj().T @ mats @ u
    recon = np.zeros_like(t)
    spread = 0.0
    off = 0
    for blk in blocks:
        n_k = blk["size"]
        alpha = t[:, off : off + n_k, off : off + n_k]
        for _ in range(blk["multiplicity"]):
            copy = t[:, off : off + n_k, off : off + n_k]
            spread = max(spread, float(np.max(np.linalg.norm(copy - alpha, axis=(1, 2)))))
            recon[:, off : off + n_k, off : off + n_k] = alpha
            off += n_k
    return float(np.max(np.linalg.norm(t - recon, axis=(1, 2)), initial=0.0)), spread


def _decompose(draw, family, rng, tol, dim=None, first=None):
    """Block decomposition of the *-algebra A generated by the ``(k, N, N)``
    ``family``, read off two random elements ``draw(unit, rng)`` of A and
    certified against the family.  ``first(y, rng)``, when given, replaces
    the first draw ``y`` by another element of A.

    The unit is the support projection of ``gram_sum`` of the family and
    its adjoints, cut on the singular values of the family laid side by
    side.  The first draw's Hermitian part ``h`` gives the minimal
    projections (:func:`_minimal_bases`), the second draw ``z`` groups
    them into blocks and gives the transporters (:func:`_blocks`), and
    :func:`_basis_change` assembles ``U``.  With ``B = U (sum M_{n_k} (x)
    1_{m_k}) U*``, the certificate is:

    - both draws are in ``B`` within ``tol.composite``;
    - Burnside: in each block the compression of ``h`` is diagonal with
      eigenvalues more than ``tol.gap`` of the spectrum apart (the cluster
      gap), so a matrix commuting with it is diagonal, and every corner
      ``e_i z e_j`` of the block is above the link cut, so a diagonal
      matrix commuting with ``z`` is scalar: the compressions of the draws
      have the scalars as commutant;
    - inequivalence: no eigenvalue of ``h`` is shared between two blocks
      (the same cluster gap), so no nonzero matrix intertwines their
      compressions of ``h``;
    - so the draws generate ``B`` and ``B`` lies in A; every family member
      is in ``B`` within ``tol.composite``, so A lies in ``B``, and the
      copies of each block agree on the family within ``tol.spec`` of its
      scale, the accuracy to which a cluster of ``h`` is one eigenvalue,
      so a multiplicity never merges two blocks the family tells apart.

    Hence ``dim A = sum n_k^2``.  When the caller knows ``dim`` A, a
    smaller ``sum n_k^2`` shows the draws generate a proper subalgebra.

    A draw that fails before the family's block form is checked, or whose
    copies of a block disagree on the family, is redrawn; after
    :data:`_MAX_DRAWS` attempts, :class:`DegenerateRandomness`.  A family
    member outside ``B``, a basis change that is not unitary and a
    ``sum n_k^2`` above ``dim`` raise :class:`VerificationFailure`.
    """
    n_amb = family.shape[-1]
    dec = hermitian_eig(gram_sum(family) + gram_sum(family.conj().transpose(0, 2, 1)), tol=tol)
    # the square roots of the Gram eigenvalues are the singular values of the
    # family and its adjoints laid side by side: cut on the members' scale,
    # not on its square, which would drop parts below sqrt(tol.gap) of it
    singular = np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
    cut, _ = spectrum_cut(singular, tol=tol)
    if cut is None:
        return BlockDecomposition(
            central_projections=[],
            block_sizes=[],
            multiplicities=[],
            transporters=[],
            basis_change=np.eye(n_amb, dtype=np.complex128),
            residuals={"block_form": 0.0},
        )
    inside = singular > cut
    range_basis, kernel = dec.basis[:, inside], dec.basis[:, ~inside]
    unit = range_basis @ range_basis.conj().T
    top = float(np.max(safe_norm(family, axis=(1, 2))))

    def fingerprint(blk):
        return tuple(np.round(np.real(np.diag(blk["central"])), 6))

    failure = None
    for _ in range(_MAX_DRAWS):
        y = draw(unit, rng)
        draws = np.array([y if first is None else first(y, rng), draw(unit, rng)])
        try:
            scales = safe_norm(draws, axis=(1, 2))
            if not scales.all():
                raise DegenerateRandomness("a random element of the algebra vanishes")
            bases, values = _minimal_bases(draws[0], range_basis, tol)
            blocks = _blocks(bases, values, draws[1], tol)
            blocks.sort(key=lambda blk: (-blk["size"], -blk["multiplicity"], fingerprint(blk)))
            u = _basis_change(blocks, kernel, tol)
            miss, _ = _block_form(draws / scales[:, None, None], blocks, u)
            check("the draws miss the block form read off them", miss, tol.composite,
                  DegenerateRandomness)
            total = sum(blk["size"] ** 2 for blk in blocks)
            if dim is not None and total < dim:
                raise DegenerateRandomness(
                    f"the draws generate a subalgebra of dimension {total} < {dim}")
            worst, spread = _block_form(family, blocks, u)
            check("copies of a block disagree on the family", spread, tol.spec * top,
                  DegenerateRandomness)
        except (GapNotFound, DegenerateRandomness) as exc:
            failure = exc
            continue
        break
    else:
        raise DegenerateRandomness(
            f"{_MAX_DRAWS} pairs of random elements failed to certify a decomposition: {failure}"
        )
    if dim is not None and total != dim:
        raise VerificationFailure(
            f"dimension identity failed: sum n_k^2 = {total} != dim A = {dim}"
        )
    check("family members miss the block form", worst, tol.composite)
    return BlockDecomposition(
        central_projections=[blk["central"] for blk in blocks],
        block_sizes=[blk["size"] for blk in blocks],
        multiplicities=[blk["multiplicity"] for blk in blocks],
        transporters=[blk["transporters"] for blk in blocks],
        basis_change=u,
        residuals={"block_form": worst},
        draws=draws / scales[:, None, None],
    )


def decompose_generators(ambient_dim, generators, seed=0, tol=DEFAULT_TOL):
    """Block decomposition of the *-algebra the ``generators`` generate,
    without forming its span.

    The draws are seeded polynomials (:func:`_polynomial`) in the
    generators divided by their largest norm, so a scaling of the
    generators changes nothing; the certificate of :func:`_decompose` is
    checked against the same scaled generators, and
    ``residuals["block_form"]`` is taken over them.  ``dim A`` is the
    certified ``sum n_k^2``.
    """
    n = int(ambient_dim)
    if n < 1:
        raise ParamError(f"ambient dimension must be >= 1, got {ambient_dim}")
    _, flat = _stack_inputs(generators, shape=(n, n))
    gens = flat.reshape(-1, n, n)
    top = float(np.max(safe_norm(gens, axis=(1, 2)), initial=0.0))
    if top > 0.0:
        gens = gens / top
    return _decompose(lambda unit, rng: _polynomial(gens, unit, rng), gens,
                      np.random.default_rng(seed), tol)


def wedderburn_decompose(parent, seed=0, tol=DEFAULT_TOL):
    """Block decomposition of a *-closed matrix algebra.

    :func:`_decompose` on the algebra's orthonormal basis, with draws that
    project seeded Gaussian matrices onto its span (:func:`_draw`), so the
    result depends on the span and the seed, not on the basis; the
    identity ``dim A = sum n_k^2`` is checked against ``parent.dim``.
    Blocks are ordered by descending size, then descending multiplicity,
    then a fingerprint of the central projection, so equal inputs give
    equal outputs.

    Raises :class:`DegenerateRandomness` when three successive pairs of
    random draws fail to certify a decomposition, and
    :class:`VerificationFailure` when a structural identity (the block form
    of the basis, ``dim A = sum n_k^2``, unitarity of the basis change)
    fails numerically.
    """
    return _decompose(lambda unit, rng: _draw(parent.basis, rng), parent.basis.matrices,
                      np.random.default_rng(seed), tol, dim=parent.dim)


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
    tol_member: float

    @property
    def ok(self):
        return self.is_maximal and self.support_agreement <= self.tol_member


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

    Samples ``trials`` maximal ideals in a cycling choice of block (trial
    ``t`` takes block ``t % num_blocks``): ``e`` is the top eigenprojection,
    in that block, of the Hermitian part of a seeded Gaussian matrix
    projected onto A, a Haar-random minimal projection of the block, and
    ``J = (u - e) A``, read off the block's transporters
    (:func:`_top_projection`), so it depends on A and the seed, not on the
    matrix units that represent A.  One :func:`projection_generator`
    certificate per trial carries both verdicts: it certifies ``J = pA``,
    so single generation holds, and ``J`` is maximal when ``u - p`` is
    minimal, read off the compressions of ``p`` against the blocks'
    transporters (:func:`_compress`) with no corner trace.
    Also records the dimension identity ``dim A = sum n_k^2``.  At least
    one trial is required: a sweep of none would certify nothing
    (:class:`ParamError`).
    """
    if trials < 1:
        raise ParamError(f"need at least one trial, got {trials}")
    if parent.unit is None:
        raise NotUnital("maximal ideal analysis needs a unital algebra")
    stacks, sizes = parent.blocks, [len(v) for v in parent.blocks]
    rng = np.random.default_rng([seed, 0xDA1E5])
    u = parent.unit
    out = []
    for t in range(trials):
        k = t % len(stacks)
        v = stacks[k]
        g = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
        e = _range_projection(_top_projection(v, g)[1])
        g = u - e
        # e = u means the zero ideal; flush the roundoff left in u - e
        gens = [] if hs_norm(g) <= tol.member * max(1.0, hs_norm(u)) else [g]
        cert = projection_generator(parent, gens, tol=tol)
        ranges, _ = _compress(parent, cert.projection, tol)
        out.append(
            DalesZelazkoTrial(
                block_index=k,
                certificate=cert,
                support_agreement=hs_norm(cert.projection - g),
                # J = pA with u - p minimal is the paper's criterion; u - p
                # compresses to the 1 - P_k, of total rank sum_k (n_k - rank P_k)
                is_maximal=sum(n - len(v) for n, v in zip(sizes, ranges)) == 1,
                tol_member=tol.member,
            )
        )
    dim_ok = sum(n * n for n in sizes) == parent.dim
    return DalesZelazkoReport(
        block_sizes=sizes,
        multiplicities=[v.shape[2] for v in stacks],
        dimension_identity_ok=dim_ok,
        trials=out,
    )
