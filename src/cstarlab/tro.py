"""Ternary rings of operators (TROs) and their submodules.

A TRO is a subspace ``Z`` of ``r x c`` complex matrices closed under the
triple product ``x y* z``.  Multiplying out pairs gives two *-closed
algebras: the left algebra ``L = span(Z Z*)`` acting on rows and the right
algebra ``R = span(Z* Z)`` acting on columns; ``Z`` is a bimodule between
the two, and a right Hilbert module over ``R`` via the pairing
``<x, y> = x* y``.

Structurally ``Z = U_L (sum_k M_{a_k x b_k} (x) 1_{m_k}) U_R*``, and its
linking algebra ``[[L, Z], [Z*, R]]`` in ``M_{r+c}`` is
``U (sum_k M_{a_k+b_k} (x) 1_{m_k}) U*`` for ``U = diag(U_L, U_R)``
(Brown, Green and Rieffel, "Stable isomorphism and strong Morita
equivalence of C*-algebras", 1977; Zettl, "A characterization of ternary
rings of operators", 1983).  That algebra is the *-algebra the embedded
generators ``g^ = [[0, g], [0, 0]]`` generate, so every TRO here is built
from one certified block decomposition of it
(:func:`~cstarlab.structure._decompose`), and no span of ``Z``, ``L`` or
``R`` is closed.  The first draw of the decomposition has its
off-diagonal corners zeroed, so every minimal projection lies in one
corner: a block's row transporters ``a_i`` (``r x m_k`` isometries) give
``U_L`` and its column transporters ``b_j`` give ``U_R``, and their counts
are ``a_k`` and ``b_k``.  A :class:`TRO` is those row and column stacks,
and nothing else is stored: ``Z`` has the orthonormal units ``a_i b_j* /
sqrt(m_k)``, ``L`` the matrix units ``a_i a_i'* / sqrt(m_k)`` and ``R``
the units ``b_j b_j'* / sqrt(m_k)``.  Membership in ``Z`` is the distance
to the projection onto those units, read in block coordinates
(:func:`~cstarlab.algebra._block_coordinates`, the rule of algebras too),
and :func:`classify_tro` reads the blocks, the isometries and the bound on
the ternary-morphism defect off the same stacks; no dense basis of ``Z``
is written unless a caller reads :attr:`TRO.basis`.

Submodules (right-ideal analogues) correspond bijectively to right
ideals of the left algebra via ``W -> W Z*`` and ``J -> J Z``: a closed
submodule is ``W = pZ`` for the support projection ``p`` in ``L`` of
``sum g g*`` over its generators (of ``sum w w*`` over its basis), its
ideal is ``pL``, and it is maximal exactly when ``u_L - p`` is minimal.
All of it is read in the blocks' coordinates: ``p`` compresses to the
``a_k x a_k`` matrices ``P_k[i, i'] = tr(a_i* p a_i') / m_k``, and with
``v_q = sum_i q_i a_i`` over an orthonormal basis ``q`` of the range of
``P_k``, ``W`` has the orthonormal basis ``v_q b_j* / sqrt(m_k)`` and
``pL`` the basis ``v_q a_i'* / sqrt(m_k)``.  So ``dim W = sum_k rank(P_k)
b_k``, ``W`` is maximal when ``sum_k (a_k - rank P_k) = 1``, and the
finite generation certificate's ``s^(-1/2)`` is ``sum_k sqrt(m_k / b_k)
sum_q v_q v_q*``; no span is grown, spanned or traced.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    ClosureViolation,
    MembershipViolation,
    NotProper,
    ParamError,
    VerificationFailure,
    ZeroSubmodule,
    check,
)
from .algebra import StarAlgebra, _block_space, _compress, _frame, _max_relative_residual
from .ideals import _ideal_from_ranges
from .linalg import (
    Subspace,
    _stack_inputs,
    as_matrix,
    gram_sum,
    hs_norm,
    identity_defect,
    module_defect,
    orthonormalize,
    psd_cut,
    safe_norm,
)
from .structure import _decompose, _polynomial

__all__ = [
    "TRO",
    "Submodule",
    "TROClassification",
    "ModuleGenerationCertificate",
    "generate_tro",
    "tro_from_span",
    "classify_tro",
    "generate_submodule",
    "submodule_ideal_roundtrip",
    "is_maximal_submodule",
    "finite_generation_certificate",
]

# Seed of the draws that decompose a TRO's linking algebra: fixed, so a TRO
# is deterministic without a seed parameter.
_LINK_SEED = 0x7E0


@dataclass(eq=False)
class TRO:
    """A ternary ring of ``rows x cols`` operators, held as its blocks.

    ``blocks`` lists, per rectangular block, the pair ``(a, b)`` of its
    ``(a_k, rows, m_k)`` row and ``(b_k, cols, m_k)`` column isometry
    stacks: the units ``a_i b_j* / sqrt(m_k)`` are an orthonormal basis of
    the block, and the ranges of all the ``a_i`` (of all the ``b_j``) are
    orthogonal.  So ``dim = sum a_k b_k``, and membership is read off the
    stacks (:meth:`max_relative_residual`).  The left and right algebras,
    those of the row and of the column stacks, the ``frame`` of block
    coordinates (:func:`~cstarlab.algebra._frame`) and the dense ``basis``
    of the units (:func:`_block_space`) are formed on first use.
    """

    rows: int
    cols: int
    blocks: list

    @property
    def dim(self):
        return sum(len(a) * len(b) for a, b in self.blocks)

    @functools.cached_property
    def left_algebra(self):
        return StarAlgebra(self.rows, [a for a, _ in self.blocks])

    @functools.cached_property
    def right_algebra(self):
        return StarAlgebra(self.cols, [b for _, b in self.blocks])

    @functools.cached_property
    def basis(self):
        return _block_space(self.blocks, (self.rows, self.cols))

    @functools.cached_property
    def frame(self):
        return _frame(self.blocks, (self.rows, self.cols))

    def max_relative_residual(self, xs):
        """Largest ``||x - Px|| / max(1, ||x||)`` over the ``(s, rows,
        cols)`` stack ``xs`` (0.0 for none), ``P`` the projection onto the
        TRO (:func:`~cstarlab.algebra._max_relative_residual`): ``x`` is in
        it when at most ``tol.member``."""
        xs = np.asarray(xs, dtype=np.complex128).reshape(-1, self.rows, self.cols)
        return _max_relative_residual(self.frame, xs)

    def contains(self, x, tol=DEFAULT_TOL):
        x = as_matrix(x, shape=(self.rows, self.cols))
        return self.max_relative_residual(x[None]) <= tol.member


def _corner_terms(gens, rng):
    """``(sum_t x_t y_t*, sum_t x'_t* y'_t)`` over ``s = max(r, c)`` seeded
    complex Gaussian combinations of the ``(k, r, c)`` generators each: a
    generic element of ``span(G G*)`` and one of ``span(G* G)``."""
    k, r, c = gens.shape
    s = max(r, c)
    coeff = rng.standard_normal((4, s, k)) + 1j * rng.standard_normal((4, s, k))
    x, y, xr, yr = (coeff / np.sqrt(2 * k) @ gens.reshape(k, -1)).reshape(4, s, r, c)
    left = x.transpose(1, 0, 2).reshape(r, -1) @ y.transpose(1, 0, 2).reshape(r, -1).conj().T
    return left, xr.reshape(-1, c).conj().T @ yr.reshape(-1, c)


def _linking_blocks(gens, rng, tol):
    """The blocks, as :attr:`TRO.blocks`, of the TRO that the ``(k, r, c)``
    generators generate, read off one block decomposition of its linking
    algebra, the *-algebra the ``g^ = [[0, g], [0, 0]]`` generate.

    The generators are divided by their largest norm, as in
    :func:`~cstarlab.structure.decompose_generators`, and both draws are
    seeded polynomials in them.  The first draw's off-diagonal corners are
    zeroed (its corners are in the algebra, since ``diag(u_L, 0)`` is), so
    its minimal projections each lie in one corner; its diagonal corners
    get :func:`_corner_terms`, without which thin blocks such as ``4 x 1``
    keep one eigenvalue, the polynomial's constant, on several of their
    rows.  Each transporter belongs to the corner that holds its weight;
    the part outside it must stay within ``tol.member`` and is dropped,
    and a block must have transporters in both corners
    (:class:`VerificationFailure` otherwise).
    """
    k, r, c = gens.shape
    top = float(np.max(safe_norm(gens, axis=(1, 2)), initial=0.0))
    if top > 0.0:
        gens = gens / top
    hats = np.zeros((k, r + c, r + c), dtype=np.complex128)
    hats[:, :r, r:] = gens

    def corners(y, rng):
        left, right = _corner_terms(gens, rng)
        out = np.zeros_like(y)
        out[:r, :r] = y[:r, :r] + left
        out[r:, r:] = y[r:, r:] + right
        return out

    dec = _decompose(lambda unit, rng: _polynomial(hats, unit, rng), hats, rng, tol,
                     first=corners)
    blocks = []
    for t in dec.transporters:
        top_part = safe_norm(t[:, :r], axis=(1, 2))
        bottom_part = safe_norm(t[:, r:], axis=(1, 2))
        on_top = top_part > bottom_part
        check("a minimal projection of the linking algebra straddles its corners",
              float(np.max(np.minimum(top_part, bottom_part))) / np.sqrt(t.shape[2]),
              tol.member)
        if on_top.all() or not on_top.any():
            raise VerificationFailure("a block of the linking algebra lies in one corner")
        blocks.append((t[on_top, :r], t[~on_top, r:]))
    return blocks


def _tro_from_blocks(shape, blocks, tol):
    """The TRO of ``shape`` with the given :attr:`TRO.blocks`, verified
    nondegenerate: its algebras act without annihilator, ``u_L a_i = a_i``
    and ``u_R b_j = b_j`` on the stacks, so ``u_L z = z = z u_R`` on every
    unit ``a_i b_j* / sqrt(m_k)``.  Automatic for stacks with orthogonal
    ranges, but a cheap guard against inconsistent inputs."""
    tro = TRO(*shape, blocks)
    if blocks:
        check("TRO is degenerate over its algebras",
              max(max(identity_defect(tro.left_algebra.unit, a),
                      identity_defect(tro.right_algebra.unit, b)) / np.sqrt(a.shape[2])
                  for a, b in blocks), tol.member)
    return tro


def generate_tro(rows, cols, generators, tol=DEFAULT_TOL):
    """Smallest TRO of ``rows x cols`` matrices containing the generators.

    Read off the block decomposition of the linking algebra that the
    generators generate (:func:`_linking_blocks`), drawn from a fixed
    seed: the TRO is its blocks (:func:`_tro_from_blocks`), so no span is
    closed and no triple product is formed.  ``dim Z = sum a_k b_k``.
    """
    m, n = int(rows), int(cols)
    if m < 1 or n < 1:
        raise ParamError("TRO ambient dimensions must be positive")
    _, flat = _stack_inputs(generators, shape=(m, n))
    blocks = _linking_blocks(flat.reshape(-1, m, n), np.random.default_rng(_LINK_SEED), tol)
    return _tro_from_blocks((m, n), blocks, tol)


def tro_from_span(mats, shape=None, tol=DEFAULT_TOL):
    """Build a TRO from a family already spanning one.

    The family is orthonormalized into the TRO's basis ``S``.  A span that
    is not closed is refused first by one probe: for unit-norm seeded
    combinations ``x``, ``y`` of the basis, ``x y* S`` must lie in ``S``
    within ``tol.member``.  The residual of ``x y* z`` is a polynomial in
    the coefficients of ``x`` and ``y``, so it vanishes for generic ones
    only if it vanishes for all, and a span moved off closed by more than
    the decomposition resolves (1e-6, say) is refused here rather than
    left to it.  Then the TRO the basis generates is read off as in
    :func:`generate_tro`: the span is a TRO exactly when that TRO has its
    dimension, ``sum a_k b_k = dim S``, and lies within ``tol.member`` of
    it (:class:`ClosureViolation` otherwise).  The TRO is its blocks
    (:func:`_tro_from_blocks`), with the given basis as its ``basis``.
    """
    space = orthonormalize(mats, tol=tol, shape=shape)
    if space.dim:
        rng = np.random.default_rng([_LINK_SEED, 1])
        coeff = rng.standard_normal((2, space.dim)) + 1j * rng.standard_normal((2, space.dim))
        x, y = (coeff / np.linalg.norm(coeff, axis=1, keepdims=True) @ space.stack).reshape(
            2, *space.shape)
        check("span is not closed under x y* z", module_defect(space, (x @ y.conj().T)[None]),
              tol.member, ClosureViolation)
    blocks = _linking_blocks(space.matrices, np.random.default_rng(_LINK_SEED), tol)
    closed = _block_space(blocks, space.shape)
    if closed.dim != space.dim:
        raise ClosureViolation(
            f"span of dimension {space.dim} is not closed: "
            f"the TRO it generates has dimension {closed.dim}"
        )
    check("span is not the TRO it generates", closed.distance(space), tol.member,
          ClosureViolation)
    tro = _tro_from_blocks(space.shape, blocks, tol)
    tro.basis = space
    return tro


@dataclass(eq=False)
class TROClassification:
    """Block structure of a TRO: for each block an (m_k, n_k) shape and a
    pair of isometries (U_k, V_k) such that ``z -> U_k* z V_k`` restricts
    to a ternary isomorphism of the block onto full ``m_k x n_k``
    matrices.  ``central_projections[k]`` is the left-algebra central
    support of the block.  ``residuals["ternary_morphism"]`` is an upper
    bound on ``||T(x) T(y)* T(z) - T(x y* z)||`` over all triples of the
    units ``a_i b_j* / sqrt(m_k)`` and all blocks."""

    blocks: list
    isometries: list
    central_projections: list
    residuals: dict = field(default_factory=dict)

    @property
    def num_blocks(self):
        return len(self.blocks)

    def apply(self, z):
        """Per-block images ``U_k* z V_k`` of an element."""
        return [u.conj().T @ z @ v for u, v in self.isometries]

    def total_dim(self):
        return sum(m * n for m, n in self.blocks)


def classify_tro(tro, seed=0, tol=DEFAULT_TOL):
    """Identify the rectangular blocks of a TRO and build the isometries
    realizing them.

    Reads the TRO's :attr:`~TRO.blocks`, the corner-split block
    decomposition of its linking algebra that built it, so the blocks fix
    the result and ``seed`` changes nothing.  Block ``k`` has shape
    ``(a_k, b_k)``, the counts of its row and column transporters;
    ``U_k`` and ``V_k`` are the first columns of those transporters, one
    copy of the block, and its central projection in the left algebra is
    ``sum a_i a_i*``.  The total ``sum a_k b_k`` must equal ``dim Z``, the
    isometries must be isometric, and the ternary-morphism property of
    the assembled maps is certified for every triple of units ``a_i b_j* /
    sqrt(m_k)`` at once: ``residuals["ternary_morphism"]`` is an upper
    bound on the worst triple's defect, read off the row and column
    stacks (:func:`_morphism_defect`), and must stay within
    ``tol.composite``.
    """
    if tro.dim == 0:
        return TROClassification(blocks=[], isometries=[], central_projections=[],
                                 residuals={"ternary_morphism": 0.0})
    entries = [{"shape": (len(a), len(b)), "U": a[:, :, 0].T, "V": b[:, :, 0].T,
                "central": gram_sum(a)} for a, b in tro.blocks]
    entries.sort(
        key=lambda blk: (
            -blk["shape"][0],
            -blk["shape"][1],
            tuple(np.round(np.real(np.diag(blk["central"])), 6)),
        )
    )
    total = sum(e["shape"][0] * e["shape"][1] for e in entries)
    if total != tro.dim:
        raise VerificationFailure(
            f"sum of block dimensions {total} != dim Z = {tro.dim}"
        )
    cls = TROClassification(
        blocks=[e["shape"] for e in entries],
        isometries=[(e["U"], e["V"]) for e in entries],
        central_projections=[e["central"] for e in entries],
    )
    for u_iso, v_iso in cls.isometries:
        for g, lbl in ((u_iso, "U"), (v_iso, "V")):
            check(f"{lbl} is not an isometry", _isometry_defect(g),
                  tol.member * max(1.0, g.shape[1]))
    cls.residuals["ternary_morphism"] = check(
        "classification maps fail the ternary morphism identity",
        _morphism_defect(tro, cls), tol.composite)
    return cls


def _isometry_defect(g):
    """``||g* g - 1||`` in the Hilbert-Schmidt norm."""
    return hs_norm(g.conj().T @ g - np.eye(g.shape[1]))


def _morphism_defect(tro, cls):
    """Upper bound on ``||T(x) T(y)* T(z) - T(x y* z)||`` over all triples
    of the units ``a_i b_j* / sqrt(m_k)`` and all blocks, read off the row
    and column stacks, for every block's maps at once.

    For ``T(z) = U* z V``, ``P = U U*`` and ``Q = V V*`` the defect is
    exactly ``U* x (Q - 1) y* P z V + U* x y* (P - 1) z V``.  The units
    have operator norm at most 1 and ``||P|| = ||U||^2``, so each triple is
    bounded by ``||U||^2 ||V|| max_x ||U* x (1 - Q)|| + ||U|| max_z ||(1 -
    P) z V||``, both maxima over the units (:func:`_largest_unit_norms`).
    ``||U||^2 <= 1 + ||U* U - 1||`` keeps the bound valid for isometries
    that are exact only to roundoff.  The ``U`` (the ``V``) are laid side by
    side, and a 0/1 mask per map keeps its own columns of ``U* a_i`` (of
    ``V* b_j``)."""
    us, vs = zip(*cls.isometries)
    u_all, v_all = np.concatenate(us, axis=1), np.concatenate(vs, axis=1)
    u_mask, v_mask = (np.repeat(np.eye(len(ws)), [w.shape[1] for w in ws], axis=1)[:, :, None]
                      for ws in (us, vs))
    left = right = np.zeros(len(us))
    for a, b in tro.blocks:
        ua = (u_all.conj().T @ a)[:, None] * u_mask
        vb = (v_all.conj().T @ b)[:, None] * v_mask
        left = np.maximum(left, _largest_unit_norms(ua, b[:, None] - v_all @ vb))
        right = np.maximum(right, _largest_unit_norms(a[:, None] - u_all @ ua, vb))
    u_sq = 1.0 + np.array([_isometry_defect(u) for u in us])
    v_sq = 1.0 + np.array([_isometry_defect(v) for v in vs])
    return float(np.max(u_sq * np.sqrt(v_sq) * left + np.sqrt(u_sq) * right))


def _largest_unit_norms(x, y):
    """Per map ``k``, the largest ``||x_ik y_jk*|| / sqrt(m)`` over the ``(p,
    K, r, m)`` and ``(q, K, c, m)`` stacks ``x`` and ``y`` of one block, from
    ``||x_ik y_jk*||^2 = tr(x_ik* x_ik y_jk* y_jk)``, so no product ``x_ik
    y_jk*`` is formed."""
    gx, gy = (w.conj().swapaxes(-1, -2) @ w for w in (x, y))
    squares = np.einsum("ikuv,jkvu->kij", gx, gy).real.reshape(len(gx[0]), -1)
    return np.sqrt(np.maximum(squares.max(axis=1), 0.0) / x.shape[3])


@dataclass(eq=False)
class ModuleGenerationCertificate:
    """Generators ``z_1 .. z_r`` of a submodule together with the
    reproducing projection ``e = sum_i z_i z_i*`` (in the span of W W*)
    satisfying ``e w = w`` for every ``w`` in the submodule."""

    generators: list
    projection: np.ndarray
    residuals: dict = field(default_factory=dict)


@dataclass(eq=False)
class Submodule:
    """A right submodule ``W`` of a TRO over its right algebra.

    ``_roundtrip`` holds the last verified
    :func:`submodule_ideal_roundtrip` against ``parent`` as
    ``(tol, basis, ranges, ideal, report)``, where ``ranges[k]`` stacks the
    isometries ``v_q`` of the parent's block ``k`` that :func:`_compress`
    reads off the support projection ``p``, so ``W = pZ`` has the basis
    ``v_q b_j* / sqrt(m_k)``."""

    parent: TRO
    generators: list
    basis: Subspace
    _roundtrip: tuple = field(default=None, init=False, repr=False)

    @property
    def dim(self):
        return self.basis.dim

    def contains(self, x, tol=DEFAULT_TOL):
        return self.basis.contains(x, tol=tol)

    def _kept(self, tol):
        """The kept roundtrip if it was verified with ``tol`` on this basis."""
        kept = self._roundtrip
        return kept if kept is not None and kept[0] == tol and kept[1] is self.basis else None


def _verify_roundtrip(tro, submodule, p, compressed, tol):
    """The roundtrip record ``(tol, basis, ranges, ideal, report)`` of
    :class:`Submodule` for the support projection ``p`` of ``W``, whose
    ``compressed``, from :func:`~cstarlab.algebra._compress` against the
    row stacks, has checked ``p`` in L.

    Checked here: ``W`` in ``Z`` by :meth:`TRO.max_relative_residual`
    (:class:`MembershipViolation`), ``p w = w`` and ``dim pZ = sum_k
    rank(P_k) b_k = dim W`` (:class:`VerificationFailure` naming both).  The first two put ``W``
    in ``pZ`` and the third gives it that dimension, so ``W = pZ``, which
    is closed under R since ``Z R`` lies in ``Z``: no closure check is
    needed.  Its ideal ``J = pL`` has the basis ``v_q a_i'* / sqrt(m_k)``
    (:func:`~cstarlab.ideals._ideal_from_ranges`).
    """
    ranges, ideal_resid = compressed
    module_resid = max(
        check("W is not in the TRO, relative to its norm",
              tro.max_relative_residual(submodule.basis.matrices), tol.member,
              MembershipViolation),
        check("p w = w fails on W", identity_defect(p, submodule.basis.matrices), tol.member),
    )
    dim_pz = sum(len(v) * len(b) for v, (_, b) in zip(ranges, tro.blocks))
    if dim_pz != submodule.dim:
        raise VerificationFailure(f"W is not pZ: dim pZ = {dim_pz}, dim W = {submodule.dim}")
    ideal = _ideal_from_ranges(tro.left_algebra, [p], ranges)
    report = {"module_roundtrip": module_resid, "ideal_roundtrip": ideal_resid, "ok": True}
    return tol, submodule.basis, ranges, ideal, report


def generate_submodule(tro, generators, tol=DEFAULT_TOL):
    """Right submodule ``sum_j g_j (Z* Z)^1`` of the TRO generated by the
    given elements, written down as ``pZ``.

    Each generator must belong to the TRO, to ``tol.member * max(1,
    ||g||)`` (:meth:`TRO.max_relative_residual`).  Over the generators
    divided by their largest norm, one :func:`psd_cut` of ``b = sum_j g_j
    g_j*`` gives its support projection ``p``, certified by ``p g_j = g_j``
    within ``tol.rank`` and by ``p = sum_j g_j (g_j* b^+)`` within
    ``tol.member`` relative to the ``g_j* b^+`` in ``Z*``: so ``pZ`` lies in the submodule and contains every
    generator.  ``p`` is compressed against the TRO's blocks
    (:func:`_compress`), and ``W`` gets the orthonormal basis ``v_q b_j* /
    sqrt(m_k)``; no span is grown.  The roundtrip of
    :func:`_verify_roundtrip` runs on this ``p`` and stays on the
    submodule, for :func:`submodule_ideal_roundtrip`,
    :func:`is_maximal_submodule` and :func:`finite_generation_certificate`
    with the same ``tol``.
    """
    m, n = tro.rows, tro.cols
    _, flat = _stack_inputs(generators, shape=(m, n))
    gens = flat.reshape(-1, m, n)
    check("submodule generator is not in the TRO, relative to its norm",
          tro.max_relative_residual(gens), tol.member, MembershipViolation)
    p = np.zeros((m, m), dtype=np.complex128)
    scale = float(np.max(safe_norm(gens, axis=(1, 2)), initial=0.0))
    if scale > 0.0:
        gmats = gens / scale
        dec, cut, _ = psd_cut(gram_sum(gmats), tol=tol)
        p = dec.above(cut, lambda t: 1.0)
        check("p g = g fails on the generators", identity_defect(p, gmats), tol.rank)
        ds = gmats.conj().transpose(0, 2, 1) @ dec.above(cut, lambda t: 1.0 / t)
        reproduced = gmats.transpose(1, 0, 2).reshape(m, -1) @ ds.reshape(-1, m)
        check("p = sum_j g_j g_j* b^+ fails",
              hs_norm(reproduced - p) / max(1.0, hs_norm(ds)), tol.member)
    compressed = _compress(tro.left_algebra, p, tol)
    space = _block_space([(v, b) for v, (_, b) in zip(compressed[0], tro.blocks)], (m, n))
    submodule = Submodule(parent=tro, generators=list(gens), basis=space)
    submodule._roundtrip = _verify_roundtrip(tro, submodule, p, compressed, tol)
    return submodule


def submodule_ideal_roundtrip(tro, submodule, tol=DEFAULT_TOL):
    """The right ideal ``J = W Z*`` of the left algebra, read off the
    support projection ``p`` of ``W`` in block coordinates.

    A submodule from :func:`generate_submodule` keeps the roundtrip it was
    verified with, for its ``tol``.  Otherwise ``p`` is the
    :func:`psd_cut` support of ``sum w w*`` over the basis of ``W``, and
    :func:`_verify_roundtrip` checks ``p`` in the left algebra through its
    block compressions (:class:`NotInAlgebra`), ``W`` in ``Z``
    (:class:`MembershipViolation`), ``p w = w`` and ``dim pZ = sum_k
    rank(P_k) b_k = dim W`` (:class:`VerificationFailure` naming both).
    Then ``W`` lies in ``pZ`` with its dimension, so ``W = pZ``, closed
    under R because ``Z R`` lies in ``Z``; so ``J = pL``, ``J Z = W`` and
    ``(J Z) Z* = J``.  ``J`` is returned as ``pL`` with generator ``p``
    and the basis ``v_q a_i'* / sqrt(m_k)``, and no span is formed.

    Returns ``(ideal, report)``: ``module_roundtrip`` is the larger of
    the ``W in Z`` and ``p w = w`` residuals, ``ideal_roundtrip`` the
    distance from ``p`` to the element of L rebuilt from its compressions,
    over ``max(1, ||p||)``.  A verified result is kept on the submodule,
    so a repeat call against its parent with an equal ``tol`` and the same
    basis returns the same ideal and a copy of the report without
    recomputing.
    """
    record = _roundtrip(tro, submodule, tol)
    return record[3], dict(record[4])


def _roundtrip(tro, submodule, tol):
    """The kept roundtrip record of the submodule, or a new one from the
    support of ``sum w w*``, kept when ``tro`` is its parent."""
    kept = submodule._kept(tol) if tro is submodule.parent else None
    if kept is not None:
        return kept
    dec, cut, _ = psd_cut(gram_sum(submodule.basis.matrices), tol=tol)
    p = dec.above(cut, lambda t: 1.0)
    record = _verify_roundtrip(tro, submodule, p,
                               _compress(tro.left_algebra, p, tol), tol)
    if tro is submodule.parent:
        submodule._roundtrip = record
    return record


def is_maximal_submodule(tro, submodule, tol=DEFAULT_TOL):
    """Whether ``W`` is maximal among proper submodules: with ``W = pZ``
    certified by :func:`submodule_ideal_roundtrip`, exactly when
    ``u_L - p`` is a minimal projection of the left algebra, the paper's
    criterion for its ideal ``pL`` to be a maximal right ideal.  Its
    compressions are the ``1 - P_k``, so that is ``sum_k (a_k - rank P_k)
    = 1``."""
    if submodule.dim == tro.dim:
        raise NotProper("the submodule is the whole TRO")
    # the zero submodule has p = 0, maximal only when L is the scalars
    ranges = _roundtrip(tro, submodule, tol)[2]
    return sum(len(a) - len(v) for v, (a, _) in zip(ranges, tro.blocks)) == 1


def finite_generation_certificate(submodule, tol=DEFAULT_TOL):
    """Algebraic generators with a reproducing projection for a nonzero
    submodule.

    From an orthonormal basis ``w_1 .. w_r`` of ``W``, the positive
    element ``s = sum w_i w_i*`` has support projection ``e`` acting as
    identity on ``W``; pushing the basis through ``s^(-1/2)`` (on the
    support) gives new elements ``z_i = s^(-1/2) w_i`` of ``W`` with
    ``sum z_i z_i* = e`` exactly.  With ``W = pZ`` verified by the
    roundtrip (run first when the submodule keeps none for ``tol``), ``s =
    sum_k (b_k / m_k) sum_q v_q v_q*`` over the isometries ``v_q`` of the
    kept ranges, so ``s^(-1/2) = sum_k sqrt(m_k / b_k) sum_q v_q v_q*`` and
    ``e = sum_k sum_q v_q v_q*`` are written down without an
    eigendecomposition.  The returned certificate carries the ``z_i`` and
    ``e`` plus the verified residuals.

    ``residuals["projection_in_WWstar"]`` is an upper bound on the distance
    from ``e`` to ``span(W W*)``, not that distance, and no span of ``W W*``
    is formed: with ``z_i = w_i' + r_i``, ``w_i'`` the projection onto
    ``W`` and ``r_i`` the residual that ``generators_in_module`` reports,
    ``z_i z_i* - w_i' w_i'* = w_i' r_i* + r_i z_i*``, so the distance is
    at most ``sum_i 2 ||r_i|| ||z_i||``.

    Raises :class:`ZeroSubmodule` for the zero submodule, which has no
    spanning family to normalize (its certificate is vacuous).
    """
    if submodule.dim == 0:
        raise ZeroSubmodule("the zero submodule has no generation certificate")
    ranges = _roundtrip(submodule.parent, submodule, tol)[2]
    ranged = [(gram_sum(v), v.shape[2] / len(b))
              for v, (_, b) in zip(ranges, submodule.parent.blocks)]
    support = sum(e for e, _ in ranged)
    inv_sqrt = sum(np.sqrt(ratio) * e for e, ratio in ranged)
    return _certify_generation(submodule.basis, inv_sqrt @ submodule.basis.matrices, support, tol)


def _certify_generation(space, zs, support, tol):
    """The certificate for generators ``zs`` of the submodule spanned by
    ``space``, with the support projection ``support`` of ``sum w w*``;
    :class:`VerificationFailure` when a residual exceeds
    ``tol.composite``."""
    e = gram_sum(zs)
    resid = space.row_residuals(zs.reshape(len(zs), -1))
    residuals = {
        "projection": hs_norm(e @ e - e),
        "support_agreement": hs_norm(e - support),
        "reproduces_basis": identity_defect(e, space.matrices),
        "generators_in_module": float(np.max(resid)),
        "projection_in_WWstar": float(2.0 * np.sum(resid * np.linalg.norm(zs, axis=(1, 2)))),
    }
    for name, value in residuals.items():
        check(f"generation certificate identity '{name}' fails", value, tol.composite)
    return ModuleGenerationCertificate(
        generators=list(zs), projection=e, residuals=residuals
    )

