"""Ternary rings of operators (TROs) and their submodules.

A TRO is a subspace ``Z`` of ``m x n`` complex matrices closed under the
triple product ``x y* z``.  Multiplying out pairs gives two *-closed
algebras: the left algebra ``span(Z Z*)`` acting on rows and the right
algebra ``span(Z* Z)`` acting on columns; ``Z`` is a bimodule between the
two, and a right Hilbert module over its right algebra via the pairing
``<x, y> = x* y``.

Structurally ``Z`` is a direct sum of rectangular blocks
``B(C^{n_k}, C^{m_k})``, discovered here through the left algebra's block
decomposition: its basis change gives the isometry ``U_k`` onto one
copy of the block's rows, and the column isometry ``V_k`` and ``n_k``
come from the projection ``sum z* u u* z`` over the basis of ``Z``, for
one column ``u`` of ``U_k``.

Submodules (right-ideal analogues) correspond bijectively to right
ideals of the left algebra via ``W -> W Z*`` and ``J -> J Z``: a closed
submodule is ``W = pZ`` for the support projection ``p`` in ``L`` of
``sum w w*``, its ideal is ``pL``, and it is maximal exactly when
``u_L - p`` is minimal.  The same ``p`` gives ``W`` a finite generation
certificate.

Every span on the TRO side is built from the closure family ``T``: the
few elements of ``Z`` whose odd words ``t1 t2* t3 ...`` span it, which
:func:`generate_tro` closes with and keeps as ``TRO.family``.  One factor
of each product then runs over ``T`` instead of a basis, so a span costs
``O(d |T|)`` products instead of ``d^2``: ``span(Z Z*) = span(Z T*)`` and
``span(Z* Z) = span(T* Z)``.
The two algebras get ``span(T T*)`` and ``span(T* T)`` as families, so
their module checks multiply by a handful of elements too.
"""

import numpy as np
from dataclasses import dataclass, field

from .config import DEFAULT_TOL
from .errors import (
    ClosureViolation,
    MembershipViolation,
    NotInAlgebra,
    NotProper,
    ParamError,
    VerificationFailure,
    ZeroSubmodule,
    check,
)
from .algebra import StarAlgebra, unit_of
from .ideals import (
    RightIdeal,
    _corner_space,
    is_minimal_projection,
    right_module_span,
)
from .linalg import (
    Subspace,
    _closed_span_family,
    as_matrix,
    close_span,
    gram_sum,
    grow_span,
    hermitian_eig,
    hs_norm,
    identity_defect,
    module_defect,
    orthonormalize,
    psd_cut,
    span_rows,
)
from .structure import wedderburn_decompose

__all__ = [
    "TRO",
    "Submodule",
    "TROClassification",
    "ModuleGenerationCertificate",
    "generate_tro",
    "classify_tro",
    "generate_submodule",
    "submodule_ideal_roundtrip",
    "is_maximal_submodule",
    "finite_generation_certificate",
]


def _left_products(stack, shape, others=None):
    """The flattened products ``x y*`` over the rows ``x`` of ``stack`` and
    ``y`` of ``others`` (``stack`` itself by default)."""
    m, n = shape
    mats = stack.reshape(-1, m, n)
    ys = mats if others is None else others.reshape(-1, m, n)
    return (mats[:, None] @ ys.conj().transpose(0, 2, 1)[None]).reshape(-1, m * m)


def _right_products(stack, shape, others=None):
    """The flattened products ``x* y`` over the rows ``x`` of ``stack`` and
    ``y`` of ``others`` (``stack`` itself by default)."""
    m, n = shape
    mats = stack.reshape(-1, m, n)
    ys = mats if others is None else others.reshape(-1, m, n)
    return (mats.conj().transpose(0, 2, 1)[:, None] @ ys[None]).reshape(-1, n * n)


@dataclass(eq=False)
class TRO:
    """A ternary ring of ``rows x cols`` operators with its two algebras.

    ``family`` is ``(k, rows, cols)`` orthonormal elements of the TRO whose
    odd words ``t1 t2* t3 ...`` span it: the family the closure was
    certified with, set by :func:`generate_tro`, :func:`tro_from_span`
    and planted TROs.  Left out, it is the basis, which spans the TRO by
    itself.
    """

    basis: Subspace
    left_algebra: StarAlgebra
    right_algebra: StarAlgebra
    family: np.ndarray | None = None

    def __post_init__(self):
        if self.family is None:
            self.family = self.basis.matrices

    @property
    def rows(self):
        return self.basis.rows

    @property
    def cols(self):
        return self.basis.cols

    @property
    def dim(self):
        return self.basis.dim

    def contains(self, x, tol=DEFAULT_TOL):
        return self.basis.contains(x, tol=tol)


def _build_tro(space, family, tol):
    """The TRO on ``space`` with its algebras ``span(Z T*)`` and
    ``span(T* Z)`` for the ``(k, rows, cols)`` family ``T`` whose odd words
    span ``space``.

    The algebras get ``span(T T*)`` and ``span(T* T)``, which generate
    them, as families; the span is closed under ``x y* z`` exactly when
    ``span(T T*) Z`` lies in it (:class:`ClosureViolation` otherwise).
    """
    m, n = space.shape
    if not space.dim:
        return TRO(
            basis=space,
            left_algebra=StarAlgebra(basis=Subspace.empty(m, m)),
            right_algebra=StarAlgebra(basis=Subspace.empty(n, n)),
        )
    ts = family.reshape(len(family), m * n)
    # the closing span comes first: the closure check multiplies by it, and
    # the units are sought only once the span passed; it costs
    # dim(span(T T*)) * d products instead of the d^3 triples
    closing = span_rows(_left_products(ts, space.shape), (m, m), tol=tol)
    check("span is not closed under x y* z", module_defect(space, closing.matrices),
          tol.member, ClosureViolation)
    left_stack, _ = grow_span(
        closing.stack, _left_products(space.stack, space.shape, ts), tol=tol)
    left = StarAlgebra(basis=Subspace(m, m, left_stack), family=closing.matrices)
    left.unit = unit_of(left, tol=tol)
    right_family = span_rows(_right_products(ts, space.shape), (n, n), tol=tol)
    right_stack, _ = grow_span(
        right_family.stack, _right_products(ts, space.shape, space.stack), tol=tol)
    right = StarAlgebra(basis=Subspace(n, n, right_stack), family=right_family.matrices)
    right.unit = unit_of(right, tol=tol)
    tro = TRO(basis=space, left_algebra=left, right_algebra=right, family=family)
    _check_nondegenerate(tro, tol)
    return tro


def _check_nondegenerate(tro, tol):
    """The two algebras must act without annihilator: left_alg Z spans Z
    and Z right_alg spans Z.  Automatic for spans closed under x y* z,
    but a cheap guard against inconsistent hand-built inputs."""
    zs = tro.basis.matrices
    u_l = tro.left_algebra.unit
    u_r = tro.right_algebra.unit
    if u_l is None or u_r is None:
        raise VerificationFailure("a TRO algebra came out without a unit")
    check("TRO is degenerate over its algebras",
          max(identity_defect(u_l, zs), identity_defect(u_r, zs, right=True)), tol.member)


def _left_multipliers(mats):
    """The products ``x y*`` over a ``(k, m, n)`` family, as ``(k^2, m, m)``."""
    k, m, n = mats.shape
    return _left_products(mats.reshape(k, m * n), (m, n)).reshape(-1, m, m)


def generate_tro(rows, cols, generators, tol=DEFAULT_TOL):
    """Smallest TRO of ``rows x cols`` matrices containing the generators.

    :func:`close_span` closes by generators: ``T`` is an orthonormal
    basis of two generic combinations of the generators, and ``span(T)``
    grows under left multiplication by the products ``x y*`` over ``T``.
    Two draws, not one: the one multiplier ``t t*`` of a single draw
    ``t`` generates a commutative algebra, so the closure would reach the
    TRO only through the generators it leaves out, a Krylov direction per
    round, with roundoff growing every round.
    Those words are exactly the odd words ``x1 y1* x2 ... z`` that span
    the TRO, so no step forms the ``d^3`` triple products of the basis.
    The TRO keeps ``T`` as its ``family``, and its algebras are built from
    it (``span(Z T*)`` and ``span(T* Z)``, ``O(d |T|)`` products).
    """
    m, n = int(rows), int(cols)
    if m < 1 or n < 1:
        raise ParamError("TRO ambient dimensions must be positive")
    space, family = close_span(
        generators, (m, n), start=lambda family: family, multipliers=_left_multipliers,
        draws=2, tol=tol,
    )
    return _build_tro(space, family.reshape(-1, m, n), tol)


def tro_from_span(mats, shape=None, tol=DEFAULT_TOL):
    """Build a TRO from a family already spanning one.

    The family is orthonormalized into the TRO's basis, and
    :func:`~cstarlab.linalg._closed_span_family` closes that basis as
    :func:`generate_tro` closes generators: the span is a TRO exactly when
    its closure is the span, and the closure's family ``T`` becomes the
    TRO's ``family`` (:class:`ClosureViolation` otherwise).  The algebras
    are built from ``T``, and nondegeneracy is verified.
    """
    space = orthonormalize(mats, tol=tol, shape=shape)
    family = _closed_span_family(
        space, lambda family: family, _left_multipliers, draws=2, tol=tol)
    return _build_tro(space, family, tol)


@dataclass(eq=False)
class TROClassification:
    """Block structure of a TRO: for each block an (m_k, n_k) shape and a
    pair of isometries (U_k, V_k) such that ``z -> U_k* z V_k`` restricts
    to a ternary isomorphism of the block onto full ``m_k x n_k``
    matrices.  ``central_projections[k]`` is the left-algebra central
    support of the block.  ``residuals["ternary_morphism"]`` is an upper
    bound on ``||T(x) T(y)* T(z) - T(x y* z)||`` over all basis triples
    and blocks."""

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

    Works through the left algebra: its block decomposition provides the
    minimal central projections ``c_k``, the block sizes ``m_k`` and, as
    the first ``m_k`` of the block's columns of its basis change, ``U_k``.
    For the first column ``u`` of ``U_k`` and the orthonormal basis of
    ``Z``, ``sum z* u u* z`` times the block's multiplicity is the
    projection onto the block's column space: ``V_k`` is its eigenvectors
    above 1/2 and ``n_k`` their count, which must be at least 1 and match
    the trace.  The total ``sum m_k n_k`` must equal ``dim Z``.  The
    ternary-morphism property of the assembled maps is certified for
    every basis triple at once: ``residuals["ternary_morphism"]`` is an
    upper bound on the worst triple's defect, built from ``O(d)``
    products per block, and must stay within ``tol.composite``.
    """
    if tro.dim == 0:
        return TROClassification(blocks=[], isometries=[], central_projections=[],
                                 residuals={"ternary_morphism": 0.0})
    dec = wedderburn_decompose(tro.left_algebra, seed=seed, tol=tol)
    zs = tro.basis.matrices
    entries = []
    off = 0
    for k in range(dec.num_blocks):
        m_k, mult = dec.block_sizes[k], dec.multiplicities[k]
        # the basis change lists each block as `mult` copies of `m_k`
        # columns; the first copy is U_k
        u_iso = dec.basis_change[:, off : off + m_k]
        off += m_k * mult
        # over the orthonormal basis of Z, sum z* u u* z for the first
        # column u of U_k is the projection onto the block's column space,
        # divided by the multiplicity
        rows = u_iso[:, 0].conj() @ zs
        g = mult * (rows.conj().T @ rows)
        edec = hermitian_eig(g, tol=tol)
        sel = edec.eigenvalues > 0.5
        n_k = int(np.sum(sel))
        trace = float(np.real(np.trace(g)))
        if n_k < 1:
            raise VerificationFailure("column projection of a block has no eigenvalue above 1/2")
        check(f"column projection of a block has trace {trace!r} "
              f"and {n_k} eigenvalues above 1/2", abs(trace - n_k), tol.member * max(1.0, n_k))
        entries.append(
            {"shape": (m_k, n_k), "U": u_iso, "V": edec.basis[:, sel],
             "central": dec.central_projections[k]}
        )

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
    """Upper bound on ``||T(x) T(y)* T(z) - T(x y* z)||`` over all basis
    triples and blocks, from four batched products per block.

    For ``T(z) = U* z V``, ``P = U U*`` and ``Q = V V*`` the defect is
    exactly ``U* x (Q - 1) y* P z V + U* x y* (P - 1) z V``.  Orthonormal
    basis elements have operator norm at most 1 and ``||P|| = ||U||^2``,
    so each triple is bounded by ``||U||^2 ||V|| max_x ||U* x (1 - Q)||
    + ||U|| max_z ||(1 - P) z V||``.  ``||U||^2 <= 1 + ||U* U - 1||``
    keeps the bound valid for isometries that are exact only to
    roundoff."""
    zs = tro.basis.matrices
    worst = 0.0
    for u, v in cls.isometries:
        u_sq = 1.0 + _isometry_defect(u)
        v_sq = 1.0 + _isometry_defect(v)
        left = (u.conj().T @ zs) @ (np.eye(v.shape[0]) - v @ v.conj().T)
        right = (np.eye(u.shape[0]) - u @ u.conj().T) @ (zs @ v)
        bound = (u_sq * np.sqrt(v_sq) * np.max(np.linalg.norm(left, axis=(1, 2)))
                 + np.sqrt(u_sq) * np.max(np.linalg.norm(right, axis=(1, 2))))
        worst = max(worst, float(bound))
    return worst


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
    ``(tol, basis, dec, cut, ideal, report)``, where ``(dec, cut)`` is the
    :func:`psd_cut` of ``sum w w*`` over the basis."""

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


def generate_submodule(tro, generators, tol=DEFAULT_TOL):
    """Right submodule of the TRO generated by the given elements: the
    span of ``g (Z* Z)^1`` (:func:`right_module_span` over the right
    algebra, grown under its family ``span(T* T)``);
    each generator must belong to the TRO, to
    ``tol.member * max(1, ||g||)``."""
    m, n = tro.basis.shape
    gens = [as_matrix(g, shape=(m, n)) for g in generators]
    check("submodule generator is not in the TRO, relative to its norm",
          tro.basis.max_relative_residual(
              np.array(gens, dtype=np.complex128).reshape(len(gens), m * n)),
          tol.member, MembershipViolation)
    space = right_module_span(tro.right_algebra, gens, m, tol=tol)
    return Submodule(parent=tro, generators=gens, basis=space)


def submodule_ideal_roundtrip(tro, submodule, tol=DEFAULT_TOL):
    """The right ideal ``J = W Z*`` of the left algebra, read off the
    support projection ``p`` of ``sum w w*`` over the basis of ``W``.

    Checked: ``p`` in the left algebra (:class:`NotInAlgebra`), ``W`` in
    ``Z`` (:class:`MembershipViolation`), ``p w = w``, ``dim pZ = dim W``
    by a corner trace (:class:`VerificationFailure` naming both) and ``W``
    closed under the right algebra's family.  Then ``W = pZ``, so
    ``J = pL``, ``J Z = W`` and ``(J Z) Z* = J``; ``J`` is returned as
    ``pL`` with generator ``p``, and no span of ``W Z*`` is formed.

    Returns ``(ideal, report)``: ``module_roundtrip`` is the larger of
    the ``W in Z`` and ``p w = w`` residuals, ``ideal_roundtrip`` the
    residual of ``p`` against the left algebra.  A verified result is
    kept on the submodule, so a repeat call against its parent with an
    equal ``tol`` and the same basis returns the same ideal and a copy of
    the report without recomputing.
    """
    kept = submodule._kept(tol) if tro is submodule.parent else None
    if kept is not None:
        return kept[4], dict(kept[5])
    dec, cut, ideal, report = _verify_roundtrip(tro, submodule, tol)
    if tro is submodule.parent:
        submodule._roundtrip = (tol, submodule.basis, dec, cut, ideal, dict(report))
    return ideal, report


def _verify_roundtrip(tro, submodule, tol):
    left = tro.left_algebra
    ws = submodule.basis.matrices
    # one eigendecomposition, shared with finite_generation_certificate
    dec, cut, _ = psd_cut(gram_sum(ws), tol=tol)
    p = dec.above(cut, lambda t: 1.0)
    ideal_resid = check(
        "support projection p of W W* is not in the left algebra, relative to its norm",
        left.basis.max_relative_residual(p.reshape(1, -1)), tol.member, NotInAlgebra)
    module_resid = max(
        check("W is not in the TRO, relative to its norm",
              tro.basis.max_relative_residual(submodule.basis.stack), tol.member,
              MembershipViolation),
        check("p w = w fails on W", identity_defect(p, ws), tol.member),
    )
    # pZ is 0 for p = 0, and the zero TRO has no unit to take the trace with
    dim_pz = _corner_space(tro, p, tro.right_algebra.unit, tol) if submodule.dim else 0
    if dim_pz != submodule.dim:
        raise VerificationFailure(f"W is not pZ: dim pZ = {dim_pz}, dim W = {submodule.dim}")
    check("W is not closed under the right algebra",
          module_defect(submodule.basis, tro.right_algebra.family, right=True), tol.member)
    ideal = RightIdeal(parent=left, generators=[p], basis=span_rows(
        (p @ left.basis.matrices).reshape(-1, left.ambient_dim ** 2), left.basis.shape, tol=tol))
    report = {"module_roundtrip": module_resid, "ideal_roundtrip": ideal_resid, "ok": True}
    return dec, cut, ideal, report


def is_maximal_submodule(tro, submodule, tol=DEFAULT_TOL):
    """Whether ``W`` is maximal among proper submodules: with ``W = pZ``
    certified by :func:`submodule_ideal_roundtrip`, exactly when
    ``u_L - p`` is a minimal projection of the left algebra, the paper's
    criterion for its ideal ``pL`` to be a maximal right ideal."""
    if submodule.dim == tro.dim:
        raise NotProper("the submodule is the whole TRO")
    # the roundtrip stays on the submodule for a caller that asks for it
    # next; the zero submodule has p = 0, maximal only when u_L is minimal
    ideal, _ = submodule_ideal_roundtrip(tro, submodule, tol=tol)
    left = tro.left_algebra
    return is_minimal_projection(left, left.unit - ideal.generators[0], tol=tol)


def finite_generation_certificate(submodule, tol=DEFAULT_TOL):
    """Algebraic generators with a reproducing projection for a nonzero
    submodule.

    From an orthonormal basis ``w_1 .. w_r`` of ``W``, the positive
    element ``s = sum w_i w_i*`` has support projection ``e`` acting as
    identity on ``W``; pushing the basis through ``s^(-1/2)`` (on the
    support) gives new elements ``z_i = s^(-1/2) w_i`` of ``W`` with
    ``sum z_i z_i* = e`` exactly.  The returned certificate carries the
    ``z_i`` and ``e`` plus the verified residuals.

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
    ws = submodule.basis.matrices
    # one eigendecomposition, kept by a verified roundtrip, gives s^(-1/2) and the support of s
    kept = submodule._kept(tol)
    dec, cut = kept[2:4] if kept is not None else psd_cut(gram_sum(ws), tol=tol)[:2]
    zs = dec.above(cut, lambda t: t ** -0.5) @ ws
    return _certify_generation(submodule.basis, zs, dec.above(cut, lambda t: 1.0), tol)


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

