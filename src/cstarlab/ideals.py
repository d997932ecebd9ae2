"""Finitely generated right ideals and their projection generators.

Any finitely generated right ideal ``J`` of a finite-dimensional *-closed
matrix algebra is singly generated by a projection ``p`` of the algebra:
``J = pA``.  The constructive route implemented here goes through the
positive element ``b = sum_j g_j g_j*`` built from the generators.
Factoring the fourth root ``b^(1/4) = sum_j g_j c_j`` through the
generators, in closed form ``c_j = g_j* b^(-3/4)`` (inverse power on the
positive part of ``b``), gives the operator bound
``b^(1/2) <= n K b`` with ``K = max_j ||c_j||^2``, which pins the nonzero
spectrum of ``b`` away from zero: ``spec(b) \\ {0} >= (nK)^(-2)``.  A
spectral cut in the resulting gap produces ``p``, and all claimed
identities are verified numerically before the certificate is returned;
``p g_j = g_j`` and ``p = sum_j g_j d_j`` with ``d_j = g_j* b^+`` in A
give ``J = pA``, which :func:`generate_right_ideal` writes down in A's block
coordinates with no span grown (:func:`right_module_span` is its span oracle).
``p`` is scale-free, so it is certified for the generators over their largest norm.
"""

import numpy as np
from dataclasses import dataclass, field

from .config import DEFAULT_TOL
from .errors import (
    CoefficientSolveFailed,
    GapNotFound,
    NotAProjection,
    NotInAlgebra,
    NotProper,
    NotUnital,
    check,
)
from .algebra import StarAlgebra, _block_space, _compress
from .linalg import (
    Subspace,
    as_matrix,
    gram_sum,
    grow_span,
    hs_norm,
    identity_defect,
    module_defect,
    op_norm,
    psd_cut,
    span_rows,
    support_projection_of_psd,
)

__all__ = [
    "RightIdeal",
    "ProjectionCertificate",
    "generate_right_ideal",
    "right_module_span",
    "projection_generator",
    "support_projection",
    "is_minimal_projection",
    "is_maximal_right_ideal",
]


@dataclass(eq=False)
class ProjectionCertificate:
    """Witness data for ``J = pA`` produced by :func:`projection_generator`.

    Attributes
    ----------
    projection : ndarray
        The projection ``p`` with ``J = pA``; zero for the zero ideal.
    gram : ndarray
        ``b = sum_j g_j g_j*`` over the nonzero generators (``inf`` or 0 outside the doubles).
    coefficients : list of ndarray
        The ``c_j = g_j* b^(-3/4)`` in the algebra, with
        ``b^(1/4) = sum_j g_j c_j``: the minimum-norm factorization.
    coefficient_bound : float
        ``K = max_j ||c_j||_op^2``.
    generator_count : int
        Number of (nonzero) generators ``n`` entering the bound.
    threshold : float
        ``(n K)^(-2)``: proven lower bound for the nonzero spectrum of
        ``b``.  Zero for the zero ideal, where the bound is vacuous.
    min_positive_eigenvalue : float
        Smallest eigenvalue of ``b`` above its zero cluster (0.0 when
        there is none).
    spectrum : ndarray
        All eigenvalues of ``b``, ascending.
    cut : float
        The spectral cut used to extract ``p`` from ``b``.
    solve_residual : float
        ``||sum_j g_j c_j - b^(1/4)||``, the roundoff of the closed-form
        factorization.
    residuals : dict
        Named residuals of the verified identities (idempotency,
        self-adjointness, ``pb = b``, membership of ``p`` in ``J``,
        ``J = pA``).
    """

    projection: np.ndarray
    gram: np.ndarray
    coefficients: list
    coefficient_bound: float
    generator_count: int
    threshold: float
    min_positive_eigenvalue: float
    spectrum: np.ndarray
    cut: float
    solve_residual: float
    residuals: dict = field(default_factory=dict)

    @property
    def is_trivial(self):
        return self.generator_count == 0


@dataclass(eq=False)
class RightIdeal:
    """A right ideal ``J = pA`` of a :class:`StarAlgebra`, with its generators.

    ``basis`` is orthonormal: the matrix units ``v_q v_j* / sqrt(m_k)`` of
    ``pA`` when :func:`_ideal_from_ranges` builds it.
    """

    parent: StarAlgebra
    generators: list
    basis: Subspace

    @property
    def dim(self):
        return self.basis.dim

    def contains(self, x, tol=DEFAULT_TOL):
        return self.basis.contains(x, tol=tol)


def right_module_span(algebra, generators, rows, tol=DEFAULT_TOL):
    """Span of ``g a`` over the ``rows x N`` generators ``g`` and ``a`` in
    the unitization of ``algebra`` (so the generators belong to it), verified
    closed under right multiplication by ``algebra``: the span oracle for
    right ideals ``g A^1`` and TRO submodules ``g (Z* Z)^1``.

    One round over the algebra's orthonormal basis, which spans it: the
    span of the generators grows by ``s b_i`` for every orthonormal row
    ``s`` of it, one :func:`grow_span` per row, so each rank cut is at the
    scale of unit-norm products and no row is multiplied again.  The
    result is checked closed under right multiplication by the algebra's
    ``family`` and its adjoints, which generate the algebra.
    """
    n = algebra.ambient_dim
    basis = algebra.basis.matrices
    gens = np.array(generators, dtype=np.complex128).reshape(len(generators), rows * n)
    start = span_rows(gens, (rows, n), tol=tol)
    stack = start.stack
    for s in start.matrices:
        stack, _ = grow_span(stack, (s @ basis).reshape(-1, rows * n), tol=tol)
    space = Subspace(rows, n, stack)
    # one family member at a time: dim J products in memory, not 2 k dim J
    check("generated span is not right-module closed",
          max((module_defect(space, t[None], right=True)
               for t in (*algebra.family, *algebra.family.conj().transpose(0, 2, 1))),
              default=0.0),
          tol.member)
    return space


def _ideal_from_ranges(parent, generators, ranges):
    """``pA`` with the basis ``v_q v_j* / sqrt(m_k)`` over the ranges ``v_q`` of ``p``
    (:func:`~cstarlab.algebra._compress`) and the stacks ``v_j`` of A's blocks."""
    n = parent.ambient_dim
    return RightIdeal(parent=parent, generators=list(generators),
                      basis=_block_space(list(zip(ranges, parent.blocks)), (n, n)))


def generate_right_ideal(parent, generators, tol=DEFAULT_TOL):
    """The right ideal ``sum_j g_j A^1`` of ``parent`` as ``pA``, for the ``p`` of
    :func:`projection_generator` (:func:`_ideal_from_ranges`): no span is grown.  A
    generator part from about ``tol.rank`` to 3e-4 of the largest one squares into
    ``b``'s zero cluster, so ``p`` misses it and :class:`VerificationFailure` is raised."""
    gens = [as_matrix(g, shape=(parent.ambient_dim,) * 2) for g in generators]
    p = projection_generator(parent, gens, tol=tol).projection
    ranges, _ = _compress(parent, p, tol)
    return _ideal_from_ranges(parent, gens, ranges)


def _trivial_certificate(ambient_dim):
    zero = np.zeros((ambient_dim, ambient_dim), dtype=np.complex128)
    return ProjectionCertificate(
        projection=zero,
        gram=zero,
        coefficients=[],
        coefficient_bound=0.0,
        generator_count=0,
        threshold=0.0,
        min_positive_eigenvalue=0.0,
        spectrum=np.zeros(ambient_dim),
        cut=0.0,
        solve_residual=0.0,
        residuals={},
    )


def projection_generator(parent, generators, tol=DEFAULT_TOL):
    """Projection ``p`` with ``J = pA``, certified from the generators of ``J``.

    Implements the constructive factorization described in the module
    docstring.  The degenerate case — every generator numerically zero —
    yields the zero ideal's trivial certificate (zero projection, zero
    threshold) rather than an error.

    Raises
    ------
    NotInAlgebra
        If a generator is not in the algebra.
    CoefficientSolveFailed
        If ``sum_j g_j c_j`` misses ``b^(1/4)`` beyond tolerance, which
        only roundoff in the eigendecomposition of ``b`` can cause.
    GapNotFound
        If the spectrum of ``b`` has no usable gap above zero — cannot
        happen for a genuine ideal unless tolerances are misconfigured.
    VerificationFailure
        If any of the certified identities fails its tolerance.
    """
    n = parent.ambient_dim
    gens = [as_matrix(g, shape=(n, n)) for g in generators]
    check("ideal generator is not in the algebra, relative to its norm",
          parent.max_relative_residual(gens), tol.member, NotInAlgebra)
    # drop generators that are zero relative to the largest one (the ideal
    # they generate is scale-invariant, so the filter must be too)
    scale = max((hs_norm(g) for g in gens), default=0.0)
    gens = [g for g in gens if hs_norm(g) > tol.rank * scale]
    if not gens:
        return _trivial_certificate(n)

    gmats = np.array(gens) / scale
    b = gram_sum(gmats)

    dec, cut, pos_lo = psd_cut(b, tol=tol)
    if cut is None:
        raise GapNotFound("spectrum has no positive part separated from zero")
    # the quartic root must flush the zero cluster: raw t**0.25 would blow
    # roundoff-sized eigenvalues up to the fourth root of machine epsilon
    quarter = dec.above(cut, lambda t: t ** 0.25)

    # c_j = g_j* b^(-3/4) lies in A, and sum_j g_j c_j = b b^(-3/4) = b^(1/4);
    # it lies in the range of the adjoint of (c_j) -> sum_j g_j c_j, so it is
    # the minimum-norm factorization
    cs = gmats.conj().transpose(0, 2, 1) @ dec.above(cut, lambda t: t ** -0.75)
    solve_residual = check(
        "sum_j g_j c_j does not reproduce b^(1/4)",
        hs_norm((gmats @ cs).sum(axis=0) - quarter),
        tol.member * max(1.0, hs_norm(quarter)), CoefficientSolveFailed)
    bound = float(max(op_norm(c) ** 2 for c in cs))

    count = len(gens)
    threshold = (count * bound) ** -2 if bound > 0 else 0.0

    p = dec.above(cut, lambda t: 1.0)

    check(f"spectral bound violated: min positive eigenvalue {pos_lo:.6e} "
          f"below proven threshold {threshold:.6e}",
          threshold - pos_lo, tol.member * max(1.0, threshold))

    # d_j = g_j* b^+ lies in A, and sum_j g_j d_j = b b^+ = p puts p in J; the
    # roundoff of that sum grows with the d_j, so it is measured relative to them
    ds = gmats.conj().transpose(0, 2, 1) @ dec.above(cut, lambda t: 1.0 / t)
    residuals = {
        "idempotent": hs_norm(p @ p - p),
        "self_adjoint": hs_norm(p - p.conj().T),
        "pb_minus_b": hs_norm(p @ b - b) / max(1.0, hs_norm(b)),
        "ideal_equals_pA": identity_defect(p, gmats),
        "p_in_ideal": max(hs_norm((gmats @ ds).sum(axis=0) - p) / max(1.0, hs_norm(ds)),
                          parent.max_relative_residual(ds)),
    }
    for name, value in residuals.items():
        # what p misses of a generator must fall under the cutoff that would
        # have dropped the generator as zero
        limit = tol.rank if name == "ideal_equals_pA" else tol.member
        check(f"certificate identity '{name}' fails", value, limit)

    # at the generators' scale s, b scales by s^2 and the c_j by s^(-1/2)
    with np.errstate(over="ignore"):
        gram, spectrum = b * scale * scale, dec.eigenvalues * scale * scale
    return ProjectionCertificate(
        projection=p,
        gram=gram,
        coefficients=list(cs / np.sqrt(scale)),
        coefficient_bound=bound / scale,
        generator_count=count,
        threshold=threshold * scale * scale,
        min_positive_eigenvalue=pos_lo * scale * scale,
        spectrum=spectrum,
        cut=cut * scale * scale,
        solve_residual=solve_residual * np.sqrt(scale),
        residuals=residuals,
    )


def support_projection(parent, ideal, tol=DEFAULT_TOL):
    """Range projection of ``sum_x x x*`` over an orthonormal basis of
    the ideal: the smallest projection acting as identity on it from the
    left.  Independent of :func:`projection_generator` (no generators, no
    coefficient factorization), which makes the two a cross-check pair.
    The zero ideal's Gram sum is 0, whose support is the zero projection.
    """
    return support_projection_of_psd(gram_sum(ideal.basis.matrices), tol=tol)


def _corner_space(parent, e, f, tol):
    """``dim e A f`` for projections ``e``, ``f`` of the algebra, as a trace:
    ``x -> e x f`` projects ``A`` orthogonally onto ``e A f`` in the
    Hilbert-Schmidt inner product, so ``S = sum_i ||e b_i f||^2`` over the
    orthonormal basis ``(b_i)`` is the dimension.  No span is formed; the
    name stays because the benchmark traces ``ideals._corner_space``.

    ``e`` is within ``eta_e = tol.member * max(1, ||e||)`` of a projection
    of ``A`` (what ``require_projection`` accepts), ``f`` within ``eta_f``,
    and ``||d B||_F <= sqrt(dim A) ||d||`` for the basis stack ``B``.  So
    ``sqrt(S)`` is within ``r = sqrt(dim A) (eta_e + eta_f)`` of the root of
    an integer, and ``S`` within ``r (2 sqrt(S) + r)`` of it: to first order
    ``2 (eta_e + eta_f) sqrt(dim A S)``.  Outside that bound (a basis that
    is not orthonormal, a NaN) :class:`VerificationFailure` is raised.
    """
    prods = e @ parent.basis.matrices @ f
    total = float(np.vdot(prods, prods).real)
    eta = tol.member * (max(1.0, hs_norm(e)) + max(1.0, hs_norm(f)))
    r = np.sqrt(parent.dim) * eta
    check("corner trace dim eAf = sum_i ||e b_i f||^2 is not an integer",
          abs(total - np.rint(total)), r * (2.0 * np.sqrt(total) + r))
    return int(np.rint(total))


def is_minimal_projection(parent, e, tol=DEFAULT_TOL):
    """Whether the corner ``e A e`` is one-dimensional.

    Minimality of a projection is equivalent to its corner being the
    scalars ``C e``; rank of ``e`` in the ambient matrices is irrelevant
    (a block with multiplicity has minimal projections of higher rank).
    """
    e = parent.require_projection(e, tol=tol, what="projection")
    if hs_norm(e) <= tol.member:
        raise NotAProjection("the zero projection is not minimal")
    return _corner_space(parent, e, e, tol) == 1


def is_maximal_right_ideal(parent, ideal, tol=DEFAULT_TOL):
    """Whether ``J`` is maximal among proper right ideals.

    For a unital algebra maximality is equivalent to ``J = pA`` with
    ``u - p`` minimal, which is what gets checked: the support projection
    ``p`` of ``J`` must single-generate ``J``, and its complement in the
    unit must have a one-dimensional corner.
    """
    u = parent.unit
    if u is None:
        raise NotUnital("maximality needs an algebra with a unit")
    if ideal.basis.contains(u, tol=tol):
        raise NotProper("the ideal contains the unit, so it is not proper")
    p = support_projection(parent, ideal, tol=tol)
    if not parent.contains(p, tol=tol):
        return False
    fix = identity_defect(p, ideal.basis.matrices)
    if fix > tol.member or not ideal.basis.contains(p, tol=tol):
        return False
    q = u - p
    if hs_norm(q) <= tol.member:  # pragma: no cover - excluded by properness
        return False
    return is_minimal_projection(parent, q, tol=tol)
