"""Dense complex-matrix substrate: Hermitian spectral calculus and
Hilbert-Schmidt subspace arithmetic.

Every matrix in this package is a ``numpy`` array of ``complex128``.  The
ambient inner product is the Hilbert-Schmidt pairing ``<X, Y> = tr(Y* X)``,
under which the norm of a matrix equals the Frobenius norm of its entries;
flattening therefore turns subspaces of matrices into ordinary row spaces,
and that is how :class:`Subspace` stores them.

The spectral side keeps a single code path: every function of a
Hermitian matrix, spectral projections included, is
:meth:`SpectralDecomposition.apply` on its :func:`hermitian_eig`.
:func:`cluster_partition` is the one grouping of a spectrum and the one
rule for which eigenvalues are zero: the clusters, split at steps larger
than ``tol.gap * max|lambda|``, that hold an eigenvalue within that gap of
0.  :func:`spectrum_cut`, the one zero/positive cut of a spectrum,
places its cut between the zero clusters and the next value;
:func:`psd_cut` applies it to the eigenvalues of a positive semidefinite
matrix.  Each step is compared with the gap once, so an eigenvalue one
gap above the zero clusters, up to roundoff, either joins them or is that
next eigenvalue; a cut needs 2.5 gaps, so it raises :class:`GapNotFound`
there rather than cut past the eigenvalue.

:func:`grow_span` is the one routine that extends a span, and nothing
here iterates it to a fixed point: algebras and TROs are read off a block
decomposition (:mod:`cstarlab.structure`), right ideals as ``pA``, and only
the oracle :func:`~cstarlab.ideals.right_module_span` grows a module.

Residuals against a span have one routine per idea: :func:`project` is
the one projection onto a span, :meth:`Subspace.max_relative_residual` at
most ``tol.member`` the one membership rule, and :func:`module_defect` the
one check that a span is closed under multiplication by a family.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    GapNotFound,
    NotSelfAdjoint,
    NumericalFailure,
    ShapeMismatch,
    check,
)

__all__ = [
    "as_matrix",
    "hs_norm",
    "safe_norm",
    "op_norm",
    "SpectralDecomposition",
    "hermitian_eig",
    "cluster_partition",
    "Subspace",
    "project",
    "orthonormalize",
    "identity_defect",
    "module_defect",
    "gram_sum",
    "spectrum_cut",
    "psd_cut",
    "support_projection_of_psd",
]


def as_matrix(x, shape=None):
    """Coerce ``x`` to a finite complex128 2-d array, validating its shape."""
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got ndim={m.ndim}")
    if shape is not None and m.shape != tuple(shape):
        raise ShapeMismatch(f"expected shape {tuple(shape)}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericalFailure("matrix has non-finite entries")
    return m


def hs_norm(x):
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(safe_norm(x))


# Largest magnitudes whose squares neither overflow nor sink into the
# subnormals, so that np.linalg.norm stays accurate to roundoff
_SAFE_NORM = (1e-140, 1e140)


def safe_norm(x, axis=None):
    """``np.linalg.norm(x, axis=axis)`` (Frobenius norm, or 2-norms along
    ``axis``) without overflow or underflow of the squares.

    ``np.linalg.norm`` squares entries without rescaling, so its result is
    ``inf`` above about 1e154 and 0 below about 1e-154.  When a norm falls
    outside ``_SAFE_NORM`` every slice whose largest entry does too is
    divided by that entry first; results inside the range are
    ``np.linalg.norm``'s, bit for bit.  A slice whose entries are all zero
    has norm 0 on either path, so it alone does not take the second.

    Both paths are ``np.linalg.norm``'s own formulas without its dispatch.
    The Frobenius norm (``axis=None``) is the square root of the dot
    products of the real and imaginary parts over ``ravel(order="K")``;
    the axis norms are ``sqrt(add.reduce((x.conj() * x).real, axis))``.
    ``np.vdot`` forms the dot products because it reports no
    floating-point overflow: like the overflow that ``np.errstate``
    silences for the axis norms, it is detected below and rescaled away.
    """
    if axis is None:
        flat = np.asarray(x).ravel(order="K")
        if flat.dtype.kind == "c":
            re, im = flat.real, flat.imag
            # Python floats, so that a sum past the largest double is inf
            # without a warning
            n = np.sqrt(float(np.vdot(re, re)) + float(np.vdot(im, im)))
        else:
            flat = flat.astype(float, copy=False)
            n = np.sqrt(np.vdot(flat, flat))
    else:
        x = np.asarray(x)
        with np.errstate(over="ignore"):
            n = np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))
    lo, hi = _SAFE_NORM
    if axis is None:
        if lo <= n <= hi or n == 0.0 and not x.any():
            return n
    elif n.max(initial=lo) <= hi and (lo <= n.min(initial=hi) or
                                      lo <= n.min(initial=hi, where=np.any(x, axis=axis))):
        return n
    top = np.max(np.abs(x), axis=axis, keepdims=True, initial=0.0)
    top = np.where((top == 0.0) | ((top >= lo) & (top <= hi)), 1.0, top)
    return (np.linalg.norm(x / top, axis=axis, keepdims=True) * top).reshape(np.shape(n))


def op_norm(m):
    """Operator (spectral) norm: the largest singular value."""
    if min(m.shape) == 0 or not np.any(m):
        return 0.0
    return float(np.linalg.norm(m, ord=2))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` is real and ascending; the columns of the unitary
    ``basis`` are the matching eigenvectors.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def apply(self, f):
        """Evaluate ``f`` on the eigenvalues and reassemble the matrix."""
        vals = np.array([float(f(t)) for t in self.eigenvalues])
        return (self.basis * vals) @ self.basis.conj().T

    def above(self, cut, f):
        """:meth:`apply` of ``f`` above ``cut`` and 0 at or below it; the
        zero matrix when ``cut`` is None, a spectrum with no positive part
        (:func:`psd_cut`)."""
        if cut is None:
            return np.zeros_like(self.basis)
        return self.apply(lambda t: f(t) if t > cut else 0.0)

    def reconstruct(self):
        return (self.basis * self.eigenvalues) @ self.basis.conj().T


def hermitian_eig(m, tol=DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Raises :class:`NotSelfAdjoint` when ``||m - m*||`` exceeds
    ``tol.spec * max(1, ||m||)``, and :class:`NumericalFailure` should the
    underlying solver not converge.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got {m.shape}")
    check("matrix is not self-adjoint: ||m - m*||", hs_norm(m - m.conj().T),
          tol.spec * max(1.0, hs_norm(m)), NotSelfAdjoint)
    h = 0.5 * (m + m.conj().T)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    return SpectralDecomposition(eigenvalues=w, basis=v)


def cluster_partition(eigenvalues, tol=DEFAULT_TOL):
    """Partition a real spectrum into clusters separated by more than
    ``gap = tol.gap * max|lambda|``, and find its zero cluster.

    Returns ``(clusters, zero)``: ``clusters`` lists index arrays into
    ``eigenvalues``, one per cluster in ascending order, and ``zero`` is the
    slice of ``clusters`` holding an eigenvalue within ``gap`` of 0.  A
    cluster is a run of the sorted spectrum, so the clusters that meet
    ``[-gap, gap]`` are consecutive; ``zero`` is empty, and placed where
    that interval falls, when none does.  This is the one rule for which
    eigenvalues count as zero.
    """
    w = np.asarray(eigenvalues, dtype=float)
    order = np.argsort(w)
    ws = w[order]
    vals = ws.tolist()
    if not vals:
        return [], slice(0, 0)
    # the largest magnitude of a sorted spectrum is at one of its ends
    gap = tol.gap * max(abs(vals[0]), abs(vals[-1]))
    # a cluster starts at 0 and after every step larger than the gap
    starts = (np.flatnonzero(ws[1:] - ws[:-1] > gap) + 1).tolist()
    bounds = [0, *starts, len(vals)]
    clusters = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    # the sorted positions lo .. hi-1 hold [-gap, gap], and the cluster of
    # a position is the number of starts at or before it
    lo, hi = bisect_left(vals, -gap), bisect_right(vals, gap)
    first = bisect_right(starts, lo)
    return clusters, slice(first, bisect_right(starts, hi - 1) + 1 if hi > lo else first)


# --------------------------------------------------------------------------
# subspaces of matrices


def project(stack, rows):
    """Orthogonal projection ``(rows S*) S`` of flattened ``rows`` onto the
    span of the orthonormal row ``stack`` ``S``, with ``rows S*`` formed as
    ``(S rows*)*`` so the stack is not copied to conjugate it."""
    return (stack @ rows.conj().T).conj().T @ stack


class Subspace:
    """A linear subspace of ``rows x cols`` complex matrices.

    Stores an orthonormal basis (w.r.t. the Hilbert-Schmidt inner product)
    as the rows of ``stack``, each row a flattened matrix.  Instances are
    treated as immutable once built.
    """

    __slots__ = ("rows", "cols", "stack")

    def __init__(self, rows, cols, stack):
        self.rows = int(rows)
        self.cols = int(cols)
        stack = np.asarray(stack, dtype=np.complex128)
        if stack.ndim != 2 or stack.shape[1] != self.rows * self.cols:
            raise ShapeMismatch(
                f"basis stack must be (dim, {self.rows * self.cols}), got {stack.shape}"
            )
        self.stack = stack

    @classmethod
    def empty(cls, rows, cols):
        return cls(rows, cols, np.zeros((0, rows * cols), dtype=np.complex128))

    @property
    def dim(self):
        return self.stack.shape[0]

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def matrices(self):
        """Basis as a (dim, rows, cols) array."""
        return self.stack.reshape(-1, self.rows, self.cols)

    def residual(self, x):
        """Absolute distance from the matrix ``x`` to the span."""
        flat = as_matrix(x, shape=self.shape).reshape(1, -1)
        return float(safe_norm(flat - project(self.stack, flat)))

    def contains(self, x, tol=DEFAULT_TOL):
        """Whether the matrix ``x`` is in the span by the membership rule of
        :meth:`max_relative_residual`."""
        flat = as_matrix(x, shape=self.shape).reshape(1, -1)
        return self.max_relative_residual(flat) <= tol.member

    def row_residuals(self, flat):
        """Distance to the span of every row of a ``(k, rows*cols)`` block,
        by one batched :func:`project`."""
        return safe_norm(flat - project(self.stack, flat), axis=1)

    def max_relative_residual(self, flat):
        """Largest ``dist(row, span) / max(1, ||row||)`` over the rows of
        ``flat``; 0.0 for no rows.  Rows are in the span when it is at most
        ``tol.member``."""
        scales = np.maximum(1.0, safe_norm(flat, axis=1))
        return float(np.max(self.row_residuals(flat) / scales, initial=0.0))

    def distance(self, other):
        """Worst residual of either basis against the other span; ``inf``
        when the shapes or dimensions differ."""
        if self.shape != other.shape or self.dim != other.dim:
            return float("inf")
        return float(max(
            np.max(other.row_residuals(self.stack), initial=0.0),
            np.max(self.row_residuals(other.stack), initial=0.0),
        ))

    def equals(self, other, tol=DEFAULT_TOL):
        """Same span: equal dimensions and mutual containment of bases."""
        return self.distance(other) <= tol.member


def _stack_inputs(mats, shape=None):
    """Validate a family of equally-shaped matrices; return (n, r*c) stack."""
    mats = list(mats)
    if not mats:
        if shape is None:
            raise ShapeMismatch("empty input needs an explicit shape")
        r, c = shape
        return (int(r), int(c)), np.zeros((0, int(r) * int(c)), dtype=np.complex128)
    try:
        arr = np.asarray(mats, dtype=np.complex128)
    except ValueError as exc:
        raise ShapeMismatch("matrices of unequal shapes") from exc
    if arr.ndim != 3:
        raise ShapeMismatch(f"expected 2-d arrays, got ndim={arr.ndim - 1}")
    if shape is not None and arr.shape[1:] != tuple(shape):
        raise ShapeMismatch(f"expected shape {tuple(shape)}, got {arr.shape[1:]}")
    if not np.all(np.isfinite(arr)):
        raise NumericalFailure("matrix has non-finite entries")
    return arr.shape[1:], arr.reshape(len(mats), -1)


def orthonormalize(mats, tol=DEFAULT_TOL, shape=None):
    """Orthonormal basis of the span of a family of matrices.

    The family is validated as one stack and handed to :func:`span_rows`,
    so the rank rule is that of :func:`grow_span`: right singular vectors
    with singular value above ``tol.rank * max ||input||`` are kept.

    ``shape`` is only needed when ``mats`` is empty.
    """
    shape, flat = _stack_inputs(mats, shape=shape)
    return span_rows(flat, shape, tol=tol)


def grow_span(stack, candidates, tol=DEFAULT_TOL):
    """Extend an orthonormal row ``stack`` by the directions of
    ``candidates`` not already in its span.

    SVD-based: candidates are projected off the current span (twice, to
    kill roundoff leakage), and right singular vectors of the residual
    block with singular value above ``tol.rank * scale`` are appended.
    When the residual block's Frobenius norm is at most that cutoff after
    either pass no singular value can pass it, and the rest is skipped.
    Used for right modules, the unitization and, through
    :func:`span_rows`, for every orthonormal basis in the package.

    The kept rows are projected off ``stack`` once more and checked
    orthonormal, against each other and against ``stack``, to
    ``tol.member`` in every inner product, at the cost of products with
    the new rows only: a defective LAPACK SVD that returns rows which are
    not orthonormal raises :class:`NumericalFailure` instead of corrupting
    every span built on the stack.
    """
    candidates = np.asarray(candidates, dtype=np.complex128)
    if candidates.ndim != 2 or candidates.shape[0] == 0:
        return stack, False
    scale = float(np.max(safe_norm(candidates, axis=1)))
    if scale == 0.0:
        return stack, False
    resid = candidates
    if stack.shape[0]:
        for _ in range(2):
            resid = resid - project(stack, resid)
            # no singular value exceeds the Frobenius norm, and a second pass
            # cannot raise it: below the cutoff the SVD would keep nothing, so
            # candidates already in the span cost one pass and no SVD
            if safe_norm(resid) <= tol.rank * scale:
                return stack, False
    try:
        _, svals, vh = np.linalg.svd(resid, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure(f"svd failed while growing span: {exc}") from exc
    keep = int(np.sum(svals > tol.rank * scale))
    if keep == 0:
        return stack, False
    fresh = vh[:keep]
    if stack.shape[0]:
        # a row whose singular value sits near the cut carries the
        # residual's roundoff along the stack magnified by scale / sval
        # (up to 2e-8 with an accurate SVD); one more projection of the new
        # rows removes it and moves their inner products by its square
        fresh = fresh - project(stack, fresh)
    worst = max(
        float(np.max(np.abs(fresh @ fresh.conj().T - np.eye(keep)))),
        float(np.max(np.abs(fresh @ stack.conj().T), initial=0.0)),
    )
    check("svd returned rows that are not orthonormal: inner products off",
          worst, tol.member, NumericalFailure)
    return np.vstack([stack, fresh]), True


def span_rows(candidates, shape, tol=DEFAULT_TOL):
    """Orthonormal basis (as a Subspace) of the row space of ``candidates``."""
    r, c = shape
    empty = np.zeros((0, r * c), dtype=np.complex128)
    stack, _ = grow_span(empty, candidates, tol=tol)
    return Subspace(r, c, stack)


def identity_defect(e, mats, right=False):
    """Largest ``||e x - x||`` over a ``(k, rows, cols)`` stack ``x``, or
    ``||x e - x||`` when ``right`` is set: how far ``e`` is from acting as
    the identity on the stack; 0.0 for an empty stack."""
    prods = mats @ e if right else e @ mats
    return float(np.max(np.linalg.norm(prods - mats, axis=(1, 2)), initial=0.0))


def module_defect(space, family, right=False):
    """:meth:`Subspace.max_relative_residual` of the products ``t x`` over
    ``t`` in the ``(k, m, m)`` ``family`` and the basis ``x`` of ``space``,
    family outermost, or of ``x t``, basis outermost, when ``right`` is set:
    how far ``space`` is from closed under multiplication by the family."""
    xs = space.matrices
    prods = xs[:, None] @ family[None] if right else family[:, None] @ xs[None]
    return space.max_relative_residual(prods.reshape(-1, space.rows * space.cols))


def gram_sum(mats):
    """``sum_x x x*`` over a ``(k, m, n)`` stack, made exactly self-adjoint:
    one product ``F F*`` of the stack laid side by side as the ``(m, k n)``
    matrix ``F``."""
    k, m, n = mats.shape
    flat = mats.transpose(1, 0, 2).reshape(m, k * n)
    s = flat @ flat.conj().T
    return 0.5 * (s + s.conj().T)


# --------------------------------------------------------------------------
# spectral gap utilities


def place_cut_in_gap(zero_hi, pos_lo, scale, tol=DEFAULT_TOL):
    """Pick a spectral cut between a zero cluster and the positive part.

    The cut is the geometric mean of the cluster edge (clamped below by the
    spectral tolerance relative to ``scale``) and the first positive
    eigenvalue, then clipped so it keeps a safe margin from both sides.
    """
    if pos_lo is None:
        raise GapNotFound("spectrum has no positive part separated from zero")
    g = tol.gap * scale  # relative, consistent with the cluster chaining
    if pos_lo - zero_hi <= 2.5 * g:
        raise GapNotFound(
            f"gap [{zero_hi:.3e}, {pos_lo:.3e}] too narrow for tolerance {g:.3e}"
        )
    lo_edge = max(zero_hi, tol.spec * scale)
    cut = float(np.sqrt(lo_edge * pos_lo))
    return float(np.clip(cut, zero_hi + 1.25 * g, pos_lo - 1.25 * g))


def spectrum_cut(w, tol=DEFAULT_TOL):
    """``(cut, pos_lo)``: the cut (:func:`place_cut_in_gap`) between the
    zero cluster (:func:`cluster_partition`) of an ascending real spectrum
    ``w`` and the rest, and the smallest value above the cut.

    Both are None when the spectrum is one negligible zero cluster;
    :class:`GapNotFound` is raised when it is one cluster that is not
    negligible, or when no gap separates the two parts.
    """
    # w ascends, so its largest magnitude is at an end, and so is that of
    # the zero clusters, one run of it; the next cluster starts the positive
    # part
    top = max(abs(float(w[0])), abs(float(w[-1]))) if w.size else 0.0
    clusters, zero = cluster_partition(w, tol=tol)
    run = clusters[zero]
    zero_hi = float(max(abs(w[run[0][0]]), abs(w[run[-1][-1]]))) if run else 0.0
    if zero.stop == len(clusters):
        check("spectrum is one cluster not separated from zero", zero_hi,
              tol.member * max(1.0, top), GapNotFound)
        return None, None
    pos_lo = float(w[clusters[zero.stop][0]])
    return place_cut_in_gap(zero_hi, pos_lo, top, tol=tol), pos_lo


def psd_cut(s, tol=DEFAULT_TOL):
    """``(dec, cut, pos_lo)``: the eigendecomposition of a positive
    semidefinite ``s`` and the :func:`spectrum_cut` of its eigenvalues,
    between its zero cluster and positive part.

    ``cut`` and ``pos_lo`` are None when the spectrum is one negligible
    zero cluster; :class:`GapNotFound` is raised when it is one cluster
    that is not negligible, or when no gap separates the two parts.
    """
    dec = hermitian_eig(s, tol=tol)
    return (dec, *spectrum_cut(dec.eigenvalues, tol=tol))


def support_projection_of_psd(s, tol=DEFAULT_TOL):
    """Range projection of a positive semidefinite matrix: the indicator of
    the positive side of :func:`psd_cut`, or the zero matrix when the
    spectrum is all zero cluster."""
    dec, cut, _ = psd_cut(s, tol=tol)
    return dec.above(cut, lambda t: 1.0)


def pseudo_inverse_sqrt(s, tol=DEFAULT_TOL):
    """``f(s)`` for ``f(t) = t^(-1/2)`` on the positive part, 0 on the kernel.

    The split between kernel and positive part is :func:`psd_cut`, as in
    :func:`support_projection_of_psd`, so
    ``pseudo_inverse_sqrt(s) @ s @ pseudo_inverse_sqrt(s)`` is the support
    projection of ``s``.
    """
    dec, cut, _ = psd_cut(s, tol=tol)
    return dec.above(cut, lambda t: t ** -0.5)
