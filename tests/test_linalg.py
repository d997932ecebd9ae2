"""Tests for the dense linear-algebra layer: eigendecompositions, spectral
projections, Hilbert-Schmidt geometry, and span bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstarlab.algebra import StarAlgebra
from cstarlab.config import DEFAULT_TOL, Tolerances
from cstarlab.errors import (
    GapNotFound,
    NotSelfAdjoint,
    NumericalFailure,
    ShapeMismatch,
)
from cstarlab.linalg import (
    Subspace,
    grow_span,
    hermitian_eig,
    hs_norm,
    op_norm,
    orthonormalize,
    place_cut_in_gap,
    project,
    psd_cut,
    pseudo_inverse_sqrt,
    span_rows,
    support_projection_of_psd,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
E22 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


# ---------------------------------------------------------------------------
# eigendecomposition and functional calculus


def test_hermitian_eig_pauli_x():
    """Frozen oracle: the symmetric permutation has spectrum {-1, +1}."""
    dec = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(dec.reconstruct(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
    # eigenvector columns are orthonormal
    np.testing.assert_allclose(
        dec.basis.conj().T @ dec.basis, np.eye(2), atol=1e-14
    )


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotSelfAdjoint):
        hermitian_eig(E12)


def test_hermitian_eig_roundtrip_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        m = random_hermitian(rng, n)
        dec = hermitian_eig(m)
        np.testing.assert_allclose(dec.reconstruct(), m, atol=1e-12)
        assert np.all(np.diff(dec.eigenvalues) >= -1e-12)


def test_functional_calculus_polynomial():
    """f(m) for polynomial f agrees with the matrix polynomial."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = random_hermitian(rng, 5)
        dec = hermitian_eig(m)
        sq = dec.apply(lambda t: t * t)
        np.testing.assert_allclose(sq, m @ m, atol=1e-10)
        ident = dec.apply(lambda t: t)
        np.testing.assert_allclose(ident, m, atol=1e-12)


def test_functional_calculus_exp_diagonal():
    m = np.diag([0.0, np.log(2.0)])
    out = hermitian_eig(m).apply(np.exp)
    np.testing.assert_allclose(out, np.diag([1.0, 2.0]), atol=1e-14)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt geometry


def test_hs_inner_matrix_units():
    assert hs_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0))


def test_op_norm_oracles():
    assert op_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0)
    assert op_norm(2.0 * E12) == pytest.approx(2.0)


@settings(max_examples=40, derandomize=True)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_op_norm_adjoint_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert op_norm(x.conj().T) == pytest.approx(op_norm(x), rel=1e-10)
    assert op_norm(x) <= hs_norm(x) + 1e-12


# ---------------------------------------------------------------------------
# subspaces and spans


def test_orthonormalize_rank_oracle():
    """Rank of the span must match the matrix rank of the stacked inputs."""
    mats = [E11, E11 + E12, E12]
    space = orthonormalize(mats)
    flat = np.array([m.ravel() for m in mats])
    assert space.dim == np.linalg.matrix_rank(flat)
    assert space.dim == 2
    np.testing.assert_allclose(
        space.stack @ space.stack.conj().T, np.eye(2), atol=1e-12
    )


def test_orthonormalize_random_rank():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 6))
        mats = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(k)
        ]
        # force a dependency half the time
        if k >= 2 and rng.random() < 0.5:
            mats[-1] = 0.25 * mats[0] - 2.0 * mats[1]
        space = orthonormalize(mats)
        flat = np.array([m.ravel() for m in mats])
        assert space.dim == np.linalg.matrix_rank(flat, tol=1e-8)
        for m in mats:
            assert space.residual(m) <= 1e-10 * max(1.0, hs_norm(m))


def test_orthonormalize_empty_with_shape():
    space = orthonormalize([], shape=(3, 3))
    assert space.dim == 0
    assert space.shape == (3, 3)
    assert space.residual(np.eye(3)) == pytest.approx(np.sqrt(3.0))


def test_subspace_membership_and_coords():
    space = orthonormalize([E11, E22])
    assert space.contains(np.diag([2.0, -1.0]))
    assert not space.contains(E12)
    assert space.residual(E12) == pytest.approx(1.0)
    assert space.residual(np.diag([2.0, -1.0])) == pytest.approx(0.0, abs=1e-14)


def test_subspace_shape_mismatch():
    space = orthonormalize([E11])
    with pytest.raises(ShapeMismatch):
        space.residual(np.eye(3))


def test_subspace_equals():
    a = orthonormalize([E11, E22])
    b = orthonormalize([E11 + E22, E11 - E22])
    c = orthonormalize([E11, E12])
    assert a.equals(b)
    assert not a.equals(c)
    assert not a.equals(Subspace.empty(2, 2))


def mgs_orthonormalize(mats, tol_rank):
    """Reference: modified Gram-Schmidt with one reorthogonalization pass,
    dropping vectors whose residual is at most ``tol_rank * max ||input||``."""
    flat = np.array([np.asarray(m, dtype=np.complex128).ravel() for m in mats])
    scale = float(np.max(np.linalg.norm(flat, axis=1)))
    kept = []
    for v in flat:
        w = v.copy()
        for _ in range(2):
            for b in kept:
                w -= np.vdot(b, w) * b
        norm = np.linalg.norm(w)
        if norm > tol_rank * scale:
            kept.append(w / norm)
    return Subspace(*np.shape(mats[0]), np.array(kept).reshape(len(kept), -1))


def loop_span_distance(a, b):
    """Reference: worst mutual basis residual, one basis row at a time."""
    if a.dim != b.dim:
        return float("inf")
    worst = 0.0
    for x in a.matrices:
        worst = max(worst, b.residual(x))
    for x in b.matrices:
        worst = max(worst, a.residual(x))
    return worst


def cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 8), st.integers(0, 5))
def test_orthonormalize_matches_gram_schmidt(seed, rows, cols, rank, dependent):
    """Random complex families with planted linear dependencies: the SVD
    basis spans what modified Gram-Schmidt spans, with the same rank."""
    rng = np.random.default_rng(seed)
    rank = min(rank, rows * cols)
    free = cplx(rng, rank, rows, cols) * 10.0 ** rng.uniform(-2, 2, size=(rank, 1, 1))
    combos = np.einsum("ka,aij->kij", cplx(rng, dependent, rank), free)
    mats = list(np.concatenate([free, combos])[rng.permutation(rank + dependent)])
    space = orthonormalize(mats)
    ref = mgs_orthonormalize(mats, DEFAULT_TOL.rank)
    assert space.dim == ref.dim == rank
    assert loop_span_distance(space, ref) <= 1e-12
    np.testing.assert_allclose(space.stack @ space.stack.conj().T, np.eye(rank), atol=1e-12)


@pytest.mark.parametrize("make", [orthonormalize, StarAlgebra.from_span])
def test_span_constructors_validate_the_stack(make):
    with pytest.raises(ShapeMismatch):
        make([E11, np.eye(3)])
    with pytest.raises(ShapeMismatch):
        make([np.ones(4), np.ones(4)])
    with pytest.raises(ShapeMismatch):
        make([])
    for bad in (np.nan, np.inf):
        m = E12.copy()
        m[0, 1] = bad
        with pytest.raises(NumericalFailure):
            make([E11, m])


def test_orthonormalize_checks_the_requested_shape():
    with pytest.raises(ShapeMismatch):
        orthonormalize([E11, E12], shape=(3, 3))
    assert orthonormalize([E11, E12], shape=(2, 2)).dim == 2


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 6), st.booleans())
def test_subspace_distance_matches_row_loop(seed, rows, cols, dim, same):
    """Batched ``distance``/``equals`` agree with the row-by-row loop, on
    equal spans in rotated bases and on unrelated spans."""
    rng = np.random.default_rng(seed)
    dim = min(dim, rows * cols)
    a = orthonormalize(list(cplx(rng, dim, rows, cols)))
    if same:
        b = orthonormalize(list(np.einsum("ka,aij->kij", cplx(rng, dim, dim), a.matrices)))
    else:
        b = orthonormalize(list(cplx(rng, dim, rows, cols)))
    ref = loop_span_distance(a, b)
    assert abs(a.distance(b) - ref) <= 1e-15
    for tol in (1e-8, 0.5):
        assert a.equals(b, tol=Tolerances(member=tol)) == (ref <= tol)
    flat = cplx(rng, 4, rows * cols)
    loop = [a.residual(x.reshape(rows, cols)) for x in flat]
    np.testing.assert_allclose(a.row_residuals(flat), loop, rtol=0, atol=1e-15)


def test_subspace_distance_of_unequal_spaces_is_infinite():
    a = orthonormalize([E11, E22])
    assert a.distance(orthonormalize([E11])) == float("inf")
    assert not a.equals(orthonormalize([E11]), tol=Tolerances(member=1e3))
    wide = Subspace(1, 4, a.stack)
    assert wide.dim == a.dim
    assert a.distance(wide) == float("inf")
    assert not a.equals(wide, tol=Tolerances(member=1e3))
    assert Subspace.empty(2, 2).distance(Subspace.empty(2, 2)) == 0.0


def test_grow_span_appends_only_new_directions():
    space = span_rows([E11.ravel(), E22.ravel()], (2, 2))
    stack, changed = grow_span(space.stack, np.array([E11.ravel(), E12.ravel()]))
    assert changed
    assert stack.shape[0] == 3
    stack2, changed2 = grow_span(stack, np.array([(E11 + 3.0 * E12).ravel()]))
    assert not changed2
    assert stack2.shape[0] == 3


def grow_span_by_svd(stack, candidates, tol_rank):
    """Reference: ``grow_span`` deciding every call by the SVD alone.  It
    projects with :func:`~cstarlab.linalg.project`, as ``grow_span`` does:
    the SVD's complex phases follow the roundoff of the residual, so
    another product order would not give the same rows bit for bit."""
    scale = float(np.max(np.linalg.norm(candidates, axis=1)))
    resid = candidates
    if stack.shape[0]:
        for _ in range(2):
            resid = resid - project(stack, resid)
    _, svals, vh = np.linalg.svd(resid, full_matrices=False)
    keep = int(np.sum(svals > tol_rank * scale))
    if keep == 0:
        return stack, False
    fresh = vh[:keep]
    if stack.shape[0]:
        fresh = fresh - project(stack, fresh)
    return np.vstack([stack, fresh]), True


def test_grow_span_confirms_closed_span_without_svd(monkeypatch):
    rng = np.random.default_rng(17)
    stack = orthonormalize(list(rng.standard_normal((5, 4, 4)))).stack
    coeff = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))

    def no_svd(*args, **kwargs):
        raise AssertionError("grow_span ran an SVD on in-span candidates")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    out, grew = grow_span(stack, coeff @ stack)
    assert out is stack
    assert grew is False


@pytest.mark.parametrize("factor, grows", [(1.01, True), (0.99, False)])
def test_grow_span_cutoff_is_the_rank_tolerance(factor, grows):
    """An out-of-span part just above ``tol.rank * scale`` is kept; one just
    below is not."""
    tol = DEFAULT_TOL.rank
    stack = E11.ravel()[None, :]
    cand = (E11 + factor * tol * E22).ravel()[None, :]
    out, grew = grow_span(stack, cand, tol=DEFAULT_TOL)
    assert grew is grows
    assert out.shape[0] == (2 if grows else 1)


@pytest.mark.parametrize("kind", ["in_span", "growing", "cutoff_0.99", "cutoff_1.01"])
def test_grow_span_early_stop_matches_svd_path(kind):
    """Stopping after the first projection pass when nothing can be kept
    gives bit-identical results to deciding every call by the SVD."""
    rng = np.random.default_rng(23)
    tol = DEFAULT_TOL.rank
    stack = orthonormalize(list(cplx(rng, 4, 3, 3))).stack
    inside = cplx(rng, 6, 4) @ stack
    if kind == "in_span":
        cands = inside
    elif kind == "growing":
        cands = np.vstack([inside, cplx(rng, 2, 9)])
    else:
        out_dir = cplx(rng, 9)
        out_dir -= (out_dir @ stack.conj().T) @ stack
        out_dir /= np.linalg.norm(out_dir)
        scale = float(np.max(np.linalg.norm(inside, axis=1)))
        factor = float(kind.split("_")[1])
        cands = inside.copy()
        cands[0] += factor * tol * scale * out_dir
    out, grew = grow_span(stack, cands, tol=DEFAULT_TOL)
    ref, ref_grew = grow_span_by_svd(stack, cands, tol)
    assert grew is ref_grew
    assert grew is (kind in ("growing", "cutoff_1.01"))
    assert np.array_equal(out, ref)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(0, 5), st.integers(1, 6))
def test_grow_span_growth_matches_svd_path(seed, dim, new):
    """Spans that grow are bit-identical to the SVD-only path."""
    rng = np.random.default_rng(seed)
    stack = orthonormalize(list(rng.standard_normal((dim, 3, 3))), shape=(3, 3)).stack
    cands = rng.standard_normal((new, 9)) + 1j * rng.standard_normal((new, 9))
    if dim:
        cands = np.vstack([cands, rng.standard_normal((2, dim)) @ stack])
    out, grew = grow_span(stack, cands)
    ref, ref_grew = grow_span_by_svd(stack, cands, DEFAULT_TOL.rank)
    assert grew and ref_grew
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("dim", [0, 3])
def test_grow_span_refuses_rows_that_are_not_orthonormal(monkeypatch, dim):
    """A defective SVD whose right singular vectors are not orthonormal is
    refused instead of being appended to the stack."""
    rng = np.random.default_rng(31)
    stack = orthonormalize(list(rng.standard_normal((dim, 3, 3))), shape=(3, 3)).stack
    cands = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    real_svd = np.linalg.svd

    def skewed(a, *args, **kwargs):
        u, svals, vh = real_svd(a, *args, **kwargs)
        vh = vh.copy()
        vh[1] += 1e-6 * vh[0]
        return u, svals, vh

    monkeypatch.setattr(np.linalg, "svd", skewed)
    with pytest.raises(NumericalFailure, match="not orthonormal"):
        grow_span(stack, cands)


# ---------------------------------------------------------------------------
# positive operators and spectral gaps


def test_support_projection_of_psd_oracle():
    p = support_projection_of_psd(np.diag([0.0, 2.0, 3.0]))
    np.testing.assert_allclose(p, np.diag([0.0, 1.0, 1.0]), atol=1e-12)


def test_pseudo_inverse_sqrt_oracle():
    s = pseudo_inverse_sqrt(np.diag([0.0, 4.0]))
    np.testing.assert_allclose(s, np.diag([0.0, 0.5]), atol=1e-12)


def test_pseudo_inverse_sqrt_random():
    """s^{-1/2} s s^{-1/2} is the support projection of s."""
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n + 1))
        w = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        s = w @ w.conj().T
        half = pseudo_inverse_sqrt(s)
        supp = support_projection_of_psd(s)
        np.testing.assert_allclose(half @ s @ half, supp, atol=1e-8)


@pytest.mark.parametrize("cut", [psd_cut, support_projection_of_psd, pseudo_inverse_sqrt])
def test_spectrum_not_separated_from_zero_raises(cut):
    """5e-8 chains onto the zero cluster (gap 1e-7) and nothing lies above
    it, but the cluster is too large to count as zero."""
    with pytest.raises(GapNotFound):
        cut(np.diag([-1.0, 0.0, 5e-8]).astype(complex))


def test_zero_matrix_has_no_cut():
    zero = np.zeros((3, 3), dtype=complex)
    _, cut, pos_lo = psd_cut(zero)
    assert cut is None and pos_lo is None
    for f in (support_projection_of_psd, pseudo_inverse_sqrt):
        out = f(zero)
        assert out.shape == (3, 3) and not np.any(out)


def test_psd_cut_joins_roundoff_to_the_zero_cluster():
    """A 1e-14 eigenvalue is zero, the next one starts the positive part,
    and an all-zero spectrum has no cut."""
    _, cut, pos_lo = psd_cut(np.diag([0.0, 1e-14, 0.5, 1.0]).astype(complex))
    assert pos_lo == 0.5
    assert cut == place_cut_in_gap(1e-14, 0.5, 1.0)
    _, cut, pos_lo = psd_cut(np.zeros((2, 2), dtype=complex))
    assert cut is None and pos_lo is None


def split_spectrum_at_zero(eigenvalues, tol=DEFAULT_TOL):
    """The zero/positive split ``psd_cut`` made before the zero cluster
    came from ``cluster_partition``, kept as the reference: two chains
    walk out from 0, and ``pos_lo`` is the first eigenvalue above
    ``upper + gap``."""
    w = np.sort(np.asarray(eigenvalues, dtype=float))
    top = float(np.max(np.abs(w), initial=0.0))
    if top == 0.0:
        return 0.0, None
    gap = tol.gap * top
    upper = 0.0
    for t in w[w > 0]:
        if t - upper <= gap:
            upper = float(t)
        else:
            break
    lower = 0.0
    for t in w[w < 0][::-1]:
        if lower - t <= gap:
            lower = float(t)
        else:
            break
    zero_hi = max(upper, -lower)
    above = w[w > upper + gap]
    pos_lo = float(above[0]) if above.size else None
    return zero_hi, pos_lo


def reference_cut(w, tol=DEFAULT_TOL):
    """``(cut, pos_lo)`` of ``psd_cut`` through the reference split."""
    top = float(np.max(np.abs(w), initial=0.0))
    zero_hi, pos_lo = split_spectrum_at_zero(w, tol=tol)
    if pos_lo is None:
        if zero_hi > tol.member * max(1.0, top):
            raise GapNotFound("one cluster")
        return None, None
    return place_cut_in_gap(zero_hi, pos_lo, top, tol=tol), pos_lo


def outcome(f, *args):
    try:
        return f(*args)
    except GapNotFound:
        return GapNotFound


# eigenvalues near the edge of the zero cluster, in units of the gap g
EDGE = (0.0, 0.5, -0.5, 0.9, 1.0, -1.0, 1.1, 1.9, 2.0)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    top=st.floats(1e-3, 1e3),
    edge=st.lists(st.sampled_from(EDGE), max_size=5),
    quarters=st.lists(st.integers(0, 16), max_size=5),
    negative=st.booleans(),
)
def test_psd_cut_matches_the_chain_on_edge_spectra(top, edge, quarters, negative):
    """On spectra with steps of g/4 and eigenvalues near g, the zero cluster
    of ``cluster_partition`` gives the reference's cut and ``pos_lo`` bit
    for bit, unless the reference skips an eigenvalue: one that is neither
    in its chain nor above ``upper + gap``, at a step equal to the gap up to
    roundoff.  Then ``psd_cut`` reports that eigenvalue as ``pos_lo`` or
    raises GapNotFound."""
    g = DEFAULT_TOL.gap * top
    vals = [top, *(x * g for x in edge), *(k * 0.25 * g for k in quarters)]
    if negative:
        vals.append(-0.5 * top)
    s = np.diag(vals).astype(complex)
    w = hermitian_eig(s).eigenvalues
    ref = outcome(reference_cut, w)
    new = outcome(lambda m: psd_cut(m)[1:], s)
    zero_hi, pos_lo = split_spectrum_at_zero(w)
    skipped = w[(w > zero_hi) & (w < (np.inf if pos_lo is None else pos_lo))]
    if skipped.size:
        assert new is GapNotFound or new[1] == skipped[0]
    else:
        assert new == ref


def test_psd_cut_refuses_a_step_equal_to_the_gap():
    """1.25 g lies one gap, up to roundoff, above 0.25 g.  The reference
    chain neither joined it to the zero cluster nor took it as ``pos_lo``,
    and cut far above it; the zero cluster ends at 0.25 g, so the gap to
    1.25 g is below the 2.5 g a cut needs."""
    top = 504.4082462406216
    g = DEFAULT_TOL.gap * top
    s = np.diag([0.0, 0.25 * g, 1.25 * g, top]).astype(complex)
    cut, pos_lo = reference_cut(hermitian_eig(s).eigenvalues)
    assert pos_lo == top and cut > 1.25 * g
    with pytest.raises(GapNotFound):
        psd_cut(s)


def test_place_cut_in_gap_oracle():
    """With a [0, 1] gap at unit scale the cut lands at the geometric mean of
    the spectral floor and the lowest positive eigenvalue."""
    cut = place_cut_in_gap(0.0, 1.0, 1.0)
    assert cut == pytest.approx(1e-5, rel=1e-9)
    assert 0.0 < cut < 1.0


def test_place_cut_in_gap_rejects_narrow_gap():
    with pytest.raises(GapNotFound):
        place_cut_in_gap(1.0, 1.0 + 1e-9, 1.0)


def test_place_cut_scale_invariance():
    """Scaling the spectrum scales the cut: no absolute thresholds hide in
    the gap placement."""
    for scale in (1e-6, 1e-3, 1.0, 1e3):
        cut = place_cut_in_gap(0.0, scale, scale)
        ref = place_cut_in_gap(0.0, 1.0, 1.0)
        assert cut == pytest.approx(ref * scale, rel=1e-9)
