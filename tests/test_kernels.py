"""Equivalence tests for the batched contraction kernels.

Each kernel runs as BLAS matrix products; the references below are the
plain ``einsum`` contractions and Python loops they replaced.  Random
complex stacks must agree to a relative difference of 1e-12.  The corner
trace must give the rank of the corner span it replaced, exactly.

The ternary-morphism residual is a closed-form upper bound, not an
enumeration: against the loop over every basis triple it must never fall
below the loop's maximum by more than roundoff (1e-14), and it must refuse
an isometry turned by 1e-6.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cstarlab.ideals as ideals_mod
import cstarlab.tro as tro_mod
from cstarlab import (
    StarAlgebra,
    classify_tro,
    generate_tro,
    minimal_projection_below,
    planted_block_algebra,
    planted_block_tro,
    wedderburn_decompose,
)
from cstarlab.config import DEFAULT_TOL
from cstarlab.errors import VerificationFailure
from cstarlab.ideals import _corner_space, _right_module_defect
from cstarlab.instances import random_block_structure
from cstarlab.linalg import Subspace, hs_norm, orthonormalize, span_rows
from cstarlab.structure import _block_data, _block_form_residual, _central_projections
from cstarlab.tro import (
    TRO,
    TROClassification,
    _left_products,
    _morphism_defect,
    _right_products,
    _ternary_defect,
)

REL = 1e-12
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_rel_close(new, ref):
    assert new.shape == ref.shape
    assert np.linalg.norm(new - ref) <= REL * np.linalg.norm(ref)


def random_space(rng, dim, rows, cols):
    return orthonormalize(list(cplx(rng, dim, rows, cols)), shape=(rows, cols))


def loop_defect(space, factors):
    """Largest relative residual of ``x a`` against ``space``, one product
    at a time."""
    worst = 0.0
    for x in space.matrices:
        for a in factors:
            p = x @ a
            worst = max(worst, space.residual(p) / max(1.0, hs_norm(p)))
    return worst


def loop_morphism_defects(tro, cls):
    """Defect of every basis triple, in (i, j, k) order, one at a time."""
    zs = tro.basis.matrices
    images = [cls.apply(z) for z in zs]
    out = []
    for i, j, k in itertools.product(range(len(zs)), repeat=3):
        lhs = cls.apply(zs[i] @ zs[j].conj().T @ zs[k])
        out.append(max(
            hs_norm(lhs[b] - images[i][b] @ images[j][b].conj().T @ images[k][b])
            for b in range(cls.num_blocks)
        ))
    return np.array(out)


def corner_span_rank(parent, e, f):
    """The route the corner trace replaced: the SVD rank of the products
    ``e b_i f``, after flushing those at or below ``tol.rank`` times the
    inputs' scale."""
    flat = (e @ parent.basis.matrices @ f).reshape(parent.dim, -1)
    scale = max(1.0, hs_norm(e)) * max(1.0, hs_norm(f))
    keep = np.linalg.norm(flat, axis=1) > DEFAULT_TOL.rank * scale
    return span_rows(flat[keep], (parent.ambient_dim, parent.ambient_dim)).dim


@pytest.mark.parametrize("seed", range(8))
def test_corner_trace_matches_the_corner_span_rank(seed, monkeypatch):
    """Over the unit, the central projections, the diagonal matrix units,
    a sum of two of them, a descended minimal projection and its
    complement, every corner dimension is the integer the corner span's
    rank gave, and no span is formed."""
    rng = np.random.default_rng(seed)
    sizes, mults = random_block_structure(rng)
    a = planted_block_algebra(sizes, mults, seed=900 + seed).algebra
    dec = wedderburn_decompose(a, seed=seed)
    diag = [units[i, i] for units in dec.matrix_units for i in range(units.shape[0])]
    e = minimal_projection_below(a, a.unit, seed=seed)
    family = [a.unit, *dec.central_projections, *diag, e, a.unit - e]
    if len(diag) > 1:
        family.append(diag[0] + diag[-1])

    def no_span(*args, **kwargs):
        raise AssertionError("the corner trace formed a span")

    monkeypatch.setattr(ideals_mod, "span_rows", no_span)
    for left in family:
        for right in family:
            dim = _corner_space(a, left, right, DEFAULT_TOL)
            assert type(dim) is int
            assert dim == corner_span_rank(a, left, right)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SEEDS, st.integers(1, 4), st.integers(1, 4), st.integers(1, 6))
def test_tro_products_match_einsum(seed, m, n, d):
    mats = cplx(np.random.default_rng(seed), d, m, n)
    stack = mats.reshape(d, -1)
    left = np.einsum("aij,bkj->abik", mats, mats.conj())
    assert_rel_close(_left_products(stack, (m, n)), left.reshape(-1, m * m))
    right = np.einsum("aji,bjk->abik", mats.conj(), mats)
    assert_rel_close(_right_products(stack, (m, n)), right.reshape(-1, n * n))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SEEDS, st.integers(2, 4), st.integers(1, 5), st.integers(1, 3))
def test_right_module_defect_matches_loop(seed, n, d_parent, d_space):
    rng = np.random.default_rng(seed)
    parent = StarAlgebra(basis=random_space(rng, d_parent, n, n))
    space = random_space(rng, d_space, n, n)
    ref = loop_defect(space, parent.basis.matrices)
    assert _right_module_defect(parent, space) == pytest.approx(ref, rel=REL)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SEEDS, st.integers(1, 4), st.integers(2, 4), st.integers(1, 5), st.integers(1, 3))
def test_module_defect_matches_loop(seed, m, n, d_right, d_space):
    rng = np.random.default_rng(seed)
    right = StarAlgebra(basis=random_space(rng, d_right, n, n))
    space = random_space(rng, d_space, m, n)
    tro = TRO(basis=space, left_algebra=None, right_algebra=right)
    ref = loop_defect(space, right.basis.matrices)
    assert _right_module_defect(tro.right_algebra, space) == pytest.approx(ref, rel=REL)


def removed_max_relative_residual(space, prods):
    """The formula that ``_max_membership_residual``,
    ``_right_module_defect``, ``_ternary_defect`` and ``_module_defect``
    each spelled out before they shared ``Subspace.max_relative_residual``."""
    coeff = prods @ space.stack.conj().T
    resid = prods - coeff @ space.stack
    norms = np.linalg.norm(resid, axis=1)
    scales = np.maximum(1.0, np.linalg.norm(prods, axis=1))
    return float(np.max(norms / scales))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SEEDS, st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 3))
def test_shared_residual_is_bit_identical_to_removed_copies(seed, m, n, d_alg, d_space):
    """Each call site builds its products as before and gets exactly the
    value its own copy of the formula gave."""
    rng = np.random.default_rng(seed)
    parent = StarAlgebra(basis=random_space(rng, min(d_alg, n * n), n, n))
    space = random_space(rng, min(d_space, n * n), n, n)
    xs, bs = space.matrices, parent.basis.matrices
    right = (xs[:, None] @ bs[None]).reshape(-1, n * n)
    assert _right_module_defect(parent, space) == removed_max_relative_residual(space, right)

    tspace = random_space(rng, min(d_space, m * n), m, n)
    tro = TRO(basis=tspace, left_algebra=None, right_algebra=parent)
    mod = (tspace.matrices[:, None] @ bs[None]).reshape(-1, m * n)
    assert _right_module_defect(tro.right_algebra, tspace) == removed_max_relative_residual(tspace, mod)
    lspace = random_space(rng, min(d_alg, m * m), m, m)
    lz = (lspace.matrices[:, None] @ tspace.matrices[None]).reshape(-1, m * n)
    assert _ternary_defect(tspace, lspace) == removed_max_relative_residual(tspace, lz)


# roundoff by which the bound may undershoot the enumerated maximum
BOUND_SLACK = 1e-14


@settings(max_examples=20, derandomize=True, deadline=None)
@given(SEEDS, st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(1, 2))
def test_morphism_bound_dominates_loop(seed, m, n, d, num_blocks):
    """Random (non-morphism) isometries make every triple's defect O(1);
    the bound stays at or above the worst of them."""
    rng = np.random.default_rng(seed)
    tro = TRO(basis=random_space(rng, d, m, n), left_algebra=None, right_algebra=None)
    isometries = []
    for _ in range(num_blocks):
        u, _ = np.linalg.qr(cplx(rng, m, m))
        v, _ = np.linalg.qr(cplx(rng, n, n))
        isometries.append((u[:, : int(rng.integers(1, m + 1))], v[:, : int(rng.integers(1, n + 1))]))
    cls = TROClassification(
        blocks=[(u.shape[1], v.shape[1]) for u, v in isometries],
        isometries=isometries,
        central_projections=[None] * num_blocks,
    )
    ref = loop_morphism_defects(tro, cls).max()
    assert _morphism_defect(tro, cls) >= ref - BOUND_SLACK


def test_morphism_defect_covers_every_triple():
    """On a d=17 TRO the bound dominates every basis triple: for the
    genuine classification, for one whose U are bent by noise, and for
    ones whose U or V are doubled, so that they are no longer isometries
    and the bound must grow with their norms."""
    planted = planted_block_tro([(3, 3), (2, 4)], seed=4)
    tro = generate_tro(planted.tro.rows, planted.tro.cols, planted.tro.basis.matrices)
    assert tro.dim == 17
    cls = classify_tro(tro)
    assert cls.residuals["ternary_morphism"] <= 1e-12
    rng = np.random.default_rng(0)
    bent = TROClassification(
        blocks=cls.blocks,
        isometries=[(u + 0.3 * cplx(rng, *u.shape), v) for u, v in cls.isometries],
        central_projections=cls.central_projections,
    )
    doubled = [
        TROClassification(
            blocks=cls.blocks,
            isometries=[(a * u, b * v) for u, v in cls.isometries],
            central_projections=cls.central_projections,
        )
        for a, b in ((2.0, 1.0), (1.0, 2.0))
    ]
    for c in (cls, bent, *doubled):
        assert _morphism_defect(tro, c) >= loop_morphism_defects(tro, c).max() - BOUND_SLACK


@pytest.mark.parametrize("block", [0, 1])
def test_isometric_rotation_of_one_block_is_refused(block):
    """Turning the last column of one block's ``U_k`` by 1e-6 toward the
    next column of the unitary basis change (cyclically, so outside
    ``U_k``) keeps ``U_k`` an isometry, and ``V_k``,
    read off the first column, unchanged; the maps are then a ternary
    morphism only to about 1e-6, and ``classify_tro`` refuses them."""
    tro = planted_block_tro([(3, 3), (2, 4)], seed=4).tro
    assert classify_tro(tro).residuals["ternary_morphism"] <= 1e-12
    real = tro_mod.wedderburn_decompose

    def rotated(*args, **kwargs):
        dec = real(*args, **kwargs)
        off = sum(n * m for n, m in zip(dec.block_sizes[:block], dec.multiplicities[:block]))
        u = dec.basis_change.copy()
        last = off + dec.block_sizes[block] - 1
        outside = (last + 1) % len(u)
        t = 1e-6
        u[:, last] = np.cos(t) * u[:, last] + np.sin(t) * u[:, outside]
        dec.basis_change = u
        return dec

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tro_mod, "wedderburn_decompose", rotated)
        with pytest.raises(VerificationFailure, match="ternary morphism"):
            classify_tro(tro)


@pytest.mark.parametrize("sizes, mults, seed", [
    ([3, 2, 1], [2, 1, 2], 1),
    ([4, 1], [1, 3], 2),
])
def test_matrix_units_match_einsum(sizes, mults, seed):
    """Each block's matrix units ``v_i v_j*`` over its transporters."""
    algebra = planted_block_algebra(sizes, mults, seed=seed).algebra
    rng = np.random.default_rng(seed)
    for central in _central_projections(algebra, rng, DEFAULT_TOL):
        blk = _block_data(algebra, central, rng, DEFAULT_TOL)
        varr = blk["transporters"]
        assert_rel_close(blk["units"], np.einsum("iab,jcb->ijac", varr, varr.conj()))


def loop_block_form_residual(parent, blocks, u):
    """Deviation of each basis element from blockdiag(I_m (x) alpha), one
    element and one ``np.kron`` at a time."""
    worst = 0.0
    for a in parent.basis.matrices:
        t = u.conj().T @ a @ u
        recon = np.zeros_like(t)
        off = 0
        for blk in blocks:
            n_k, m_k = blk["size"], blk["multiplicity"]
            span = n_k * m_k
            alpha = t[off : off + n_k, off : off + n_k]
            recon[off : off + span, off : off + span] = np.kron(np.eye(m_k), alpha)
            off += span
        worst = max(worst, hs_norm(t - recon))
    return worst


@pytest.mark.parametrize("sizes, mults, seed", [
    ([3, 2, 1], [2, 1, 2], 1),
    ([2, 2], [1, 3], 2),
    ([4, 1], [1, 1], 3),
    ([1, 1, 1], [2, 1, 3], 4),
])
def test_block_form_residual_matches_kron_loop(sizes, mults, seed):
    """On the decomposition's own basis change the residual is roundoff; a
    basis change bent by noise makes it O(1e-3).  Both agree with the loop."""
    algebra = planted_block_algebra(sizes, mults, seed=seed).algebra
    dec = wedderburn_decompose(algebra, seed=seed)
    blocks = [{"size": n, "multiplicity": m}
              for n, m in zip(dec.block_sizes, dec.multiplicities)]
    u = dec.basis_change
    bent = u + 1e-3 * cplx(np.random.default_rng(seed), *u.shape)
    for basis_change in (u, bent):
        ref = loop_block_form_residual(algebra, blocks, basis_change)
        assert _block_form_residual(algebra, blocks, basis_change) == pytest.approx(ref, rel=REL)
