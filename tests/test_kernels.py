"""Equivalence tests for the batched contraction kernels.

Each kernel runs as BLAS matrix products; the references below are the
plain ``einsum`` contractions and Python loops they replaced.  Random
complex stacks must agree to a relative difference of 1e-12.
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
    planted_block_algebra,
    planted_block_tro,
    wedderburn_decompose,
)
from cstarlab.config import DEFAULT_TOL
from cstarlab.ideals import _corner_space, _right_module_defect
from cstarlab.linalg import Subspace, hs_norm, orthonormalize
from cstarlab.structure import _block_form_residual
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


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SEEDS, st.integers(2, 6), st.integers(1, 8))
def test_corner_space_products_match_einsum(seed, n, d):
    rng = np.random.default_rng(seed)
    mats = cplx(rng, d, n, n)
    e, f = cplx(rng, n, n), cplx(rng, n, n)
    parent = StarAlgebra(basis=Subspace(n, n, mats.reshape(d, -1)))
    seen = []
    real_span_rows = ideals_mod.span_rows

    def capture(candidates, shape, tol):
        seen.append(candidates)
        return real_span_rows(candidates, shape, tol=tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals_mod, "span_rows", capture)
        _corner_space(parent, e, f, DEFAULT_TOL)
    ref = np.einsum("ij,ajk,kl->ail", e, mats, f).reshape(d, -1)
    assert_rel_close(seen[0], ref)


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


@settings(max_examples=20, derandomize=True, deadline=None)
@given(SEEDS, st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(1, 2))
def test_morphism_defect_matches_loop(seed, m, n, d, num_blocks):
    """Random (non-morphism) isometries make every triple's defect O(1);
    a batch of 7 triples makes batches straddle the (i, j, k) rows."""
    rng = np.random.default_rng(seed)
    tro = TRO(basis=Subspace(m, n, cplx(rng, d, m * n)), left_algebra=None, right_algebra=None)
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tro_mod, "_MORPHISM_CHUNK", 7)
        assert _morphism_defect(tro, cls) == pytest.approx(ref, rel=REL)


def odd_worst_transposition(per_triple, d):
    """A basis transposition after which the worst of the ``d^3`` triples
    (flat index ``i d^2 + j d + k``) sits at an odd index."""
    worst = np.unravel_index(np.argmax(per_triple), (d, d, d))
    for b in range(d):
        perm = np.arange(d)
        perm[[worst[2], b]] = perm[[b, worst[2]]]
        if np.ravel_multi_index(tuple(perm[w] for w in worst), (d, d, d)) % 2:
            return perm
    raise AssertionError("no transposition moves the worst triple to an odd index")


def test_morphism_defect_covers_every_triple():
    """For d^3 > 4096 the check still sees every basis triple, including
    the worst one, which an every-other-triple subsample would skip.

    Which triple is worst depends on the random draws inside
    ``classify_tro``; a fixed transposition of the basis, chosen from the
    computed defects, puts it at an odd flat index whatever those draws."""
    planted = planted_block_tro([(3, 3), (2, 4)], seed=4)
    tro = generate_tro(planted.tro.rows, planted.tro.cols, planted.tro.basis.matrices)
    assert tro.dim ** 3 > 4096
    cls = classify_tro(tro)
    assert cls.residuals["ternary_morphism"] <= 1e-10
    rng = np.random.default_rng(0)
    bent = TROClassification(
        blocks=cls.blocks,
        isometries=[(u + 0.3 * cplx(rng, *u.shape), v) for u, v in cls.isometries],
        central_projections=cls.central_projections,
    )
    perm = odd_worst_transposition(loop_morphism_defects(tro, bent), tro.dim)
    tro = TRO(
        basis=Subspace(tro.rows, tro.cols, tro.basis.stack[perm]),
        left_algebra=tro.left_algebra,
        right_algebra=tro.right_algebra,
    )
    per_triple = loop_morphism_defects(tro, bent)
    assert per_triple.max() > per_triple[::2].max()
    assert _morphism_defect(tro, bent) == pytest.approx(per_triple.max(), rel=REL)


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
