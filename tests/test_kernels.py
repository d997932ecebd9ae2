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

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cstarlab.algebra as algebra_mod
import cstarlab.ideals as ideals_mod
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
from cstarlab.errors import NotInAlgebra, VerificationFailure
from cstarlab.ideals import RightIdeal, _corner_space, support_projection
from cstarlab.instances import haar_unitary, random_block_structure
from cstarlab.linalg import (
    gram_sum,
    hs_norm,
    identity_defect,
    module_defect,
    orthonormalize,
    project,
    safe_norm,
    span_rows,
)
from cstarlab.structure import _block_form, _blocks, _draw, _minimal_bases, _units
from cstarlab.tro import TRO, TROClassification, _morphism_defect

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
def test_identity_defect_matches_einsum(seed, m, n, d):
    rng = np.random.default_rng(seed)
    mats = cplx(rng, d, m, n)
    e_left, e_right = cplx(rng, m, m), cplx(rng, n, n)
    left = np.einsum("ij,ajk->aik", e_left, mats) - mats
    right = np.einsum("aij,jk->aik", mats, e_right) - mats
    assert identity_defect(e_left, mats) == pytest.approx(
        np.max(np.linalg.norm(left, axis=(1, 2))), rel=REL)
    assert identity_defect(e_right, mats, right=True) == pytest.approx(
        np.max(np.linalg.norm(right, axis=(1, 2))), rel=REL)


class GramSeen(Exception):
    """Raised by the patched support projection, carrying the Gram sum."""


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SEEDS, st.integers(1, 4), st.integers(1, 6))
def test_gram_sums_match_einsum(seed, n, d):
    """The Gram sums ``sum b* b`` of ``unit_of`` and ``sum x x*`` of
    ``support_projection``, captured where they are handed on."""
    rng = np.random.default_rng(seed)
    space = random_space(rng, min(d, n * n), n, n)
    mats = space.matrices

    def capture(s, tol):
        raise GramSeen(s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra_mod, "support_projection_of_psd", capture)
        mp.setattr(ideals_mod, "support_projection_of_psd", capture)
        spanned = StarAlgebra(n, [])
        spanned.basis = space
        with pytest.raises(GramSeen) as unit_gram:
            algebra_mod.unit_of(spanned)
        parent = StarAlgebra(n, [])
        with pytest.raises(GramSeen) as ideal_gram:
            support_projection(parent, RightIdeal(parent=parent, generators=[], basis=space))
    assert_rel_close(unit_gram.value.args[0], np.einsum("aij,aik->jk", mats.conj(), mats))
    ref = np.einsum("aij,akj->ik", mats, mats.conj())
    assert_rel_close(ideal_gram.value.args[0], 0.5 * (ref + ref.conj().T))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SEEDS, st.integers(1, 5), st.integers(1, 5), st.integers(1, 6))
def test_gram_sum_matches_einsum(seed, m, n, k):
    """``sum x x*`` over rectangular stacks, as the TRO generation
    certificate forms it, and exactly self-adjoint."""
    mats = cplx(np.random.default_rng(seed), k, m, n)
    s = gram_sum(mats)
    assert_rel_close(s, np.einsum("aij,akj->ik", mats, mats.conj()))
    np.testing.assert_array_equal(s, s.conj().T)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SEEDS, st.integers(2, 4), st.integers(1, 5), st.integers(1, 3))
def test_right_module_defect_matches_loop(seed, n, d_parent, d_space):
    rng = np.random.default_rng(seed)
    factors = random_space(rng, d_parent, n, n).matrices
    space = random_space(rng, d_space, n, n)
    ref = loop_defect(space, factors)
    assert module_defect(space, factors, right=True) == pytest.approx(ref, rel=REL)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SEEDS, st.integers(1, 4), st.integers(2, 4), st.integers(1, 5), st.integers(1, 3))
def test_module_defect_matches_loop(seed, m, n, d_right, d_space):
    rng = np.random.default_rng(seed)
    factors = random_space(rng, d_right, n, n).matrices
    space = random_space(rng, d_space, m, n)
    ref = loop_defect(space, factors)
    assert module_defect(space, factors, right=True) == pytest.approx(ref, rel=REL)


def removed_max_relative_residual(space, prods):
    """The formula that ``_max_membership_residual``,
    ``_right_module_defect``, ``_ternary_defect`` and ``_module_defect``
    each spelled out before they shared ``Subspace.max_relative_residual``
    and the last three became ``module_defect``.  The coefficients ``prods
    S*`` are formed as ``(S prods*)*``, as :func:`~cstarlab.linalg.project`
    forms them without copying ``S``: the two orders agree only to roundoff
    under some BLAS kernels, and the comparison is bit for bit."""
    coeff = (space.stack @ prods.conj().T).conj().T
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
    bs = random_space(rng, min(d_alg, n * n), n, n).matrices
    space = random_space(rng, min(d_space, n * n), n, n)
    right = (space.matrices[:, None] @ bs[None]).reshape(-1, n * n)
    assert module_defect(space, bs, right=True) == removed_max_relative_residual(space, right)

    tspace = random_space(rng, min(d_space, m * n), m, n)
    mod = (tspace.matrices[:, None] @ bs[None]).reshape(-1, m * n)
    assert module_defect(tspace, bs, right=True) == removed_max_relative_residual(tspace, mod)
    lspace = random_space(rng, min(d_alg, m * m), m, m)
    lz = (lspace.matrices[:, None] @ tspace.matrices[None]).reshape(-1, m * n)
    assert module_defect(tspace, lspace.matrices) == removed_max_relative_residual(tspace, lz)


def removed_coords_residual(space, x):
    """``Subspace.residual`` as the deleted ``Subspace.coords`` computed it,
    through the coefficients of one vector's projection."""
    flat = x.ravel()
    c = (space.stack @ flat.conj()).conj()
    return float(safe_norm(flat - c @ space.stack))


def removed_draw(space, rng):
    """``structure._draw`` as it projected its Gaussian before ``project``."""
    g = rng.standard_normal(space.shape) + 1j * rng.standard_normal(space.shape)
    return ((space.stack @ g.ravel().conj()).conj() @ space.stack).reshape(space.shape)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(SEEDS, st.integers(1, 24), st.integers(0, 40))
def test_projection_is_bit_identical_to_removed_vector_forms(seed, n, d):
    """The reported ``p_in_ideal`` and every seeded draw keep their bits:
    ``residual`` and ``_draw`` give exactly what the vector forms gave, on
    a member of the span and on a generic matrix."""
    rng = np.random.default_rng(seed)
    space = random_space(rng, min(d, n * n), n, n)
    member = np.tensordot(cplx(rng, space.dim), space.matrices, axes=1)
    for x in (member, cplx(rng, n, n)):
        assert space.residual(x) == removed_coords_residual(space, x)
    draw = _draw(space, np.random.default_rng(seed))
    assert np.array_equal(draw, removed_draw(space, np.random.default_rng(seed)))


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e300])
def test_contains_is_the_relative_membership_rule(scale):
    """``contains`` is ``max_relative_residual <= tol.member`` on one row,
    for members, near-members on both sides of the bound and non-members."""
    rng = np.random.default_rng(4)
    space = random_space(rng, 4, 3, 3)
    member = np.tensordot(cplx(rng, 4), space.matrices, axes=1)
    away = cplx(rng, 3, 3).ravel()
    away = (away - space.stack.T @ (space.stack.conj() @ away)).reshape(3, 3)
    away *= hs_norm(member) / hs_norm(away)
    verdicts = set()
    for offset in (0.0, 1e-9, 1e-7, 1.0):
        x = scale * (member + offset * away)
        rule = space.max_relative_residual(x.reshape(1, -1)) <= DEFAULT_TOL.member
        assert space.contains(x) == rule
        verdicts.add(rule)
    if scale == 1.0:
        assert verdicts == {True, False}


MEMBERSHIP_ALGEBRAS = {
    "kernel": lambda: planted_block_algebra([2, 1], [1, 2], ambient_dim=6, seed=3).algebra,
    "multiplicities": lambda: planted_block_algebra([2, 1], [2, 3], seed=4).algebra,
    "zero": lambda: StarAlgebra(4, []),
}


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-200])
@pytest.mark.parametrize("kind", sorted(MEMBERSHIP_ALGEBRAS))
def test_block_membership_matches_the_dense_basis(kind, scale):
    """``StarAlgebra.max_relative_residual``, the distance to the block
    projection over ``max(1, ||x||)``, agrees with the dense basis's to
    1e-12 of ``min(1, ||x||)``, so also below unit norm, on members, on members moved 1e-9 and
    1e-7 along a direction orthogonal to A (one on each side of
    ``tol.member``) and on non-members; ``contains`` and ``require_member``
    keep the rule's verdicts."""
    alg = MEMBERSHIP_ALGEBRAS[kind]()
    n = alg.ambient_dim
    rng = np.random.default_rng(6)
    member = np.tensordot(cplx(rng, alg.dim), alg.basis.matrices, axes=1)
    away = cplx(rng, 1, n * n)
    away = (away - project(alg.basis.stack, away)).reshape(n, n)
    away *= max(1.0, hs_norm(member)) / hs_norm(away)
    verdicts = set()
    for offset in (0.0, 1e-9, 1e-7, 1.0):
        x = scale * (member + offset * away)
        blocks = alg.max_relative_residual(x[None])
        dense = alg.basis.max_relative_residual(x.reshape(1, -1))
        assert abs(blocks - dense) <= 1e-12 * min(1.0, hs_norm(x))
        rule = blocks <= DEFAULT_TOL.member
        assert alg.contains(x) == rule
        verdicts.add(rule)
        if not rule:
            with pytest.raises(NotInAlgebra, match="is not in the algebra"):
                alg.require_member(x)
    assert verdicts == ({True} if scale < 1.0 else {True, False})


MEMBERSHIP_TROS = {
    "planted": lambda: planted_block_tro([(2, 3), (1, 2), (2, 1)], seed=5).tro,
    "algebra": lambda: TRO(7, 7, [(v, v) for v in MEMBERSHIP_ALGEBRAS["multiplicities"]().blocks]),
}


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("kind", sorted(MEMBERSHIP_TROS))
def test_tro_membership_matches_the_dense_basis(kind, scale):
    """``TRO.max_relative_residual``, the distance to the projection onto
    the units ``a_i b_j* / sqrt(m_k)`` read off the row and column stacks,
    agrees with the dense basis's to 1e-12 of ``min(1, ||x||)`` on members
    and on members moved 1e-9, 1e-7 and 1 along a direction orthogonal to
    Z, for a planted TRO and for an algebra with multiplicities 2 and 3
    taken as the TRO of its blocks ``(v, v)``; ``contains`` keeps the
    rule's verdicts."""
    tro = MEMBERSHIP_TROS[kind]()
    rng = np.random.default_rng(7)
    member = np.tensordot(cplx(rng, tro.dim), tro.basis.matrices, axes=1)
    away = cplx(rng, 1, tro.rows * tro.cols)
    away = (away - project(tro.basis.stack, away)).reshape(tro.rows, tro.cols)
    away *= hs_norm(member) / hs_norm(away)
    verdicts = set()
    for offset in (0.0, 1e-9, 1e-7, 1.0):
        x = scale * (member + offset * away)
        blocks = tro.max_relative_residual(x[None])
        dense = tro.basis.max_relative_residual(x.reshape(1, -1))
        assert abs(blocks - dense) <= 1e-12 * min(1.0, hs_norm(x))
        rule = blocks <= DEFAULT_TOL.member
        assert tro.contains(x) == rule
        verdicts.add(rule)
    assert verdicts == ({True} if scale < 1.0 else {True, False})


def random_stacks(rng, rows, sizes):
    """Isometry stacks ``(n_k, rows, m_k)`` for the ``(n_k, m_k)`` sizes,
    cut from one Haar unitary so that all their ranges are orthogonal."""
    u = haar_unitary(rows, rng)
    stacks, off = [], 0
    for n_k, m_k in sizes:
        stacks.append(u[:, off:off + n_k * m_k].reshape(rows, m_k, n_k).transpose(2, 0, 1))
        off += n_k * m_k
    return stacks


# roundoff by which the bound may undershoot the enumerated maximum
BOUND_SLACK = 1e-14


@settings(max_examples=20, derandomize=True, deadline=None)
@given(SEEDS, st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2)),
                       min_size=1, max_size=2), st.integers(0, 1), st.integers(0, 1))
def test_morphism_bound_dominates_loop(seed, shapes, spare_rows, spare_cols):
    """A TRO made from random row and column stacks (multiplicities 1 and
    2, with a spare row or column outside every block) and random
    (non-morphism) isometries make every triple's defect O(1); the bound,
    read off the stacks, stays at or above the worst triple of the
    enumerated basis."""
    rng = np.random.default_rng(seed)
    rows = sum(a * m for a, _, m in shapes) + spare_rows
    cols = sum(b * m for _, b, m in shapes) + spare_cols
    lefts = random_stacks(rng, rows, [(a, m) for a, _, m in shapes])
    rights = random_stacks(rng, cols, [(b, m) for _, b, m in shapes])
    tro = TRO(rows, cols, list(zip(lefts, rights)))
    isometries = []
    for _ in shapes:
        u, _ = np.linalg.qr(cplx(rng, rows, rows))
        v, _ = np.linalg.qr(cplx(rng, cols, cols))
        isometries.append((u[:, : int(rng.integers(1, rows + 1))],
                           v[:, : int(rng.integers(1, cols + 1))]))
    cls = TROClassification(
        blocks=[(u.shape[1], v.shape[1]) for u, v in isometries],
        isometries=isometries,
        central_projections=[None] * len(shapes),
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
    """Turning the last row isometry of one block by 1e-6 toward the first
    row isometry of the other block (outside the block's rows) keeps
    ``U_k`` an isometry, and ``V_k`` unchanged; the maps are then a
    ternary morphism only to about 1e-6, and ``classify_tro`` refuses
    them."""
    tro = planted_block_tro([(3, 3), (2, 4)], seed=4).tro
    assert classify_tro(tro).residuals["ternary_morphism"] <= 1e-12
    rows = [a.copy() for a, _ in tro.blocks]
    t = 1e-6
    rows[block][-1] = np.cos(t) * rows[block][-1] + np.sin(t) * rows[1 - block][0]
    turned = dataclasses.replace(tro, blocks=[(a, b) for a, (_, b) in zip(rows, tro.blocks)])
    with pytest.raises(VerificationFailure, match="ternary morphism"):
        classify_tro(turned)


@pytest.mark.parametrize("sizes, mults, seed", [
    ([3, 2, 1], [2, 1, 2], 1),
    ([4, 1], [1, 3], 2),
])
def test_matrix_units_match_einsum(sizes, mults, seed):
    """Each block's matrix units ``v_i v_j*`` over its transporters, and
    the planted basis over the transporters cut from the conjugator ``W``:
    block by block, ``W (E_pq (x) 1_m) W* / sqrt(m)`` with the copies of
    ``M_n`` at the block's offset, one ``einsum`` over the embedded units
    per block, ``p`` and ``q`` in row-major order."""
    planted = planted_block_algebra(sizes, mults, seed=seed)
    algebra, w = planted.algebra, planted.conjugator
    n_amb = algebra.ambient_dim
    rng = np.random.default_rng(seed)
    identity = np.eye(n_amb, dtype=complex)  # the unit: no kernel
    bases, values = _minimal_bases(_draw(algebra.basis, rng), identity, DEFAULT_TOL)
    for blk in _blocks(bases, values, _draw(algebra.basis, rng), DEFAULT_TOL):
        varr = blk["transporters"]
        assert_rel_close(_units(varr, varr), np.einsum("iab,jcb->ijac", varr, varr.conj()))
    ref, off = [], 0
    for n, m in zip(sizes, mults):
        embedded = np.zeros((n, n, n_amb, n_amb))
        for p, q in itertools.product(range(n), repeat=2):
            embedded[p, q, off : off + n * m, off : off + n * m] = np.kron(
                np.eye(m), np.eye(n)[:, [p]] @ np.eye(n)[[q]])
        ref.append(np.einsum("ab,pqbc,dc->pqad", w, embedded, w.conj()).reshape(-1, n_amb, n_amb)
                   / np.sqrt(m))
        off += n * m
    assert_rel_close(algebra.basis.matrices, np.concatenate(ref))


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
        residual, _ = _block_form(algebra.basis.matrices, blocks, basis_change)
        assert residual == pytest.approx(ref, rel=REL)
