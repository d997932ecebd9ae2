"""Tests for ternary rings of operators (spaces closed under x y* z):
block classification up to unitaries, the submodule <-> right-ideal
correspondence, maximality transfer, and finite-generation certificates."""

import dataclasses

import numpy as np
import pytest

import cstarlab.algebra as algebra_mod
import cstarlab.ideals as ideals_mod
import cstarlab.structure as structure_mod
import cstarlab.tro as tro_mod
from cstarlab import (
    DEFAULT_TOL,
    classify_tro,
    finite_generation_certificate,
    generate_right_ideal,
    generate_submodule,
    generate_tro,
    is_maximal_right_ideal,
    is_maximal_submodule,
    minimal_projection_below,
    planted_block_tro,
    submodule_ideal_roundtrip,
    tro_from_span,
    wedderburn_decompose,
)
from cstarlab.errors import (
    ClosureViolation,
    DegenerateRandomness,
    MembershipViolation,
    NotInAlgebra,
    NotProper,
    VerificationFailure,
    ZeroSubmodule,
)
from cstarlab.algebra import StarAlgebra
from cstarlab.instances import haar_unitary, planted_block_algebra, random_tro_blocks
from cstarlab.linalg import Subspace, hs_norm, orthonormalize, psd_cut
from cstarlab.tro import TRO, Submodule

E11 = np.diag([1.0, 0.0]).astype(complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E22 = np.diag([0.0, 1.0]).astype(complex)


def sample_member(tro, rng):
    coeff = rng.standard_normal(tro.dim) + 1j * rng.standard_normal(tro.dim)
    return np.einsum("a,aij->ij", coeff, tro.basis.matrices)


# ---------------------------------------------------------------------------
# construction and closure


def test_row_space_is_single_rectangular_block():
    t = tro_from_span([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
    assert t.rows == 1 and t.cols == 2 and t.dim == 2
    assert classify_tro(t).blocks == [(1, 2)]


def test_diagonal_tro_splits():
    t = tro_from_span([E11, E22])
    assert classify_tro(t).blocks == [(1, 1), (1, 1)]


def test_full_matrix_tro():
    t = generate_tro(2, 2, [E11, E12, E12.conj().T, E22])
    assert t.dim == 4
    assert classify_tro(t).blocks == [(2, 2)]


def test_non_closed_span_rejected():
    with pytest.raises(ClosureViolation):
        tro_from_span([E11, E12 + E12.conj().T])


def test_generate_tro_closes_under_triple_products():
    rng = np.random.default_rng(12)
    g = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    t = generate_tro(2, 3, [g])
    x, y, z = (sample_member(t, rng) for _ in range(3))
    assert t.contains(x @ y.conj().T @ z)


def test_associated_algebras_act_on_the_space():
    p = planted_block_tro([(2, 2)], seed=1)
    t = p.tro
    rng = np.random.default_rng(0)
    z = sample_member(t, rng)
    left = t.left_algebra.basis.matrices[0]
    right = t.right_algebra.basis.matrices[0]
    assert t.contains(left @ z)
    assert t.contains(z @ right)


# ---------------------------------------------------------------------------
# classification


def test_planted_tro_recovered():
    p = planted_block_tro([(2, 3), (1, 1)], seed=4)
    cls = classify_tro(p.tro)
    assert cls.blocks == [(2, 3), (1, 1)]
    assert cls.total_dim() == p.tro.dim == 7
    assert cls.residuals["ternary_morphism"] <= 1e-10


def test_classification_is_a_ternary_morphism():
    """apply() multiplies correctly through triple products block by block."""
    rng = np.random.default_rng(29)
    for trial in range(8):
        blocks = random_tro_blocks(rng)
        p = planted_block_tro(blocks, seed=1500 + trial)
        cls = classify_tro(p.tro, seed=trial)
        assert sorted(cls.blocks) == sorted(blocks)
        x, y, z = (sample_member(p.tro, rng) for _ in range(3))
        lhs = cls.apply(x @ y.conj().T @ z)
        tx, ty, tz = cls.apply(x), cls.apply(y), cls.apply(z)
        for l, a, b, c in zip(lhs, tx, ty, tz):
            assert hs_norm(l - a @ b.conj().T @ c) <= 1e-8 * max(
                1.0, hs_norm(a) * hs_norm(b) * hs_norm(c)
            )


EDGE_BLOCKS = [(3, 3), (4, 1), (4, 3)]


def moved_by_roundoff(mats, seed):
    """Every matrix moved by 3e-10 of its norm along a unit-norm complex
    Gaussian direction, below ``tol.member`` but above ``tol.rank``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(mats.shape) + 1j * rng.standard_normal(mats.shape)
    g /= np.linalg.norm(g, axis=(1, 2), keepdims=True)
    return list(mats + 3e-10 * g)


@pytest.mark.parametrize("seed", range(12))
def test_classification_at_the_old_rank_edge(seed):
    """Blocks (3,3), (4,1), (4,3) with every basis element moved by 3e-10.
    Deciding dim(c_k Z) by a singular-value cut at tol.rank split a 4-row
    block into 14, 18 and 7 dimensions on seeds 1, 3 and 10; reading the
    blocks off the linking algebra's decomposition recovers the planted
    blocks on every seed."""
    mats = planted_block_tro(EDGE_BLOCKS, seed=seed).tro.basis.matrices
    z = tro_from_span(moved_by_roundoff(mats, seed))
    assert z.dim == 25
    assert sorted(classify_tro(z, seed=seed).blocks) == sorted(EDGE_BLOCKS)


@pytest.mark.parametrize("seed", range(12))
def test_a_span_moved_by_roundoff_is_refused_by_both_constructors(seed):
    """A span 3e-10 off closed.  Closing it kept the directions roundoff
    made (the TRO's 25 dimensions grew to 77, the algebra's 14 to all of
    M_8), so both constructors refused it.  tro_from_span now reads the
    TRO its basis generates off the linking algebra's decomposition, which
    resolves the span to the planted blocks within tol.member, and accepts
    it.  StarAlgebra.from_span decomposes the algebra's basis as
    generators: the roundoff passes its product probe, but the copies of a
    multiplicity-2 block disagree on the basis by more than tol.spec (or a
    draw's eigenvalue cluster spreads into the gap band), so no draw
    certifies a decomposition, and it refuses the span as not closed,
    chained from the decomposition's DegenerateRandomness."""
    mats = planted_block_tro(EDGE_BLOCKS, seed=seed).tro.basis.matrices
    assert tro_from_span(moved_by_roundoff(mats, seed)).dim == 25
    mats = planted_block_algebra([3, 2, 1], [1, 2, 1], seed=seed).algebra.basis.matrices
    with pytest.raises(ClosureViolation, match="copies of a block disagree") as info:
        StarAlgebra.from_span(moved_by_roundoff(mats, seed))
    assert isinstance(info.value.__cause__, DegenerateRandomness)


@pytest.mark.parametrize("seed", range(12))
def test_a_family_moved_by_roundoff_generates_the_planted_tro(seed):
    """generate_tro of the same moved family raised VerificationFailure
    (an algebra without a unit) on six seeds and returned dimension 77 on
    the other six.  It must end in the planted blocks or a typed error,
    never in another TRO; the planted blocks are what it gives."""
    planted = planted_block_tro(EDGE_BLOCKS, seed=seed).tro
    moved = moved_by_roundoff(planted.basis.matrices, seed)
    z = generate_tro(planted.rows, planted.cols, moved)
    assert z.dim == 25
    assert sorted(classify_tro(z, seed=seed).blocks) == sorted(EDGE_BLOCKS)
    assert z.basis.distance(planted.basis) <= DEFAULT_TOL.member


THIN_SHAPES = [[(6, 1)], [(4, 1), (1, 4)], [(4, 1), (2, 1), (1, 4)], [(1, 5), (3, 1)]]


@pytest.mark.parametrize("blocks", THIN_SHAPES, ids=str)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_thin_blocks_are_generated_and_classified(blocks, seed):
    """Blocks one row or one column wide.  A draw whose Horner words all
    share their left factor leaves the polynomial's constant on several
    rows of a 4 x 1 block and on both 5 x 5 blocks of the linking algebra
    of [(4,1), (2,1), (1,4)], the benchmark pool's shape; zeroing the
    first draw's corners alone still failed 3 of 15 shapes.  With the
    corner terms the planted blocks come back."""
    planted = planted_block_tro(blocks, seed=seed).tro
    z = generate_tro(planted.rows, planted.cols, list(planted.basis.matrices))
    assert z.dim == planted.dim
    assert sorted(classify_tro(z).blocks) == sorted(blocks)
    assert z.basis.distance(planted.basis) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_two_generic_elements_of_a_column_block_generate_two_rows(seed):
    """Two elements of a 4 x 1 block span a 2 x 1 sub-TRO: a word
    ``x y* z`` is ``x`` times the scalar ``y* z``."""
    planted = planted_block_tro([(4, 1)], seed=seed).tro
    rng = np.random.default_rng(seed)
    gens = [sample_member(planted, rng) for _ in range(2)]
    z = generate_tro(planted.rows, planted.cols, gens)
    assert z.dim == 2
    assert classify_tro(z).blocks == [(2, 1)]
    assert z.basis.distance(orthonormalize(gens)) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_a_doubled_block_is_one_block(seed):
    """Generic elements ``x (+) x`` of two equal 2 x 3 blocks generate one
    block of multiplicity 2 in the linking algebra: one 2 x 3 TRO block,
    whose left algebra is M2 doubled."""
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(4, rng), haar_unitary(6, rng)
    gens = []
    for _ in range(2):
        x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        doubled = np.zeros((4, 6), dtype=complex)
        doubled[:2, :3] = doubled[2:, 3:] = x
        gens.append(u @ doubled @ v.conj().T)
    z = generate_tro(4, 6, gens)
    assert z.dim == 6 and z.left_algebra.dim == 4 and z.right_algebra.dim == 9
    cls = classify_tro(z)
    assert cls.blocks == [(2, 3)]
    assert all(z.contains(g) for g in gens)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_scaled_generators_give_the_planted_blocks(scale):
    planted = planted_block_tro([(3, 2), (4, 1), (1, 1)], seed=8).tro
    z = generate_tro(planted.rows, planted.cols, list(scale * planted.basis.matrices))
    assert sorted(classify_tro(z).blocks) == [(1, 1), (3, 2), (4, 1)]
    assert z.basis.distance(planted.basis) <= 1e-12


def test_classification_of_a_repeated_block():
    """x (+) x (+) y with x in M_{2x3}: the left algebra has a block of size
    2 and multiplicity 2, and the TRO block is one (2, 3) copy."""
    mats = []
    for a in range(2):
        for b in range(3):
            m = np.zeros((5, 7), dtype=complex)
            m[a, b] = m[2 + a, 3 + b] = 1.0
            mats.append(m)
    last = np.zeros((5, 7), dtype=complex)
    last[4, 6] = 1.0
    mats.append(last)
    rng = np.random.default_rng(5)
    u, v = haar_unitary(5, rng), haar_unitary(7, rng)
    t = tro_from_span([u @ m @ v.conj().T for m in mats])
    cls = classify_tro(t)
    assert cls.blocks == [(2, 3), (1, 1)]
    assert cls.residuals["ternary_morphism"] <= 1e-12


def test_classification_isometries_are_isometric():
    p = planted_block_tro([(2, 2), (1, 3)], seed=9)
    cls = classify_tro(p.tro)
    for (m, n), (u, v) in zip(cls.blocks, cls.isometries):
        np.testing.assert_allclose(u.conj().T @ u, np.eye(m), atol=1e-8)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-8)


def test_classification_surjective_on_blocks():
    """Every target matrix is hit: pulling the standard units back through
    the isometries lands inside the TRO."""
    p = planted_block_tro([(2, 2), (1, 2)], seed=14)
    cls = classify_tro(p.tro)
    for (m, n), (u, v) in zip(cls.blocks, cls.isometries):
        for i in range(m):
            for j in range(n):
                unit = np.zeros((m, n), dtype=complex)
                unit[i, j] = 1.0
                assert p.tro.contains(u @ unit @ v.conj().T)


def linking_algebra(tro):
    """The *-algebra of ``(rows+cols)^2`` matrices spanned by the corner
    embeddings of Z, Z*, the left algebra and the right algebra: closed
    because the four corners multiply into each other as the TRO
    identities dictate."""
    m, n = tro.basis.shape
    corners = [(z, slice(None, m), slice(m, None)) for z in tro.basis.matrices]
    corners += [(z.conj().T, slice(m, None), slice(None, m)) for z in tro.basis.matrices]
    corners += [(a, slice(None, m), slice(None, m)) for a in tro.left_algebra.basis.matrices]
    corners += [(b, slice(m, None), slice(m, None)) for b in tro.right_algebra.basis.matrices]
    mats = np.zeros((len(corners), m + n, m + n), dtype=complex)
    for mat, (x, rows, cols) in zip(mats, corners):
        mat[rows, cols] = x
    return StarAlgebra.from_span(list(mats), ambient_dim=m + n)


def test_linking_algebra_blocks():
    """The corner embedding of Z into (m+n)-square matrices generates one
    block of size m_k + n_k per TRO block, a cross-check of
    :func:`classify_tro` through the algebra decomposition."""
    p = planted_block_tro([(2, 3), (1, 1)], seed=4)
    link = linking_algebra(p.tro)
    assert link.ambient_dim == 7  # rows + cols of the TRO's 3 x 4 matrices
    dec = wedderburn_decompose(link)
    assert dec.block_signature() == [(5, 1), (2, 1)]
    assert sorted(dec.block_sizes) == sorted(m + n for m, n in classify_tro(p.tro).blocks)
    assert link.dim == 25 + 4


# ---------------------------------------------------------------------------
# submodules and the ideal correspondence


def test_generic_element_generates_everything():
    p = planted_block_tro([(2, 2), (1, 1)], seed=6)
    rng = np.random.default_rng(3)
    w = generate_submodule(p.tro, [sample_member(p.tro, rng)])
    assert w.dim == p.tro.dim


def test_submodule_requires_membership():
    # two 1x1 blocks span only a 2-dimensional slice of the 2x2 matrices
    p = planted_block_tro([(1, 1), (1, 1)], seed=2)
    assert p.tro.dim == 2
    with pytest.raises(MembershipViolation):
        generate_submodule(p.tro, [np.ones((2, 2), dtype=complex)])


@pytest.mark.parametrize("offset", [1e-6, 1e-10])
def test_a_generator_off_z_at_d432(offset):
    """At d=432 (three 12 x 12 blocks) a generator of the maximal submodule
    ``(u_L - e) Z`` moved along a direction orthogonal to Z by ``offset``
    of its norm: 1e-6 is refused by the membership rule read off Z's
    stacks (:class:`MembershipViolation`), and 1e-10, under
    ``tol.member``, gives the unmoved maximal submodule."""
    z = planted_block_tro([(12, 12)] * 3, seed=1).tro
    left = z.left_algebra
    e = minimal_projection_below(left, left.unit, seed=1)
    rng = np.random.default_rng(8)
    x = (left.unit - e) @ sample_member(z, rng)
    g = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    away = (g - z.basis.stack.T @ (z.basis.stack.conj() @ g)).reshape(x.shape)
    moved = x + offset * hs_norm(x) / hs_norm(away) * away
    if offset > DEFAULT_TOL.member:
        with pytest.raises(MembershipViolation, match="generator is not in the TRO"):
            generate_submodule(z, [moved])
        return
    w = generate_submodule(z, [moved])
    assert w.dim == generate_submodule(z, [x]).dim == z.dim - 12
    assert is_maximal_submodule(z, w)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-6, 1e-8, 5e-9, 1e-10])
def test_a_small_generator_part_gives_its_dimension_or_a_refusal(eps):
    """A generator ``x + eps y`` with ``x`` and ``y`` in different blocks.
    ``b = g g*`` squares the small part, so below about 3e-4 it falls in
    the zero cluster of ``b`` and ``p g = g`` fails within ``tol.rank``;
    below ``tol.rank`` it is dropped.  Saturating ``span(g)`` answered 8,
    past ``dim Z = 5``, at 1e-8 and 5e-9."""
    z = planted_block_tro([(2, 2), (1, 1)], seed=0).tro
    x, y = z.basis.matrices[0], z.basis.matrices[-1]
    try:
        dim = generate_submodule(z, [x + eps * y]).dim
    except VerificationFailure:
        assert DEFAULT_TOL.rank < eps < 1e-3
        return
    assert dim == (3 if eps > DEFAULT_TOL.rank else 2)


def test_submodule_ideal_roundtrip():
    """W -> J = span(W Z*) -> J Z recovers W, and ideals survive the other
    direction; both distances are reported."""
    rng = np.random.default_rng(47)
    for trial in range(8):
        blocks = random_tro_blocks(rng)
        p = planted_block_tro(blocks, seed=1700 + trial)
        n_gens = int(rng.integers(1, 3))
        gens = [sample_member(p.tro, rng) for _ in range(n_gens)]
        w = generate_submodule(p.tro, gens)
        ideal, report = submodule_ideal_roundtrip(p.tro, w)
        assert report["ok"]
        assert report["module_roundtrip"] <= 1e-8
        assert report["ideal_roundtrip"] <= 1e-8
        # the ideal lives in the left algebra
        for x in ideal.basis.matrices:
            assert p.tro.left_algebra.contains(x)


def count_cuts(monkeypatch):
    """Count the ``psd_cut`` calls the TRO module makes from now on: one
    per eigendecomposition of ``sum w w*``."""
    calls = []

    def counted(s, tol):
        calls.append(s.shape)
        return psd_cut(s, tol=tol)

    monkeypatch.setattr(tro_mod, "psd_cut", counted)
    return calls


def maximal_submodule(p, seed):
    """A maximal submodule ``(1 - e) Z`` for a minimal projection ``e`` of
    the left algebra."""
    left = p.tro.left_algebra
    e = minimal_projection_below(left, left.unit, seed=seed)
    zs = p.tro.basis.matrices
    return generate_submodule(p.tro, list((left.unit - e) @ zs))


def test_submodule_chain_writes_no_dense_basis(monkeypatch):
    """The ``tro`` benchmark's chain on a generated TRO: the minimal
    projection ``e`` of L is read off the ranges of L's unit in its blocks,
    and ``(u_L - e) Z`` is generated, checked maximal, taken round to its
    ideal and certified finitely generated with at most two block
    projections of L for the draw, no dense basis of an algebra or of Z
    (``StarAlgebra.basis`` and ``TRO.basis`` raise here; the generators
    are formed from Z's stacks) and no corner trace over one."""
    p = planted_block_tro([(3, 2), (2, 2), (1, 3)], seed=4)
    planted = list(p.tro.basis.matrices)

    def dense(*args):
        raise AssertionError("the chain wrote a dense basis or took a corner trace")

    monkeypatch.setattr(StarAlgebra, "basis", property(dense))
    monkeypatch.setattr(TRO, "basis", property(dense))
    for module in (ideals_mod, structure_mod):
        monkeypatch.setattr(module, "_corner_space", dense)
    z = generate_tro(p.tro.rows, p.tro.cols, planted)
    assert sorted(classify_tro(z, seed=1).blocks, reverse=True) == p.signature()
    units = np.concatenate([(a[:, None] @ b.conj().transpose(0, 2, 1)[None]).reshape(
        -1, z.rows, z.cols) for a, b in z.blocks])
    left = z.left_algebra
    projections = []

    def counted(*args, _inner=algebra_mod._block_coordinates):
        projections.append(args[1].shape)
        return _inner(*args)

    monkeypatch.setattr(algebra_mod, "_block_coordinates", counted)
    for seed in range(3):
        projections.clear()
        e = minimal_projection_below(left, left.unit, seed=seed)
        assert len(projections) <= 2
        w = generate_submodule(z, list((left.unit - e) @ units))
        assert is_maximal_submodule(z, w)
        _, report = submodule_ideal_roundtrip(z, w)
        assert report["ok"]
        assert max(finite_generation_certificate(w).residuals.values()) <= 1e-8


def test_repeat_roundtrip_is_not_recomputed(monkeypatch):
    """``generate_submodule`` makes the one eigendecomposition, of ``sum g
    g*``; maximality, a repeat roundtrip and the generation certificate
    read the roundtrip it keeps and make none."""
    p = planted_block_tro([(2, 3), (2, 1)], seed=11)
    calls = count_cuts(monkeypatch)
    w = maximal_submodule(p, seed=1)
    assert len(calls) == 1
    assert is_maximal_submodule(p.tro, w)
    assert len(calls) == 1
    ideal, report = submodule_ideal_roundtrip(p.tro, w)
    again_ideal, again = submodule_ideal_roundtrip(p.tro, w, tol=dataclasses.replace(DEFAULT_TOL))
    cert = finite_generation_certificate(w)
    assert len(calls) == 1
    assert again_ideal is ideal
    assert again == report and report["ok"]
    assert max(cert.residuals.values()) <= 1e-8


def test_mutating_a_returned_report_does_not_change_the_next():
    p = planted_block_tro([(2, 3), (2, 1)], seed=11)
    w = maximal_submodule(p, seed=1)
    _, first = submodule_ideal_roundtrip(p.tro, w)
    expected = dict(first)
    first["module_roundtrip"] = 1.0
    first["ok"] = False
    _, second = submodule_ideal_roundtrip(p.tro, w)
    assert second == expected
    second.clear()
    assert submodule_ideal_roundtrip(p.tro, w)[1] == expected


def test_roundtrip_with_another_tol_or_tro_recomputes(monkeypatch):
    """A recomputed roundtrip takes ``p`` from ``sum w w*``, where the kept
    one took it from ``sum g g*``, so its residuals agree to roundoff: with
    the Haswell kernels they read 1.4e-14 against 1.2e-15."""
    p = planted_block_tro([(2, 3), (2, 1)], seed=11)
    w = maximal_submodule(p, seed=1)
    _, report = submodule_ideal_roundtrip(p.tro, w)
    calls = count_cuts(monkeypatch)
    loose = dataclasses.replace(DEFAULT_TOL, member=2e-8)
    _, loose_report = submodule_ideal_roundtrip(p.tro, w, tol=loose)
    assert len(calls) == 1
    twin = TRO(p.tro.rows, p.tro.cols, p.tro.blocks)
    _, twin_report = submodule_ideal_roundtrip(twin, w)
    assert len(calls) == 2
    for other in (loose_report, twin_report):
        assert other.keys() == report.keys() and other["ok"]
        for key in ("module_roundtrip", "ideal_roundtrip"):
            assert abs(other[key] - report[key]) <= 1e-13
    # the other TRO's result is not kept: the parent's call still hits the
    # result kept under the loose tolerance
    assert submodule_ideal_roundtrip(p.tro, w, tol=loose)[1] == loose_report
    assert len(calls) == 2


def test_a_submodule_that_is_not_right_closed_is_refused():
    """One TRO element spans no submodule: span(z Z*) is a right ideal, but
    (z Z*) Z is larger than span(z), so the module side does not close.
    The refusal is not kept, so it is raised again."""
    p = planted_block_tro([(3, 3), (2, 2)], seed=1)
    z = p.tro.basis
    w = Submodule(parent=p.tro, generators=[z.matrices[0]],
                  basis=Subspace(z.rows, z.cols, z.stack[:1]))
    for _ in range(2):
        with pytest.raises(VerificationFailure):
            submodule_ideal_roundtrip(p.tro, w)
        with pytest.raises(VerificationFailure):
            is_maximal_submodule(p.tro, w)
    assert w._roundtrip is None


def test_a_lost_module_roundtrip_row_is_named():
    """A maximal submodule with one basis row dropped keeps its support
    projection p, so it is no longer pZ: the refusal names both
    dimensions, and nothing is kept.  The basis is ``v_q b_j* / sqrt(m)``,
    and its first row, in the ``(3, 2)`` block, shares ``v_1`` with the
    second; the last row of the ``(2, 1)`` block is the only one on its
    ``v_q``, so W without it would be the submodule of a smaller ``p``."""
    p = planted_block_tro([(3, 2), (2, 1)], seed=5)
    w = maximal_submodule(p, seed=1)
    short = Submodule(parent=p.tro, generators=[],
                      basis=Subspace(w.basis.rows, w.basis.cols, w.basis.stack[1:]))
    with pytest.raises(VerificationFailure, match=f"dim pZ = {w.dim}, dim W = {w.dim - 1}"):
        submodule_ideal_roundtrip(p.tro, short)
    assert short._roundtrip is None


def test_a_submodule_outside_the_tro_is_refused():
    """span(W Z*) must lie in the left algebra: a hand-built basis element
    that is not in Z puts it outside."""
    p = planted_block_tro([(2, 2), (1, 1)], seed=3)
    z = p.tro.basis
    outside = np.ones((1, z.rows * z.cols)) / np.sqrt(z.rows * z.cols)
    w = Submodule(parent=p.tro, generators=[], basis=Subspace(z.rows, z.cols, outside))
    with pytest.raises(NotInAlgebra):
        submodule_ideal_roundtrip(p.tro, w)


def test_one_span_ideal_is_the_generated_right_ideal():
    """span(W Z*) is already a right ideal: the ideal its basis generates
    over the left algebra has the same dimension and the same span."""
    rng = np.random.default_rng(61)
    for trial in range(6):
        p = planted_block_tro(random_tro_blocks(rng), seed=2100 + trial)
        w = generate_submodule(p.tro, [sample_member(p.tro, rng)])
        ideal, _ = submodule_ideal_roundtrip(p.tro, w)
        generated = generate_right_ideal(p.tro.left_algebra, list(ideal.basis.matrices))
        assert ideal.dim == generated.dim
        assert ideal.basis.distance(generated.basis) <= 1e-12


def test_maximality_transfers_both_ways():
    p = planted_block_tro([(2, 2), (1, 1)], seed=6)
    z = p.tro
    left = z.left_algebra
    e = minimal_projection_below(left, left.unit, seed=1)
    j = generate_right_ideal(left, [left.unit - e])
    assert is_maximal_right_ideal(left, j)
    w_gens = [np.asarray(x) @ zb for x in j.basis.matrices for zb in z.basis.matrices]
    w = generate_submodule(z, w_gens)
    assert is_maximal_submodule(z, w)
    # a strictly smaller submodule is not maximal
    small = generate_submodule(z, [w.basis.matrices[0]])
    if small.dim < w.dim:
        assert not is_maximal_submodule(z, small)


def test_whole_module_is_not_proper():
    p = planted_block_tro([(1, 2)], seed=5)
    whole = generate_submodule(p.tro, list(p.tro.basis.matrices))
    with pytest.raises(NotProper):
        is_maximal_submodule(p.tro, whole)


def test_zero_submodule_maximal_only_for_one_block_lines():
    """{0} is maximal exactly when the zero ideal is maximal in the left
    algebra, i.e. the left algebra is the scalars."""
    single = planted_block_tro([(1, 3)], seed=7)
    zero = generate_submodule(single.tro, [])
    assert is_maximal_submodule(single.tro, zero)
    double = planted_block_tro([(1, 1), (1, 1)], seed=7)
    zero2 = generate_submodule(double.tro, [])
    assert not is_maximal_submodule(double.tro, zero2)


def test_zero_tro_roundtrip_is_the_zero_ideal():
    z = generate_tro(2, 3, [])
    zero = generate_submodule(z, [])
    ideal, report = submodule_ideal_roundtrip(z, zero)
    assert ideal.dim == 0
    assert report == {"module_roundtrip": 0.0, "ideal_roundtrip": 0.0, "ok": True}
    with pytest.raises(NotProper):
        is_maximal_submodule(z, zero)


# ---------------------------------------------------------------------------
# finite generation certificates


def test_finite_generation_certificate_fields():
    p = planted_block_tro([(2, 2), (1, 1)], seed=6)
    rng = np.random.default_rng(3)
    w = generate_submodule(p.tro, [sample_member(p.tro, rng)])
    cert = finite_generation_certificate(w)
    assert len(cert.generators) == w.dim
    e = cert.projection
    assert hs_norm(e @ e - e) <= 1e-8
    assert hs_norm(e - e.conj().T) <= 1e-8
    assert max(cert.residuals.values()) <= 1e-8
    # e acts as the identity on the submodule from the left
    for x in w.basis.matrices:
        assert hs_norm(e @ x - x) <= 1e-8


def test_finite_generation_random_submodules():
    rng = np.random.default_rng(58)
    for trial in range(8):
        blocks = random_tro_blocks(rng)
        p = planted_block_tro(blocks, seed=1900 + trial)
        gens = [sample_member(p.tro, rng)]
        w = generate_submodule(p.tro, gens)
        cert = finite_generation_certificate(w)
        regen = generate_submodule(p.tro, cert.generators)
        assert regen.dim == w.dim
        assert regen.basis.equals(w.basis, tol=DEFAULT_TOL)


def test_zero_submodule_has_no_certificate():
    p = planted_block_tro([(1, 1)], seed=0)
    zero = generate_submodule(p.tro, [])
    with pytest.raises(ZeroSubmodule):
        finite_generation_certificate(zero)
