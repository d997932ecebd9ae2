"""Tests for block decomposition: minimal projections, blocks, matrix
units, the block-diagonalizing basis change, the decomposition read off
generators, and the maximal-ideal/single-generator verification built on
top of them."""

import dataclasses

import numpy as np
import pytest

from cstarlab import (
    corner_dimension,
    decompose_generators,
    generate_algebra,
    generate_right_ideal,
    is_maximal_right_ideal,
    is_minimal_projection,
    minimal_projection_below,
    planted_block_algebra,
    planted_block_tro,
    projection_generator,
    socle,
    unit_partition_certificate,
    verify_dales_zelazko,
    wedderburn_decompose,
)
from cstarlab.config import DEFAULT_TOL
from cstarlab import ideals as ideals_module, structure as structure_module
from cstarlab.algebra import sample_element
from cstarlab.errors import (
    CStarError,
    DegenerateRandomness,
    GapNotFound,
    NotAProjection,
    NotInAlgebra,
    VerificationFailure,
)
from cstarlab.ideals import RightIdeal, right_module_span
from cstarlab.instances import haar_unitary, random_block_structure, random_tro_blocks
from cstarlab.linalg import Subspace, cluster_partition, gram_sum, hs_norm
from cstarlab.structure import (
    _MAX_DRAWS,
    _basis_change,
    _blocks,
    _draw,
    _minimal_bases,
)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def diag_algebra(n):
    gens = [np.diag([1.0 if i == j else 0.0 for i in range(n)]) for j in range(n)]
    return generate_algebra(n, gens)


# ---------------------------------------------------------------------------
# eigenvalue clustering


def test_cluster_partition_oracle():
    vals = np.array([0.0, 1e-9, 0.5, 0.50000001, 2.0])
    clusters, zero = cluster_partition(vals)
    assert [list(g) for g in clusters] == [[0, 1], [2, 3], [4]]
    assert zero == slice(0, 1)


def test_cluster_partition_single_value():
    clusters, zero = cluster_partition(np.array([3.0]))
    assert len(clusters) == 1
    assert zero == slice(0, 0)


def test_cluster_partition_zero_cluster_is_one_slice():
    """Every cluster meeting [-gap, gap] is zero, also when two of them are
    more than the gap apart; an empty zero slice sits where 0 would."""
    g = 1e-7  # the default gap at max|lambda| = 1
    clusters, zero = cluster_partition(np.array([-1.0, -0.6 * g, 0.6 * g, 1.0]))
    assert [list(c) for c in clusters] == [[0], [1], [2], [3]]
    assert zero == slice(1, 3)
    clusters, zero = cluster_partition(np.array([1.0, -1.0, 0.5]))
    assert [list(c) for c in clusters] == [[1], [2], [0]]
    assert zero == slice(1, 1)
    assert cluster_partition(np.zeros(0)) == ([], slice(0, 0))
    clusters, zero = cluster_partition(np.zeros(3))
    assert len(clusters) == 1 and zero == slice(0, 1)


def test_draw_depends_on_the_span_only():
    """Two orthonormal bases of one span give the same draw for one seed."""
    alg = planted_block_algebra([2, 1], [2, 1], seed=3).algebra
    q = haar_unitary(alg.dim, np.random.default_rng(1))
    rotated = Subspace(alg.ambient_dim, alg.ambient_dim, q @ alg.basis.stack)
    x = _draw(alg.basis, np.random.default_rng(5))
    assert alg.contains(x)
    assert hs_norm(_draw(rotated, np.random.default_rng(5)) - x) <= 1e-12 * hs_norm(x)


# ---------------------------------------------------------------------------
# frozen decomposition oracles


def test_full_matrix_algebra_is_one_block():
    a = generate_algebra(2, [E12])
    dec = wedderburn_decompose(a)
    assert dec.block_sizes == [2]
    assert dec.multiplicities == [1]
    assert dec.block_signature() == [(2, 1)]
    u = dec.basis_change
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    assert dec.residuals["block_form"] <= 1e-10


def test_diagonal_algebra_splits_into_lines():
    dec = wedderburn_decompose(diag_algebra(3))
    assert dec.block_sizes == [1, 1, 1]
    assert dec.multiplicities == [1, 1, 1]


def test_doubled_block_has_multiplicity_two():
    """{x (+) x : x in M2} is a single 2x2 block seen twice."""
    a = generate_algebra(4, [np.kron(np.eye(2), E12)])
    dec = wedderburn_decompose(a)
    assert dec.block_sizes == [2]
    assert dec.multiplicities == [2]
    # after the basis change every element is I_2 (x) alpha
    x = a.basis.matrices[0]
    u = dec.basis_change
    moved = u.conj().T @ x @ u
    alpha = moved[:2, :2]
    np.testing.assert_allclose(moved, np.kron(np.eye(2), alpha), atol=1e-8)


def test_block_form_matches_basis_change():
    planted = planted_block_algebra([3, 1], [2, 1], seed=42)
    dec = wedderburn_decompose(planted.algebra)
    x = planted.algebra.basis.matrices[1]
    u = dec.basis_change
    np.testing.assert_allclose(dec.block_form(x), u.conj().T @ x @ u, atol=1e-10)


# ---------------------------------------------------------------------------
# planted recovery


def test_planted_structures_recovered_exactly():
    rng = np.random.default_rng(314)
    for trial in range(15):
        sizes, mults = random_block_structure(rng)
        planted = planted_block_algebra(sizes, mults, seed=900 + trial)
        dec = wedderburn_decompose(planted.algebra, seed=trial)
        assert dec.block_signature() == planted.signature()
        # dimension identity: dim A = sum of squared block sizes
        assert sum(n * n for n in dec.block_sizes) == planted.algebra.dim
        assert dec.residuals["block_form"] <= 1e-8


def test_basis_change_unitarity_uses_callers_member_tolerance():
    alg = planted_block_algebra([2, 1], [2, 1], seed=3).algebra
    rng = np.random.default_rng(0)
    identity = np.eye(alg.ambient_dim, dtype=complex)  # the unit
    bases, values = _minimal_bases(_draw(alg.basis, rng), identity, DEFAULT_TOL)
    blocks = _blocks(bases, values, _draw(alg.basis, rng), DEFAULT_TOL)
    kernel = np.zeros((alg.ambient_dim, 0), dtype=complex)
    u = _basis_change(blocks, kernel, DEFAULT_TOL)
    assert hs_norm(u.conj().T @ u - np.eye(alg.ambient_dim)) > 0.0
    with pytest.raises(VerificationFailure, match="not unitary"):
        _basis_change(blocks, kernel, dataclasses.replace(DEFAULT_TOL, member=1e-30))


def test_matrix_units_multiply_correctly():
    planted = planted_block_algebra([2, 2], [1, 2], seed=17)
    dec = wedderburn_decompose(planted.algebra)
    for units in dec.matrix_units:
        n = units.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        prod = units[i, j] @ units[k, l]
                        expect = units[i, l] if j == k else np.zeros_like(prod)
                        assert hs_norm(prod - expect) <= 1e-8
                # adjoint flips indices
                assert hs_norm(units[i, j].conj().T - units[j, i]) <= 1e-8


def test_central_projections_sum_to_unit():
    planted = planted_block_algebra([2, 1, 1], [1, 1, 2], seed=23)
    a = planted.algebra
    dec = wedderburn_decompose(a)
    total = sum(dec.central_projections)
    np.testing.assert_allclose(total, a.unit, atol=1e-8)
    for z in dec.central_projections:
        assert hs_norm(z @ z - z) <= 1e-8
        for b in a.basis.matrices:
            assert hs_norm(z @ b - b @ z) <= 1e-8


def test_decomposition_runs_without_an_svd(monkeypatch):
    """The minimal projections, the blocks and the Burnside and
    inequivalence certificates come from eigendecompositions, not from a
    null space: no step of the decomposition calls an SVD."""
    planted = planted_block_algebra([3, 2, 1], [1, 2, 2], seed=17)

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    dec = wedderburn_decompose(planted.algebra, seed=2)
    assert dec.block_signature() == planted.signature()


def force_draws(monkeypatch, unit, forced):
    """Make the first ``forced`` draws of a decomposition return ``unit``,
    after drawing as usual so the rest of the seeded stream is kept."""
    calls = []

    def draw(space, rng):
        y = _draw(space, rng)
        calls.append(y)
        return unit if len(calls) <= forced else y

    monkeypatch.setattr(structure_module, "_draw", draw)


def test_central_draw_at_the_unit_is_redrawn(monkeypatch):
    """On blocks of sizes 2 and 2 with multiplicities 1 and 1, a first draw
    at the unit is one cluster, so its candidate is one 1x1 block; the
    second draw is not in that block form, and the pair is redrawn.  When
    every draw is the unit, the draws generate only the scalars, of
    dimension 1 < 8, and the decomposition raises."""
    planted = planted_block_algebra([2, 2], [1, 1], seed=4)
    force_draws(monkeypatch, planted.algebra.unit, 1)
    assert wedderburn_decompose(planted.algebra).block_signature() == planted.signature()
    force_draws(monkeypatch, planted.algebra.unit, 2 * _MAX_DRAWS)
    with pytest.raises(DegenerateRandomness):
        wedderburn_decompose(planted.algebra)


def test_merged_blocks_never_decompose(monkeypatch):
    """Blocks of sizes 3 and 4 with multiplicities 3 and 4 have 3^2 + 4^2 =
    5^2 and 3 * 3 + 4 * 4 = 5 * 5, so one block of size 5 and multiplicity
    5 would match both the algebra's dimension and its unit's rank.  A draw
    at the unit merges both blocks into one cluster; that candidate must
    never be returned: the pair is redrawn, and when every draw is the
    unit the decomposition raises rather than return a result."""
    planted = planted_block_algebra([3, 4], [3, 4], seed=9)
    u = planted.algebra.unit
    force_draws(monkeypatch, u, 1)
    assert wedderburn_decompose(planted.algebra).block_signature() == planted.signature()
    force_draws(monkeypatch, u, 2 * _MAX_DRAWS)
    with pytest.raises(CStarError):
        wedderburn_decompose(planted.algebra)


def test_decomposition_is_deterministic():
    planted = planted_block_algebra([2, 1], [1, 1], seed=3)
    d1 = wedderburn_decompose(planted.algebra, seed=5)
    d2 = wedderburn_decompose(planted.algebra, seed=5)
    assert np.array_equal(d1.basis_change, d2.basis_change)
    for a, b in zip(d1.central_projections, d2.central_projections):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# decomposition from generators


def cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def planted_or_refused(ambient, gens, signature, seed):
    """``decompose_generators`` ends in the planted signature or a typed
    error, never in another signature; returns which."""
    try:
        dec = decompose_generators(ambient, gens, seed=seed)
    except CStarError as exc:
        return type(exc)
    assert dec.block_signature() == signature
    return "planted"


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("eps", [1e-8, 3e-9, 1e-9, 3e-10])
def test_near_equivalent_blocks_are_never_merged(eps, seed):
    """Two 3x3 blocks whose generators are unitarily equivalent up to a
    relative ``eps`` generate M3 (+) M3, not M3 seen twice.  Their
    eigenvalues pair up within the gap band, so no draw certifies either
    reading: a draw that clusters the pairs as one eigenvalue reads a
    multiplicity whose copies disagree on the generators by more than
    ``tol.spec``, and is redrawn."""
    rng = np.random.default_rng(seed)
    w, u = haar_unitary(3, rng), haar_unitary(6, rng)
    gens = []
    for _ in range(2):
        x, e = cplx(rng, 3, 3), cplx(rng, 3, 3)
        e *= eps * np.linalg.norm(x) / np.linalg.norm(e)
        gens.append(u @ np.block([[x, np.zeros((3, 3))],
                                  [np.zeros((3, 3)), w @ (x + e) @ w.conj().T]]) @ u.conj().T)
    assert planted_or_refused(6, gens, [(3, 1), (3, 1)], seed) is DegenerateRandomness


@pytest.mark.parametrize("gens", [
    [np.diag([1.0, 1e-4])],
    [np.diag([1.0, 0.0]), np.diag([0.0, 1e-5])],
], ids=["diag(1,1e-4)", "E11,1e-5*E22"])
def test_small_generator_directions_stay_in_the_unit(gens):
    """The unit is cut on the generators' singular values, not on their
    squares: a direction at 1e-4 or 1e-5 of the largest generator is part
    of the algebra, which is D2."""
    dec = decompose_generators(2, [g.astype(complex) for g in gens])
    assert dec.block_signature() == [(1, 1), (1, 1)]
    assert dec.residuals["block_form"] <= 1e-15


@pytest.mark.parametrize("seed", range(4))
def test_generator_just_outside_the_block_form(seed):
    """A generator 1e-9 (relative) outside the planted block form: the
    planted signature, within ``tol.composite``, or a typed error."""
    planted = planted_block_algebra([3, 2, 1], [2, 1, 2], seed=seed)
    rng = np.random.default_rng(seed)
    gens = [sample_element(planted.algebra, rng) for _ in range(2)]
    e = cplx(rng, *gens[1].shape)
    gens[1] = gens[1] + 1e-9 * np.linalg.norm(gens[1]) / np.linalg.norm(e) * e
    assert planted_or_refused(planted.algebra.ambient_dim, gens, planted.signature(), seed) in (
        "planted", DegenerateRandomness, VerificationFailure)


def test_draw_without_an_eigen_gap_is_refused(monkeypatch):
    """Draws whose two eigenvalues lie 1e-8 apart, inside the gap band
    between ``tol.spec`` and ``tol.gap``, are neither one cluster nor two:
    every draw is redrawn, then DegenerateRandomness."""
    gens = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    no_gap = np.diag([1.0, 1.0 + 1e-8]).astype(complex)
    monkeypatch.setattr(structure_module, "_polynomial", lambda family, unit, rng: no_gap)
    with pytest.raises(DegenerateRandomness, match="gap band"):
        decompose_generators(2, gens)


def commutator_singular_values(a, b):
    """Ascending singular values of ``X -> (a_p X - X b_p)`` stacked over
    the ``(p, n, n)`` and ``(p, m, m)`` stacks ``a`` and ``b``; on
    row-major ``X`` the map is ``a_p (x) 1 - 1 (x) b_p^T``."""
    n, m = a.shape[1], b.shape[1]
    lmap = np.concatenate([np.kron(ap, np.eye(m)) - np.kron(np.eye(n), bp.T)
                           for ap, bp in zip(a, b)])
    return np.linalg.svd(lmap, compute_uv=False)[::-1]


@pytest.mark.parametrize("seed", range(3))
def test_cluster_gap_and_links_imply_burnside_and_inequivalence(seed, monkeypatch):
    """The core certifies Burnside and inequivalence through the cluster
    gap of ``h`` and the link cut of ``z``, without the dense commutator
    map.  On the accepted draws that map says the same, clear of the gap
    band: each block's compressions of ``{y, z, y*, z*}`` have only the
    scalars as commutant, and two blocks of one size are intertwined by
    nothing."""
    drawn = []

    def recorded(family, unit, rng):
        drawn.append(polynomial(family, unit, rng))
        return drawn[-1]

    polynomial = structure_module._polynomial
    monkeypatch.setattr(structure_module, "_polynomial", recorded)
    planted = planted_block_algebra([3, 2, 2], [1, 2, 1], seed=seed)
    rng = np.random.default_rng(seed)
    gens = [sample_element(planted.algebra, rng) for _ in range(2)]
    dec = decompose_generators(planted.algebra.ambient_dim, gens, seed=seed)
    assert dec.block_signature() == planted.signature()
    y, z = drawn[-2:]
    ops = dec.block_form(np.array([y, z, y.conj().T, z.conj().T]))
    ops /= np.linalg.norm(ops, axis=(1, 2), keepdims=True)
    band = 2.5 * DEFAULT_TOL.gap
    offsets = np.cumsum([0, *[n * m for n, m in zip(dec.block_sizes, dec.multiplicities)]])
    alphas = [ops[:, o : o + n, o : o + n] for o, n in zip(offsets, dec.block_sizes)]
    for alpha in alphas:
        s = commutator_singular_values(alpha, alpha)
        assert s[0] <= 1e-12 * s[-1] and s[1] > band * s[-1]
    for k in range(dec.num_blocks):
        for l in range(k + 1, dec.num_blocks):
            if dec.block_sizes[k] == dec.block_sizes[l]:
                s = commutator_singular_values(alphas[k], alphas[l])
                assert s[0] > band * s[-1]


def test_a_second_draw_that_misses_a_corner_is_refused(monkeypatch):
    """A second draw with ``e_3 z e_1 = e_3 z e_2 = 0`` inside one M3
    splits it into M2 (+) M1 on which both draws lie; the generators do
    not, so the family check refuses the reading."""
    gens = [np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex),
            np.diag([1.0, 2.0, 3.0]).astype(complex)]
    y = np.diag([1.0, 2.0, 3.0]).astype(complex)
    z = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=complex)
    draws = iter([y, z])
    monkeypatch.setattr(structure_module, "_polynomial", lambda family, unit, rng: next(draws))
    with pytest.raises(VerificationFailure, match="family members miss the block form"):
        decompose_generators(3, gens)


@pytest.mark.parametrize("sizes", [[8, 6, 4, 4, 2], [16, 12, 8, 6, 4, 2]],
                         ids=["N=48", "N=96"])
def test_two_sample_elements_give_the_planted_blocks(sizes):
    """Two sample elements of a planted algebra with every multiplicity 2
    generate it; their decomposition is the planted one, and the
    generators are in its block form to roundoff."""
    planted = planted_block_algebra(sizes, [2] * len(sizes), seed=1)
    rng = np.random.default_rng(1)
    gens = [sample_element(planted.algebra, rng) for _ in range(2)]
    dec = decompose_generators(planted.algebra.ambient_dim, gens, seed=1)
    assert dec.block_signature() == planted.signature()
    assert dec.residuals["block_form"] <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decomposition_algebra_is_the_generated_algebra(seed):
    """``dec.algebra`` is the planted algebra, read off two of its
    elements: its basis, the matrix units over ``sqrt(m_k)``, is
    orthonormal and spans it, its unit is the planted unit and its family
    the two certified draws.  The zero family gives the zero algebra,
    without a unit, whose only right ideal is zero."""
    planted = planted_block_algebra([3, 2, 1], [2, 1, 3], seed=seed)
    rng = np.random.default_rng(seed)
    gens = [sample_element(planted.algebra, rng) for _ in range(2)]
    alg = decompose_generators(planted.algebra.ambient_dim, gens, seed=seed).algebra
    stack = alg.basis.stack
    assert alg.dim == 3 * 3 + 2 * 2 + 1 == planted.algebra.dim
    assert np.abs(stack.conj() @ stack.T - np.eye(alg.dim)).max() <= 1e-12
    assert alg.basis.distance(planted.algebra.basis) <= 1e-12
    assert hs_norm(alg.unit - planted.algebra.unit) <= 1e-12
    assert len(alg.family) == 2 and np.allclose(hs_norm(alg.family), np.sqrt(2))
    zero = decompose_generators(3, [np.zeros((3, 3))]).algebra
    assert zero.dim == 0 and zero.unit is None
    assert generate_right_ideal(zero, [np.zeros((3, 3))]).dim == 0


# ---------------------------------------------------------------------------
# corners, socle, unit partition


def test_corner_dimension_oracles():
    m2 = generate_algebra(2, [E12])
    assert corner_dimension(m2, np.diag([1.0, 0]), np.diag([0, 1.0])) == 1
    assert corner_dimension(m2, np.eye(2), np.eye(2)) == 4
    d3 = diag_algebra(3)
    assert corner_dimension(d3, np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])) == 0


def test_cross_block_corners_vanish():
    """Minimal projections in different blocks have zero corner; in the
    same block the corner is a line."""
    planted = planted_block_algebra([2, 1], [1, 1], seed=11)
    a = planted.algebra
    dec = wedderburn_decompose(a)
    diag_units = [units[i, i] for units in dec.matrix_units for i in range(units.shape[0])]
    block_of = [
        k for k, units in enumerate(dec.matrix_units) for _ in range(units.shape[0])
    ]
    for i, e in enumerate(diag_units):
        for j, f in enumerate(diag_units):
            expect = 1 if block_of[i] == block_of[j] else 0
            assert corner_dimension(a, e, f) == expect


def test_socle_is_whole_algebra():
    rng = np.random.default_rng(2)
    for trial in range(5):
        sizes, mults = random_block_structure(rng)
        planted = planted_block_algebra(sizes, mults, seed=1100 + trial)
        s = socle(planted.algebra)
        assert s.dim == planted.algebra.dim


def test_unit_partition_certificate():
    planted = planted_block_algebra([3, 1], [2, 1], seed=8)
    a = planted.algebra
    part = unit_partition_certificate(a)
    assert len(part.projections) == 4  # one minimal projection per block line
    assert part.residual <= 1e-8
    total = np.zeros_like(a.unit)
    for e, c in zip(part.projections, part.coefficients):
        assert is_minimal_projection(a, e)
        total = total + e @ c
    np.testing.assert_allclose(total, a.unit, atol=1e-8)


def dense_minimal_projection(a, start, seed):
    """The dense draw: a seeded Gaussian projected onto A's basis, its
    Hermitian part ``h``, and the top eigenvalue cluster of ``p h p + 2||h||
    p``, whose shift lifts the range of ``p = start`` clear of its kernel;
    a cluster whose corner trace is not 1 is drawn again."""
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        y = _draw(a.basis, rng)
        h = 0.5 * (y + y.conj().T)
        w, q = np.linalg.eigh(start @ h @ start + 2.0 * hs_norm(h) * start)
        top = q[:, cluster_partition(w)[0][-1]]
        if is_minimal_projection(a, top @ top.conj().T):
            return top @ top.conj().T
    raise AssertionError("the dense draw isolated no minimal projection")


def reference_cases():
    """55 ``(algebra, start, seed)``: planted algebras below their unit and
    below the central projection of one block, and TRO left algebras below
    their unit."""
    rng = np.random.default_rng(39)
    for trial in range(20):
        a = planted_block_algebra(*random_block_structure(rng), seed=3900 + trial).algebra
        yield a, a.unit, trial
    for trial in range(15):
        a = planted_block_algebra(*random_block_structure(rng), seed=3920 + trial).algebra
        v = a.blocks[trial % len(a.blocks)]
        yield a, gram_sum(v.transpose(1, 0, 2).reshape(1, a.ambient_dim, -1)), [trial, 1]
    for trial in range(20):
        left = planted_block_tro(random_tro_blocks(rng), seed=3940 + trial).tro.left_algebra
        yield left, left.unit, [trial, 2]


def test_minimal_projection_below_is_the_dense_draw():
    """Read off the ranges of ``start`` in A's blocks, the draw gives the
    dense draw's projection for the same seed, minimal by the corner trace
    over A's basis."""
    count = 0
    for a, start, seed in reference_cases():
        e = minimal_projection_below(a, start, seed=seed)
        assert hs_norm(e - dense_minimal_projection(a, start, seed)) <= 1e-10
        assert is_minimal_projection(a, e)
        assert hs_norm(start @ e - e) <= 1e-10
        count += 1
    assert count == 55


def test_minimal_projection_below_errors_are_typed():
    """A member of A that is not a projection is no projection to descend
    from, and a projection outside A is not in A (a zero ``start``:
    ``test_ideals.py::test_minimal_projection_below_zero_is_not_a_projection``)."""
    a = planted_block_algebra([2, 1], [2, 1], seed=5).algebra
    with pytest.raises(NotAProjection):
        minimal_projection_below(a, 0.5 * a.unit)
    with pytest.raises(NotAProjection):
        minimal_projection_below(a, sample_element(a, np.random.default_rng(1)))
    x = np.random.default_rng(2).standard_normal(5) + 0j
    with pytest.raises(NotInAlgebra):
        minimal_projection_below(a, np.outer(x, x) / (x @ x))


def test_minimal_projection_below_stays_under_start():
    planted = planted_block_algebra([2, 2], [1, 1], seed=31)
    a = planted.algebra
    dec = wedderburn_decompose(a)
    start = dec.central_projections[0]
    e = minimal_projection_below(a, start, seed=9)
    assert is_minimal_projection(a, e)
    assert hs_norm(start @ e - e) <= 1e-8


# ---------------------------------------------------------------------------
# maximal-ideal verification sweep


def test_verify_single_generation_of_maximal_ideals_m2():
    report = verify_dales_zelazko(generate_algebra(2, [E12]), trials=4, seed=2)
    assert report.all_ok
    assert report.block_sizes == [2]
    assert report.dimension_identity_ok
    assert len(report.trials) == 4
    for t in report.trials:
        assert t.ok
        assert t.is_maximal
        assert t.support_agreement <= 1e-8


def test_dales_zelazko_trial_uses_the_callers_member_bound():
    """``ok`` compares the support agreement with the ``member`` bound the
    sweep ran under: an agreement of 5e-8 fails the default 1e-8 bound and
    passes a caller's 1e-7."""
    loose = dataclasses.replace(DEFAULT_TOL, member=1e-7)
    report = verify_dales_zelazko(generate_algebra(2, [E12]), trials=2, seed=2, tol=loose)
    assert report.all_ok
    trial = report.trials[0]
    assert trial.tol_member == 1e-7
    off = dataclasses.replace(trial, support_agreement=5e-8)
    assert off.ok
    assert not dataclasses.replace(off, tol_member=DEFAULT_TOL.member).ok
    default = verify_dales_zelazko(generate_algebra(2, [E12]), trials=1, seed=2)
    assert default.trials[0].tol_member == DEFAULT_TOL.member


def test_verify_single_generation_scalar_algebra():
    """The scalars have only the zero ideal; the sweep must treat its empty
    certificate as valid rather than inventing a proper ideal."""
    scalars = generate_algebra(1, [np.eye(1, dtype=complex)])
    report = verify_dales_zelazko(scalars, trials=2, seed=0)
    assert report.all_ok
    assert report.block_sizes == [1]


def test_verify_single_generation_planted():
    rng = np.random.default_rng(66)
    for trial in range(4):
        sizes, mults = random_block_structure(rng)
        planted = planted_block_algebra(sizes, mults, seed=1300 + trial)
        report = verify_dales_zelazko(planted.algebra, trials=3, seed=trial)
        assert report.all_ok
        assert sorted(report.block_sizes, reverse=True) == sorted(
            [s for s, _ in planted.signature()], reverse=True
        )


def sweep_recording(monkeypatch, algebra, trials, seed):
    """``verify_dales_zelazko`` with the generators of every certificate it
    asks for, and every right-module span it builds, recorded."""
    certified, spans = [], []

    def certifying(parent, generators, *args, **kwargs):
        certified.append(list(generators))
        return projection_generator(parent, generators, *args, **kwargs)

    def spanning(*args, **kwargs):
        spans.append(right_module_span(*args, **kwargs))
        return spans[-1]

    monkeypatch.setattr(structure_module, "projection_generator", certifying)
    monkeypatch.setattr(ideals_module, "right_module_span", spanning)
    report = verify_dales_zelazko(algebra, trials=trials, seed=seed)
    return report, certified, spans


@pytest.mark.parametrize("trials", [1, 4])
def test_dales_zelazko_builds_one_ideal_per_trial(monkeypatch, trials):
    """Each trial certifies only its ideal ``J = (u - e) A``, from its one
    generator and with no span of ``J``: single generation and maximality
    are read off the one certificate of ``J = pA``."""
    planted = planted_block_algebra([2, 1], [2, 1], seed=5)
    report, certified, spans = sweep_recording(monkeypatch, planted.algebra, trials, seed=1)
    assert report.all_ok
    assert [len(gens) for gens in certified] == [1] * trials
    assert spans == []


@pytest.mark.parametrize("sizes, mults", [
    ([2], [2]),
    ([3, 1], [1, 2]),
    ([2, 2], [2, 1]),
    ([3, 2, 1], [2, 1, 2]),
    ([1, 1, 2], [3, 1, 2]),
])
def test_dales_zelazko_verdicts_match_the_span_route(monkeypatch, sizes, mults):
    """Reference: the span of each trial's ideal, built here from the
    generators the sweep certified, is spanned by the ideal regenerated
    from its projection (single generation), and the support-projection test
    :func:`is_maximal_right_ideal` agrees with the maximality read off the
    certificate, on every trial of every block."""
    a = planted_block_algebra(sizes, mults, seed=sum(sizes) + 10 * len(mults)).algebra
    report, certified, _ = sweep_recording(monkeypatch, a, 2 * len(sizes), seed=len(sizes))
    monkeypatch.undo()
    assert report.all_ok
    assert len(certified) == len(report.trials)
    for trial, gens in zip(report.trials, certified):
        ideal = RightIdeal(parent=a, generators=gens,
                           basis=right_module_span(a, gens, a.ambient_dim))
        regen = generate_right_ideal(a, [trial.certificate.projection])
        assert regen.basis.equals(ideal.basis)
        assert is_maximal_right_ideal(a, ideal) == trial.is_maximal
