"""Tests for finitely generated right ideals and their projection
certificates.

The central claim being exercised: every finitely generated right ideal J
of a finite-dimensional algebra equals pA for a projection p constructed
from the generators, and the Gram element b = sum g g* has no spectrum in
(0, (nK)^-2) where K bounds the coefficient norms of b^{1/4} = sum g c.
"""

import numpy as np
import pytest

from cstarlab import (
    DEFAULT_TOL,
    StarAlgebra,
    Subspace,
    corner_dimension,
    generate_algebra,
    generate_right_ideal,
    is_maximal_right_ideal,
    is_minimal_projection,
    maximal_ideal_minimality_certificate,
    minimal_projection_below,
    planted_block_algebra,
    projection_generator,
    support_projection,
    unit_of,
    unitize,
)
from cstarlab.algebra import sample_self_adjoint
from cstarlab.errors import (
    NotAProjection,
    NotInAlgebra,
    NotProper,
    NotUnital,
    VerificationFailure,
)
from cstarlab.ideals import _corner_space
from cstarlab.instances import (
    haar_unitary,
    random_block_structure,
    random_projection,
    random_right_ideal,
)
from cstarlab.linalg import hs_norm, op_norm, orthonormalize, psd_cut

E11 = np.diag([1.0, 0.0]).astype(complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E22 = np.diag([0.0, 1.0]).astype(complex)


@pytest.fixture(scope="module")
def m2():
    return generate_algebra(2, [E12])


@pytest.fixture(scope="module")
def d3():
    gens = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    return generate_algebra(3, gens)


# ---------------------------------------------------------------------------
# frozen single-instance oracles


def test_offdiagonal_generator_certificate(m2):
    """J = e12 A is e11 A; hand-computed certificate values.

    b = e12 e12* = e11 with spectrum {0, 1}; b^{1/4} = e11 = e12 e21 with
    coefficient e21 of unit norm, so K = 1 and the spectral floor
    (nK)^-2 = 1 is attained exactly by the smallest positive eigenvalue.
    """
    ideal = generate_right_ideal(m2, [E12])
    assert ideal.dim == 2
    cert = projection_generator(m2, ideal)
    np.testing.assert_allclose(cert.projection, E11, atol=1e-12)
    assert cert.generator_count == 1
    assert not cert.is_trivial
    assert cert.coefficient_bound == pytest.approx(1.0, abs=1e-10)
    assert cert.threshold == pytest.approx(1.0, abs=1e-10)
    assert cert.min_positive_eigenvalue == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(np.sort(cert.spectrum), [0.0, 1.0], atol=1e-12)
    assert cert.solve_residual <= 1e-12
    assert max(cert.residuals.values()) <= 1e-12
    # the quartic root of the Gram element really is sum g c
    recon = np.einsum(
        "gij,gjk->ik", np.asarray(ideal.generators), np.asarray(cert.coefficients)
    )
    np.testing.assert_allclose(recon, E11, atol=1e-12)


def test_two_generator_diagonal_certificate(d3):
    """Two rank-one diagonal generators: p keeps both coordinates and the
    spectral floor drops to (2*1)^-2 = 1/4."""
    gens = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])]
    ideal = generate_right_ideal(d3, gens)
    assert ideal.dim == 2
    cert = projection_generator(d3, ideal)
    np.testing.assert_allclose(cert.projection, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert cert.threshold == pytest.approx(0.25, abs=1e-10)
    assert cert.coefficient_bound == pytest.approx(1.0, abs=1e-10)
    assert cert.min_positive_eigenvalue >= cert.threshold - 1e-10


def test_zero_ideal_trivial_certificate(m2):
    ideal = generate_right_ideal(m2, [])
    assert ideal.dim == 0
    cert = projection_generator(m2, ideal)
    assert cert.is_trivial
    assert hs_norm(cert.projection) == 0.0
    assert cert.threshold == 0.0


def test_generators_must_belong_to_parent(d3):
    with pytest.raises(NotInAlgebra):
        generate_right_ideal(d3, [np.ones((3, 3), dtype=complex)])


def test_support_projection_agrees_on_oracle(m2):
    ideal = generate_right_ideal(m2, [E12])
    cert = projection_generator(m2, ideal)
    supp = support_projection(m2, ideal)
    assert hs_norm(supp - cert.projection) <= 1e-12


# ---------------------------------------------------------------------------
# randomized property checks


def test_projection_generator_random_ideals():
    """Random ideals in random planted algebras: the two independent
    projection routes agree, pA reproduces J, and the Gram spectrum
    respects the certified floor."""
    rng = np.random.default_rng(2024)
    for trial in range(25):
        sizes, mults = random_block_structure(rng)
        planted = planted_block_algebra(sizes, mults, seed=3000 + trial)
        a = planted.algebra
        n_gens = int(rng.integers(1, 4))
        ideal = random_right_ideal(a, n_gens, rng)
        cert = projection_generator(a, ideal)
        p = cert.projection
        # p is a projection in A generating the same ideal
        assert hs_norm(p @ p - p) <= 1e-8
        assert hs_norm(p - p.conj().T) <= 1e-8
        assert a.contains(p)
        if not cert.is_trivial:
            assert ideal.contains(p)
        regen = generate_right_ideal(a, [p])
        assert regen.dim == ideal.dim
        assert regen.basis.equals(ideal.basis, tol=DEFAULT_TOL)
        # independent route: range projection of sum x x* over the ideal
        supp = support_projection(a, ideal)
        assert hs_norm(supp - p) <= 1e-8
        # spectral floor
        if not cert.is_trivial:
            spec = np.asarray(cert.spectrum)
            positive = spec[spec > cert.cut]
            assert np.all(positive >= cert.threshold - 1e-8)


def test_certificate_reconstructs_quartic_root_random():
    rng = np.random.default_rng(99)
    for trial in range(10):
        planted = planted_block_algebra([2, 1], [1, 1], seed=400 + trial)
        a = planted.algebra
        ideal = random_right_ideal(a, 2, rng)
        cert = projection_generator(a, ideal)
        if cert.is_trivial:
            continue
        g = np.asarray(ideal.generators)
        b = np.einsum("gij,gkj->ik", g, g.conj())
        np.testing.assert_allclose(cert.gram, b, atol=1e-12)
        # sum g c is the quartic root of b, so its fourth power recovers b
        # (up to the flushed roundoff cluster at zero)
        recon = np.einsum("gij,gjk->ik", g, np.asarray(cert.coefficients))
        np.testing.assert_allclose(
            recon @ recon @ recon @ recon, b, atol=1e-7 * max(1.0, hs_norm(b))
        )


def test_coefficient_bound_does_not_depend_on_the_algebra_basis():
    """``K`` comes from the minimum-norm factorization of ``b^(1/4)``, which
    is a function of ``b`` and the generators alone, so it is the same for
    every orthonormal basis of the algebra.  Ideals generated by projections,
    each certified once over the planted basis and once over a unitary
    rotation of it."""
    worst = 0.0
    for seed in range(1, 9):
        a = planted_block_algebra([3, 2, 1], [2, 1, 2], seed=seed).algebra
        gens = a.basis.matrices
        q = haar_unitary(len(gens), np.random.default_rng(100 + seed))
        b = generate_algebra(a.ambient_dim, list(np.einsum("ab,bij->aij", q, gens)))
        rng = np.random.default_rng(seed)
        for _ in range(4):
            p = random_projection(a, rng)
            if hs_norm(p) <= 1e-8:
                continue
            bounds = [
                projection_generator(alg, generate_right_ideal(alg, [p])).coefficient_bound
                for alg in (a, b)
            ]
            worst = max(worst, abs(bounds[0] - bounds[1]))
    assert worst <= 1e-12


def lstsq_coefficients(algebra, gens, quarter, tol=DEFAULT_TOL):
    """The minimum-norm ``c_j`` in the unitization with
    ``sum_j g_j c_j = quarter``, by least squares over a basis of ``A^1``."""
    amats = unitize(algebra, tol=tol).basis.matrices
    cols = (gens[:, None] @ amats[None]).reshape(len(gens) * len(amats), -1)
    coeff = np.linalg.lstsq(cols.T, quarter.ravel(), rcond=tol.rank)[0]
    return np.einsum("ga,aij->gij", coeff.reshape(len(gens), len(amats)), amats)


def test_closed_form_coefficients_are_the_least_squares_solution():
    """``c_j = g_j* b^(-3/4)`` lies in A, factors ``b^(1/4)`` exactly and is
    the minimum-norm solution that a least-squares solve over the
    unitization returns, so ``K`` is the same either way."""
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(12):
        sizes, mults = random_block_structure(rng)
        a = planted_block_algebra(sizes, mults, seed=4100 + trial).algebra
        ideal = random_right_ideal(a, 1 + trial % 4, rng)
        cert = projection_generator(a, ideal)
        if cert.is_trivial:
            continue
        scale = max(hs_norm(g) for g in ideal.generators)
        gens = np.array([g for g in ideal.generators if hs_norm(g) > DEFAULT_TOL.rank * scale])
        dec, cut, _ = psd_cut(cert.gram)
        quarter = dec.apply(lambda t: t ** 0.25 if t > cut else 0.0)
        reference = lstsq_coefficients(a, gens, quarter)
        cs = np.asarray(cert.coefficients)
        ref_bound = max(op_norm(c) ** 2 for c in reference)
        assert abs(cert.coefficient_bound - ref_bound) <= 1e-10 * ref_bound
        for c, ref in zip(cs, reference):
            assert hs_norm(c - ref) <= 1e-10 * max(1.0, hs_norm(c))
            assert a.basis.residual(c) <= 1e-10 * max(1.0, hs_norm(c))
        assert hs_norm((gens @ cs).sum(axis=0) - quarter) <= 1e-12 * max(1.0, hs_norm(quarter))
        checked += 1
    assert checked >= 8


# ---------------------------------------------------------------------------
# minimal projections and maximal ideals


def test_minimal_projection_oracles(m2, d3):
    assert is_minimal_projection(m2, E11)
    assert not is_minimal_projection(m2, np.eye(2))
    assert is_minimal_projection(d3, np.diag([1.0, 0, 0]))
    assert not is_minimal_projection(d3, np.diag([1.0, 1.0, 0]))
    with pytest.raises(NotAProjection):
        is_minimal_projection(m2, E12)
    with pytest.raises(NotAProjection):
        is_minimal_projection(m2, np.zeros((2, 2), dtype=complex))


def test_maximal_ideal_oracles(m2, d3):
    corner_ideal = generate_right_ideal(m2, [E11])
    assert is_maximal_right_ideal(m2, corner_ideal)
    q, corner = maximal_ideal_minimality_certificate(m2, corner_ideal)
    np.testing.assert_allclose(q, E22, atol=1e-12)
    assert corner.dim == 1

    two_of_three = generate_right_ideal(
        d3, [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])]
    )
    assert is_maximal_right_ideal(d3, two_of_three)
    one_of_three = generate_right_ideal(d3, [np.diag([1.0, 0, 0])])
    assert not is_maximal_right_ideal(d3, one_of_three)


def test_whole_algebra_is_not_proper(m2):
    whole = generate_right_ideal(m2, [np.eye(2, dtype=complex)])
    with pytest.raises(NotProper):
        is_maximal_right_ideal(m2, whole)


def test_maximality_requires_unit():
    # a *-closed span that is not an algebra has no unit; the maximality
    # test refuses to run on it
    span = StarAlgebra(basis=orthonormalize([E12, E12.conj().T]))
    assert unit_of(span) is None
    ideal = generate_right_ideal(span, [])
    with pytest.raises(NotUnital):
        is_maximal_right_ideal(span, ideal)


def test_minimal_projection_below_descends():
    rng = np.random.default_rng(8)
    for trial in range(8):
        sizes, mults = random_block_structure(rng)
        planted = planted_block_algebra(sizes, mults, seed=600 + trial)
        a = planted.algebra
        e = minimal_projection_below(a, a.unit, seed=trial)
        assert is_minimal_projection(a, e)
        # subprojection of the unit
        assert hs_norm(a.unit @ e - e) <= 1e-8
        # determinism
        e2 = minimal_projection_below(a, a.unit, seed=trial)
        assert hs_norm(e - e2) <= 1e-12


def test_minimal_projection_below_zero_is_not_a_projection(m2):
    """Nothing nonzero lies below 0: an input error, like asking whether 0
    is minimal, not a failed random draw."""
    with pytest.raises(NotAProjection):
        minimal_projection_below(m2, np.zeros((2, 2), dtype=complex))


def test_complement_of_minimal_generates_maximal_ideal():
    """u - e for minimal e single-generates a maximal right ideal, and the
    certified complement is minimal again."""
    rng = np.random.default_rng(55)
    for trial in range(6):
        sizes, mults = random_block_structure(rng)
        planted = planted_block_algebra(sizes, mults, seed=700 + trial)
        a = planted.algebra
        e = minimal_projection_below(a, a.unit, seed=trial)
        g = a.unit - e
        if hs_norm(g) <= 1e-10:  # one-dimensional algebra: no proper ideal
            continue
        ideal = generate_right_ideal(a, [g])
        assert is_maximal_right_ideal(a, ideal)
        q, corner = maximal_ideal_minimality_certificate(a, ideal)
        assert corner.dim == 1
        assert hs_norm(q @ q - q) <= 1e-8


# ---------------------------------------------------------------------------
# corner dimensions from the trace sum_i ||e b_i f||^2


@pytest.fixture(scope="module")
def planted14():
    """Blocks 3, 2, 1 with multiplicities 2, 1, 3: dimension 14 in 11 x 11."""
    return planted_block_algebra([3, 2, 1], [2, 1, 3], seed=14)


def rank_one_minimal(planted):
    """The conjugated diagonal unit at position 6, the one row of the
    size-2 block of multiplicity 1: a minimal projection of rank one."""
    v = planted.conjugator[:, [6]]
    return v @ v.conj().T


@pytest.mark.parametrize("direction", ["radial", "generic"])
def test_corner_dimension_at_the_edge_of_the_projection_tolerance(planted14, direction):
    """A minimal projection and the unit, each moved by 0.9 tol.member
    along a unit self-adjoint member (the projection itself, or a generic
    draw), are still accepted as projections, and their corner dimensions
    are still exact.  Moving the rank-one ``e`` along itself shifts the
    trace by about 3.6e-8, more than the bound ``tol.member * max(1, S)``."""
    a = planted14.algebra
    rng = np.random.default_rng(5)

    def moved(e):
        h = e if direction == "radial" else sample_self_adjoint(a, rng)
        return e + 0.9 * DEFAULT_TOL.member * h / hs_norm(h)

    e, u = moved(rank_one_minimal(planted14)), moved(a.unit)
    assert is_minimal_projection(a, e)
    assert not is_minimal_projection(a, u)
    assert corner_dimension(a, e, e) == 1
    assert corner_dimension(a, e, u) == 2  # e A is a row of the size-2 block
    assert corner_dimension(a, u, u) == a.dim


@pytest.mark.parametrize("corrupt", ["scaled", "nan"])
def test_corner_trace_off_an_integer_is_refused_by_name(planted14, corrupt):
    """A basis that is not orthonormal (rows scaled by 1.5) or holds a NaN
    refuses the corner trace by name: no wrong dimension, no ValueError
    from rounding a NaN."""
    a = planted14.algebra
    stack = 1.5 * a.basis.stack
    if corrupt == "nan":
        stack = a.basis.stack.copy()
        stack[0, 0] = np.nan
    bad = StarAlgebra(basis=Subspace(a.ambient_dim, a.ambient_dim, stack), unit=a.unit)
    e = rank_one_minimal(planted14)
    with pytest.raises(VerificationFailure, match="corner trace"):
        _corner_space(bad, e, e, DEFAULT_TOL)
