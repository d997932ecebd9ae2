"""Tests for *-algebra construction: closure under products and adjoints,
units, unitization, and centers."""

from dataclasses import replace

import numpy as np
import pytest

from cstarlab import (
    StarAlgebra,
    center,
    generate_algebra,
    planted_block_algebra,
    unit_of,
    unitize,
)
from cstarlab.algebra import sample_element, sample_self_adjoint
from cstarlab.config import DEFAULT_TOL
from cstarlab.errors import (
    ClosureViolation,
    CStarError,
    GapNotFound,
    NotInAlgebra,
    NumericalFailure,
    ShapeMismatch,
    VerificationFailure,
)
from test_closure import closure_defect

E11 = np.diag([1.0, 0.0]).astype(complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_single_offdiagonal_generates_full_matrix_algebra():
    """e12 together with its adjoint and products spans all of the 2x2
    matrices; the recovered unit is the identity."""
    a = generate_algebra(2, [E12])
    assert a.dim == 4
    np.testing.assert_allclose(a.unit, np.eye(2), atol=1e-12)
    assert a.contains(np.array([[1.0, 2.0], [3.0 - 1.0j, 4.0]]))
    assert closure_defect(a.basis) <= 1e-12


def test_doubled_copy_generates_four_dimensional_algebra():
    # block-diagonal pair of equal 2x2 blocks: {x (+) x}
    gen = np.kron(np.eye(2), E12)
    a = generate_algebra(4, [gen])
    assert a.dim == 4
    np.testing.assert_allclose(a.unit, np.eye(4), atol=1e-12)
    # x (+) y with x != y must stay outside
    outside = np.zeros((4, 4), dtype=complex)
    outside[0, 1] = 1.0
    assert not a.contains(outside)


def test_diagonal_algebra():
    gens = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    a = generate_algebra(3, gens)
    assert a.dim == 3
    np.testing.assert_allclose(a.unit, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("eps, outcome", [
    (1e-2, 18), (1e-4, 18), (1e-6, 18),
    (3e-7, GapNotFound), (2e-7, GapNotFound), (1.5e-7, VerificationFailure),
    (5e-8, 9), (1e-9, 9), (1e-12, 9),
])
def test_small_generator_parts_are_kept_refused_or_dropped(eps, outcome):
    """``x (+) eps y`` and ``y (+) eps x`` generate ``M3 (+) M3`` for every
    ``eps > 0``.  Closing their span kept the ``eps`` parts down to
    ``tol.rank`` and closed past the algebra, to 24 or 27 for ``eps``
    from 1e-4 to 1e-9.  Read off the decomposition, a part is kept from
    about 5e-7 of the largest generator up; below ``tol.composite`` it is
    dropped within that bound, leaving ``M3 (+) 0``; in between it is
    refused with a typed error, as the unit's cut finds no gap or the
    generators miss the block form by more than ``tol.composite``."""
    rng = np.random.default_rng(0)
    x, y = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
    top, bottom = np.eye(6)[:, :3], np.eye(6)[:, 3:]

    def direct_sum(a, b):
        return top @ a @ top.T + bottom @ b @ bottom.T

    gens = [direct_sum(x, eps * y), direct_sum(y, eps * x)]
    if isinstance(outcome, int):
        a = generate_algebra(6, gens)
        assert a.dim == outcome
        assert a.contains(direct_sum(x, eps * y) if outcome == 18 else direct_sum(x, 0 * y))
    else:
        with pytest.raises(outcome):
            generate_algebra(6, gens)


def test_from_span_validates_closure():
    with pytest.raises(ClosureViolation):
        StarAlgebra.from_span([E12], 2)


def test_unit_of_proper_corner():
    """The unit of span{e11} is e11 itself, not the ambient identity."""
    a = generate_algebra(2, [E11])
    assert a.dim == 1
    np.testing.assert_allclose(unit_of(a), E11, atol=1e-12)


def test_unitize_adds_ambient_identity():
    a = generate_algebra(2, [E11])
    u = unitize(a)
    assert u.dim == 2
    np.testing.assert_allclose(u.unit, np.eye(2), atol=1e-12)
    # unitizing a unital algebra is a no-op
    full = generate_algebra(2, [E12])
    assert unitize(full).dim == full.dim


def test_center_oracles():
    full = generate_algebra(2, [E12])
    assert center(full).dim == 1
    doubled = generate_algebra(4, [np.kron(np.eye(2), E12)])
    assert center(doubled).dim == 1
    diag = generate_algebra(
        3, [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    )
    assert center(diag).dim == 3


def test_center_of_an_imaginary_basis():
    """Every basis element of M2 times i has a traceless Hermitian part, so
    a real combination of those parts averages to zero; the span of
    ``i E_ij`` is still M2, with the one-dimensional center."""
    rotated = StarAlgebra.from_span([1j * m for m in np.eye(4).reshape(4, 2, 2)])
    assert rotated.dim == 4
    assert center(rotated).dim == 1


def test_center_that_fails_to_commute_raises():
    """The central projections of the blocks are checked against the
    generating family: with two size-one blocks on ``e_1`` and ``e_2`` but
    the family of M2, ``diag(1, 0)`` is not central, and the commutator
    check fails and names the residual and the bound."""
    e1, e2 = np.eye(2, dtype=complex)
    split = StarAlgebra(2, [e1[None, :, None], e2[None, :, None]],
                        family=generate_algebra(2, [E12]).family)
    with pytest.raises(NumericalFailure, match=r"residual .*, bound 1\.000e-08"):
        center(split)


def test_center_uses_callers_tolerance():
    alg = planted_block_algebra([2, 1], [1, 2], seed=6).algebra
    assert center(alg).dim == 2
    with pytest.raises(CStarError):
        center(alg, tol=replace(DEFAULT_TOL, member=1e-30))


def test_center_of_planted_algebras_counts_blocks():
    rng = np.random.default_rng(23)
    for trial in range(8):
        k = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 4)) for _ in range(k)]
        mults = [int(rng.integers(1, 3)) for _ in range(k)]
        planted = planted_block_algebra(sizes, mults, seed=100 + trial)
        z = center(planted.algebra)
        assert z.dim == k
        np.testing.assert_allclose(z.unit, planted.algebra.unit, atol=1e-12)
        # central elements commute with every basis element
        for c in z.basis.matrices:
            for b in planted.algebra.basis.matrices:
                assert np.linalg.norm(c @ b - b @ c) <= 1e-8


def test_require_member_errors():
    a = generate_algebra(2, [E11])
    with pytest.raises(ShapeMismatch):
        a.require_member(np.eye(3))
    with pytest.raises(NotInAlgebra):
        a.require_member(E12)


def test_samplers_stay_inside_algebra():
    planted = planted_block_algebra([2, 1], [1, 2], seed=5)
    a = planted.algebra
    rng = np.random.default_rng(77)
    for _ in range(10):
        s = sample_self_adjoint(a, rng)
        x = sample_element(a, rng)
        assert a.contains(s)
        assert a.contains(x)
        np.testing.assert_allclose(s, s.conj().T, atol=1e-12)


def test_generated_algebra_closure_random():
    """Products and adjoints of random members stay in the span."""
    rng = np.random.default_rng(41)
    for trial in range(6):
        n = int(rng.integers(2, 5))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = generate_algebra(n, [g])
        x = sample_element(a, rng)
        y = sample_element(a, rng)
        assert a.contains(x @ y)
        assert a.contains(x.conj().T)
        assert closure_defect(a.basis) <= 1e-10
