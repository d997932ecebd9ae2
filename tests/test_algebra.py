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
    random_self_adjoint,
    unit_of,
    unitize,
)
from cstarlab import algebra as algebra_module
from cstarlab.algebra import _center_coords, sample_element, sample_self_adjoint
from cstarlab.config import DEFAULT_TOL
from cstarlab.errors import ClosureViolation, NotInAlgebra, NumericalFailure, ShapeMismatch
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


def test_center_coords_use_callers_rank_tolerance():
    """The commutant's rank cut follows ``tol.rank``: on M2 the nonzero
    singular values of x -> ([x, diag(1, -1)], [x, E12 + E21]) sit at
    ratios 1, 1/sqrt(2), 1/sqrt(2), so a cut at 0.9 of the largest adds
    the two smaller ones to the one-dimensional center."""
    full = generate_algebra(2, [E12])
    probes = [np.diag([1.0, -1.0]).astype(complex), E12 + E12.T]
    assert _center_coords(full.basis, probes, DEFAULT_TOL).shape == (4, 1)
    loose = replace(DEFAULT_TOL, rank=0.9)
    assert _center_coords(full.basis, probes, loose).shape == (4, 3)


def test_center_that_fails_to_commute_raises(monkeypatch):
    """A candidate is checked against the whole basis: when the solve
    returns the whole coordinate space of M2, the commutator check fails
    and names the residual and the bound."""
    full = generate_algebra(2, [E12])
    monkeypatch.setattr(
        algebra_module,
        "_center_coords",
        lambda space, probes, tol: np.eye(space.dim, dtype=complex),
    )
    with pytest.raises(NumericalFailure, match=r"residual .*, bound 1\.000e-08"):
        center(full)


def test_center_of_planted_algebras_counts_blocks():
    rng = np.random.default_rng(23)
    for trial in range(8):
        k = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 4)) for _ in range(k)]
        mults = [int(rng.integers(1, 3)) for _ in range(k)]
        planted = planted_block_algebra(sizes, mults, seed=100 + trial)
        z = center(planted.algebra)
        assert z.dim == k
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


def test_random_self_adjoint_is_deterministic_member():
    a = generate_algebra(2, [E12])
    x = random_self_adjoint(a, seed=3)
    y = random_self_adjoint(a, seed=3)
    z = random_self_adjoint(a, seed=4)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)
    np.testing.assert_allclose(x, x.conj().T, atol=1e-12)
    assert a.contains(x)


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
