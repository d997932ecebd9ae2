"""Tests for ``errors.check``, the one comparison of a residual with its
bound that every certificate ends in."""

import numpy as np
import pytest

from cstarlab.errors import (
    CStarError,
    MembershipViolation,
    NotInAlgebra,
    VerificationFailure,
    check,
)
from cstarlab.instances import planted_block_tro
from cstarlab.tro import generate_submodule


@pytest.mark.parametrize("residual", [0.0, 1e-9, 1e-8])
def test_check_returns_the_residual(residual):
    assert check("identity", residual, 1e-8) is residual


def test_check_raises_the_given_class():
    with pytest.raises(VerificationFailure):
        check("identity", 2.0, 1.0)
    with pytest.raises(NotInAlgebra):
        check("identity", 2.0, 1.0, NotInAlgebra)


def test_check_names_the_identity_the_residual_and_the_bound():
    with pytest.raises(CStarError) as info:
        check("x is not in the span", 1.5e-3, 1e-8, MembershipViolation)
    assert str(info.value) == "x is not in the span (residual 1.500e-03, bound 1.000e-08)"


@pytest.mark.parametrize("residual, bound", [
    (float("nan"), 1.0),
    (np.float64("nan"), 1.0),
    (0.0, float("nan")),
    (float("inf"), 1.0),
])
def test_check_never_passes_nan_or_an_exceeded_bound(residual, bound):
    with pytest.raises(VerificationFailure, match="nan|inf"):
        check("identity", residual, bound)


def test_a_huge_generator_outside_the_tro_is_refused():
    """At 1e300 the relative residual of a generator once came out as
    inf / inf = nan, which ``residual > bound`` let pass: the generator
    was accepted and spanned a zero submodule."""
    tro = planted_block_tro([(2, 2), (1, 1)], seed=0).tro
    x = np.random.default_rng(0).standard_normal(tro.basis.shape).astype(complex)
    assert tro.basis.residual(x) > 0.1
    with pytest.raises(MembershipViolation):
        generate_submodule(tro, [1e300 * x])
