"""Inputs far from norm one: entries near 1e300 or 1e-200, whose squares
overflow or underflow a double.

Every span, membership and rank decision is relative to the scale of its
input, so such inputs must give the structure of the unscaled input,
never a wrong dimension.  A right ideal's Gram element ``b = sum g g*``
is formed from its generators divided by their largest norm, so its
certificate holds at any scale.
"""

import warnings

import numpy as np
import pytest

from cstarlab import generate_algebra, generate_right_ideal, generate_tro, projection_generator
from cstarlab.errors import NotInAlgebra
from cstarlab.linalg import grow_span, hs_norm, safe_norm, span_rows

E11 = np.diag([1.0, 0.0]).astype(complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_safe_norm_is_numpys_norm_on_ordinary_inputs():
    """``np.linalg.norm``'s value, bit for bit and as a numpy float, also
    from ``safe_norm``'s own Frobenius formula on inputs in range: complex
    and real, transposed and strided, of one to three axes."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((7, 12)) + 1j * rng.standard_normal((7, 12))
    assert safe_norm(x) == np.linalg.norm(x)
    for _ in range(300):
        shape = tuple(rng.integers(1, 24, size=rng.integers(1, 4)))
        y = rng.standard_normal(shape) * 10.0 ** rng.uniform(-100, 100)
        if rng.random() < 0.7:
            y = y + 1j * rng.standard_normal(shape) * 10.0 ** rng.uniform(-100, 100)
        if y.ndim > 1 and rng.random() < 0.3:
            y = y.T
        if y.shape[0] > 2 and rng.random() < 0.3:
            y = y[::2]
        expect = np.linalg.norm(y)
        assert safe_norm(y) == expect and type(safe_norm(y)) is type(expect)
    assert np.array_equal(safe_norm(x, axis=1), np.linalg.norm(x, axis=1))
    stack = x.reshape(7, 3, 4)
    assert np.array_equal(safe_norm(stack, axis=(1, 2)), np.linalg.norm(stack, axis=(1, 2)))
    assert safe_norm(np.zeros((2, 2))) == 0.0
    assert safe_norm(np.zeros((0, 4)), axis=1).shape == (0,)


@pytest.mark.parametrize("scale", [1e300, 1e200, 1e-200, 1e-300])
def test_safe_norm_scales_exactly(scale):
    """The rescaled pass gives the norm of entries whose squares leave the
    doubles, and the unscaled pass before it warns of nothing."""
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        np.testing.assert_allclose(safe_norm(scale * x) / scale, np.linalg.norm(x), rtol=1e-14)
        np.testing.assert_allclose(safe_norm(scale * x.real) / scale, np.linalg.norm(x.real),
                                   rtol=1e-14)
    np.testing.assert_allclose(hs_norm(scale * x) / scale, np.linalg.norm(x), rtol=1e-14)


def test_safe_norm_rescales_each_row_on_its_own():
    """A row at 1e300 next to an ordinary row and a zero row: the ordinary
    row keeps its norm bit for bit, rather than vanishing under a common
    rescaling by 1e300."""
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((3, 5)) + 0j
    rows[0] *= 1e300
    rows[2] = 0.0
    norms = safe_norm(rows, axis=1)
    np.testing.assert_allclose(norms[0] / 1e300, np.linalg.norm(rows[0] / 1e300), rtol=1e-14)
    assert norms[1] == np.linalg.norm(rows[1])
    assert norms[2] == 0.0


@pytest.mark.parametrize("scale", [1e300, 1e-200])
def test_span_residuals_at_extreme_scale(scale):
    space = span_rows(np.array([E11.ravel()]), (2, 2))
    np.testing.assert_allclose(space.residual(scale * E12) / scale, 1.0, rtol=1e-14)
    np.testing.assert_allclose(space.row_residuals(scale * E12.reshape(1, 4)) / scale, [1.0])
    stack, grew = grow_span(space.stack, scale * E12.reshape(1, 4))
    assert grew and stack.shape[0] == 2


def test_a_huge_generator_raises_no_runtime_warning():
    """``safe_norm`` rescales the norms that overflow, and its first,
    unscaled pass reports no overflow outside the command line either."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert safe_norm(1e300 * E12) == 1e300
        assert generate_algebra(2, [1e300 * E12]).dim == 4
        assert generate_tro(2, 2, [1e300 * E12]).dim == 1


@pytest.mark.parametrize("scale", [1e300, 1e-200])
def test_algebra_of_a_scaled_generator_is_m2(scale):
    assert generate_algebra(2, [scale * E12]).dim == 4


def test_a_huge_non_member_is_refused():
    """Once ``||x||`` overflowed, the bound ``tol.member * ||x||`` was inf
    and every element passed."""
    with pytest.raises(NotInAlgebra):
        generate_algebra(2, [E11]).require_member(1e160 * E12)


@pytest.mark.parametrize("scale", [1e300, 1e-200])
def test_tro_of_a_scaled_generator_is_one_dimensional(scale):
    assert generate_tro(2, 3, [scale * np.ones((2, 3))]).dim == 1


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_scaled_ideal_generator(scale):
    """The ideal ``E12 M2`` has dimension 2 at any scale, and its
    certificate ``p = E11`` too: ``b`` is formed from the generator divided
    by its norm, so only the reported Gram element (1e400 or 1e-400) and
    its spectral figures leave the doubles."""
    alg = generate_algebra(2, [E12])
    ideal = generate_right_ideal(alg, [scale * E12])
    assert ideal.dim == 2
    cert = projection_generator(alg, ideal.generators)
    assert hs_norm(cert.projection - E11) <= 1e-12
    assert max(cert.residuals.values()) <= 1e-12
    assert cert.threshold == pytest.approx(scale * scale)
    # g c = b^(1/4) = sqrt(scale) E11
    assert hs_norm(scale * E12 @ cert.coefficients[0] / np.sqrt(scale) - E11) <= 1e-12
