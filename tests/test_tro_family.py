"""TRO and right-module spans written down in block coordinates against
the all-pairs spans.

A TRO from :func:`generate_tro` or :func:`planted_block_tro` keeps the
blocks of its linking algebra, and its algebras, its submodules ``W =
pZ`` and their ideals ``pL`` are written down from them; right ideals
and submodules grown from generators (:func:`right_module_span`) take
one round over their algebra's basis and are checked closed under its
family, which for a planted algebra or either algebra of a TRO is the
three elements it is written down with.  The references below are the
all-pairs constructions those replaced: ``span(Z Z*)``, ``span(Z* Z)``,
the ideal ``span(W Z*)``, ``g A^1`` over a basis of the unitization and
the distance from ``e`` to ``span(W W*)``.  Spans must agree to 1e-12 on
planted TROs, whose bases are exact to roundoff.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstarlab import (
    finite_generation_certificate,
    generate_algebra,
    generate_right_ideal,
    generate_submodule,
    generate_tro,
    is_maximal_right_ideal,
    is_maximal_submodule,
    minimal_projection_below,
    planted_block_tro,
    submodule_ideal_roundtrip,
    tro_from_span,
)
from cstarlab.algebra import sample_element, unitize
from cstarlab.config import DEFAULT_TOL
from cstarlab.errors import NotInAlgebra, NotProper, VerificationFailure
from cstarlab.ideals import right_module_span
from cstarlab.instances import (
    planted_block_algebra,
    random_block_structure,
    random_projection,
    random_tro_blocks,
)
from cstarlab.linalg import Subspace, span_rows, support_projection_of_psd
from cstarlab.tro import Submodule, _certify_generation

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
SPAN_TOL = 1e-12
# A TRO from generate_tro is closed over several rounds of products and its
# basis is exact only to about 1e-12: the all-pairs block Z Z* keeps
# singular values up to 5e-12 below its cut.  Products with the exact family
# and with that basis carry the error differently, so on these TROs the two
# constructions of a span agree only to about that level (up to 2.1e-11 over
# 500 sampled TROs and both OpenBLAS kernel sets), as the closure tests
# allow for one-generator TROs.  A right ideal grown under a planted
# algebra's three-element family is reached over several rounds of
# products too: over 300 planted structures (multiplicities up to 4, padded
# ambients, both OpenBLAS kernel sets) it sat up to 8.2e-12 from the
# all-pairs span.
GENERATED_SPAN_TOL = 1e-10
# Closing span(T T*) by generators builds the algebra over several rounds
# of products, and forward errors grow with each round (as for the
# one-generator TROs of test_closure.py): over 600 sampled TROs the closure
# sat up to 3.3e-11 from the spans built in one step.
CLOSURE_TOL = 1e-10
# roundoff by which the WW* bound may undershoot the computed distance
BOUND_SLACK = 1e-14


def family_tro(seed, path):
    """A TRO, its span tolerance and a generator: planted, or generated by two elements of a planted TRO (often a proper
    sub-TRO)."""
    rng = np.random.default_rng(seed)
    planted = planted_block_tro(random_tro_blocks(rng), seed=seed).tro
    if path == "planted":
        return planted, SPAN_TOL, rng
    gens = [sample_element(planted, rng) for _ in range(2)]
    return generate_tro(planted.rows, planted.cols, gens), GENERATED_SPAN_TOL, rng


def maximal_submodule(tro, rng):
    """``(u - e) Z`` for a minimal projection ``e`` of the left algebra."""
    left = tro.left_algebra
    e = minimal_projection_below(left, left.unit, seed=int(rng.integers(2**31)))
    return generate_submodule(tro, list((left.unit - e) @ tro.basis.matrices))


def _left_products(stack, shape, others=None):
    """The flattened products ``x y*`` over the rows ``x`` of ``stack`` and
    ``y`` of ``others`` (``stack`` itself by default)."""
    m, n = shape
    mats = stack.reshape(-1, m, n)
    ys = mats if others is None else others.reshape(-1, m, n)
    return (mats[:, None] @ ys.conj().transpose(0, 2, 1)[None]).reshape(-1, m * m)


def _right_products(stack, shape):
    """The flattened products ``x* y`` over the rows of ``stack``."""
    m, n = shape
    mats = stack.reshape(-1, m, n)
    return (mats.conj().transpose(0, 2, 1)[:, None] @ mats[None]).reshape(-1, n * n)


def left_span(stack, shape, others=None):
    return span_rows(_left_products(stack, shape, others), (shape[0], shape[0]), tol=DEFAULT_TOL)


def all_pairs_module_span(algebra, gens, rows):
    """``span(g a)`` over the ``rows x N`` generators and a basis of the
    unitization: the all-pairs construction of ``g A^1``."""
    n = algebra.ambient_dim
    amats = unitize(algebra).basis.matrices
    gmats = np.array(gens, dtype=np.complex128).reshape(len(gens), rows, n)
    return span_rows((gmats[:, None] @ amats[None]).reshape(-1, rows * n), (rows, n),
                     tol=DEFAULT_TOL)


PATHS = st.sampled_from(["planted", "generated"])


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SEEDS, PATHS)
def test_algebras_match_the_all_pairs_spans(seed, path):
    tro, span_tol, _ = family_tro(seed, path)
    m, n = tro.basis.shape
    left_ref = left_span(tro.basis.stack, (m, n))
    right_ref = span_rows(_right_products(tro.basis.stack, (m, n)), (n, n), tol=DEFAULT_TOL)
    assert tro.left_algebra.basis.distance(left_ref) <= span_tol
    assert tro.right_algebra.basis.distance(right_ref) <= span_tol


@settings(max_examples=15, derandomize=True, deadline=None)
@given(SEEDS, PATHS)
def test_closing_the_algebra_families_gives_the_algebras(seed, path):
    tro, _, _ = family_tro(seed, path)
    for alg in (tro.left_algebra, tro.right_algebra):
        closed = generate_algebra(alg.ambient_dim, list(alg.family))
        assert closed.basis.distance(alg.basis) <= CLOSURE_TOL


def sampled_submodule(tro, rng, kind):
    """A maximal submodule, the submodule one sampled element generates
    (often neither maximal nor the whole TRO), or the zero submodule."""
    if kind == "maximal":
        return maximal_submodule(tro, rng)
    if kind == "sampled":
        return generate_submodule(tro, [sample_element(tro, rng)])
    return generate_submodule(tro, [])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(SEEDS, PATHS, st.sampled_from(["maximal", "sampled", "zero"]))
def test_roundtrip_spans_match_the_all_pairs_spans(seed, path, kind):
    """The ideal ``pL`` read off the support projection is the all-pairs
    ``span(W Z*)``, and maximality read off ``u_L - p`` is the verdict on
    the right ideal that span generates."""
    tro, span_tol, rng = family_tro(seed, path)
    w = sampled_submodule(tro, rng, kind)
    m, n = tro.basis.shape
    ref = left_span(w.basis.stack, (m, n), tro.basis.stack)
    ideal, _ = submodule_ideal_roundtrip(tro, w)
    assert ideal.basis.distance(ref) <= span_tol
    left = tro.left_algebra
    ref_ideal = generate_right_ideal(left, list(ref.matrices))
    if w.dim == tro.dim:
        with pytest.raises(NotProper):
            is_maximal_submodule(tro, w)
        with pytest.raises(NotProper):
            is_maximal_right_ideal(left, ref_ideal)
        return
    assert is_maximal_submodule(tro, w) == is_maximal_right_ideal(left, ref_ideal)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SEEDS, PATHS)
def test_family_grown_submodules_match_the_unitized_path(seed, path):
    tro, span_tol, rng = family_tro(seed, path)
    gens = list(maximal_submodule(tro, rng).basis.matrices[:1])
    gens += [sample_element(tro, rng) for _ in range(int(rng.integers(0, 2)))]
    right = tro.right_algebra
    grown = right_module_span(right, gens, tro.rows)
    assert grown.distance(all_pairs_module_span(right, gens, tro.rows)) <= span_tol


@settings(max_examples=20, derandomize=True, deadline=None)
@given(SEEDS, st.integers(1, 3), PATHS)
def test_family_grown_ideals_match_the_unitized_path(seed, count, path):
    """Over the closure family of a generated algebra, and over the
    three-element family a planted algebra is written down with."""
    rng = np.random.default_rng(seed)
    sizes, mults = random_block_structure(rng, max_ambient=8, max_mult=4)
    alg = planted_block_algebra(sizes, mults, seed=seed).algebra
    if path == "planted":
        assert len(alg.family) <= 3
        span_tol = GENERATED_SPAN_TOL
    else:
        alg = generate_algebra(alg.ambient_dim, list(alg.basis.matrices))
        span_tol = SPAN_TOL
    gens = [random_projection(alg, rng) @ sample_element(alg, rng) for _ in range(count)]
    grown = generate_right_ideal(alg, gens)
    ref = all_pairs_module_span(alg, gens, alg.ambient_dim)
    assert grown.basis.distance(ref) <= span_tol


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SEEDS, PATHS)
def test_the_wwstar_bound_covers_the_distance(seed, path):
    tro, _, rng = family_tro(seed, path)
    w = maximal_submodule(tro, rng)
    if not w.dim:
        return
    cert = finite_generation_certificate(w)
    exact = left_span(w.basis.stack, w.basis.shape).residual(cert.projection)
    assert cert.residuals["projection_in_WWstar"] >= exact - BOUND_SLACK


def test_a_generator_moved_off_the_submodule_is_refused():
    """Moving one z_i by 1e-6 out of W puts e about that far from
    span(W W*); the bound and the membership residual both see it."""
    p = planted_block_tro([(3, 2), (2, 2)], seed=5)
    rng = np.random.default_rng(5)
    w = maximal_submodule(p.tro, rng)
    assert 0 < w.dim < p.tro.dim
    cert = finite_generation_certificate(w)
    zs = np.array(cert.generators)
    away = sample_element(p.tro, rng)
    away = away.ravel() - (away.ravel() @ w.basis.stack.conj().T) @ w.basis.stack
    zs[0] += 1e-6 * away.reshape(zs[0].shape) / np.linalg.norm(away)
    s = np.einsum("aij,akj->ik", w.basis.matrices, w.basis.matrices.conj())
    support = support_projection_of_psd(0.5 * (s + s.conj().T))
    with pytest.raises(VerificationFailure):
        _certify_generation(w.basis, zs, support, DEFAULT_TOL)


@pytest.mark.parametrize("blocks, seed", [
    ([(3, 3), (2, 2)], 1),
    ([(2, 3), (1, 2)], 9),
    ([(4, 1), (1, 4), (2, 2)], 2),
], ids=["3x3,2x2", "2x3,1x2", "4x1,1x4,2x2"])
def test_single_element_submodules_are_refused_exactly_when_not_closed(blocks, seed):
    """``span(z)`` for one basis element ``z`` is a submodule exactly when
    ``z R^1`` is one-dimensional.  The roundtrip checks no closure: ``W``
    in ``Z``, ``p w = w`` and ``dim pZ = dim W`` refuse every ``span(z)``
    that ``right_module_span`` grows, and accept every one it does not."""
    tro = planted_block_tro(blocks, seed=seed).tro
    z = tro.basis
    verdicts = set()
    for row, mat in zip(z.stack, z.matrices):
        closed = right_module_span(tro.right_algebra, [mat], tro.rows).dim == 1
        w = Submodule(parent=tro, generators=[mat], basis=Subspace(z.rows, z.cols, row[None]))
        if closed:
            assert submodule_ideal_roundtrip(tro, w)[1]["ok"]
        else:
            with pytest.raises(VerificationFailure, match="W is not pZ"):
                submodule_ideal_roundtrip(tro, w)
        verdicts.add(closed)
    assert verdicts == ({True, False} if any(b == 1 for _, b in blocks) else {False})


@pytest.mark.parametrize("span", [False, True], ids=["blocks", "span"])
def test_a_submodule_outside_the_tro_is_refused_either_way(span):
    """Refused by a planted TRO, and by the same TRO given as a span, whose
    :attr:`~cstarlab.tro.TRO.blocks` are read off its basis."""
    tro = planted_block_tro([(2, 2), (1, 1)], seed=3).tro
    if span:
        tro = tro_from_span(list(tro.basis.matrices))
    z = tro.basis
    outside = np.ones((1, z.rows * z.cols)) / np.sqrt(z.rows * z.cols)
    w = Submodule(parent=tro, generators=[], basis=Subspace(z.rows, z.cols, outside))
    with pytest.raises(NotInAlgebra):
        submodule_ideal_roundtrip(tro, w)


def test_a_planted_tro_keeps_its_basis():
    """The planted basis is the rotated matrix units, unchanged, so
    ``random tro`` fixtures keep their bytes."""
    blocks = [(2, 3), (1, 2)]
    p = planted_block_tro(blocks, seed=9)
    units = []
    r_off = c_off = 0
    for m_k, n_k in blocks:
        for i in range(m_k):
            for j in range(n_k):
                mat = np.zeros((3, 5), dtype=complex)
                mat[r_off + i, c_off + j] = 1.0
                units.append(mat)
        r_off, c_off = r_off + m_k, c_off + n_k
    planted = p.left_conjugator @ np.array(units) @ p.right_conjugator.conj().T
    assert np.array_equal(p.tro.basis.matrices, planted)


def generated_submodule(tro, rng):
    """The submodule ``p z`` generates, for a random projection ``p`` of the
    left algebra and a sampled element ``z``: often neither zero, maximal
    nor the whole TRO."""
    return [random_projection(tro.left_algebra, rng) @ sample_element(tro, rng)]


@settings(max_examples=50, derandomize=True, deadline=None)
@given(SEEDS, PATHS)
def test_submodules_lie_in_z_and_match_the_saturation_oracle(seed, path):
    """``W = pZ`` is written down from Z's own block units, so it lies in
    Z to roundoff, where growing ``span(g)`` under the right algebra's
    family once put a basis 1.2e-10 off Z; and it is the span that
    saturation grows from the same generators."""
    tro, _, rng = family_tro(seed, path)
    left = tro.left_algebra
    e = minimal_projection_below(left, left.unit, seed=int(rng.integers(2**31)))
    for gens in (list((left.unit - e) @ tro.basis.matrices), generated_submodule(tro, rng)):
        w = generate_submodule(tro, gens)
        assert tro.basis.max_relative_residual(w.basis.stack) <= 1e-13
        oracle = right_module_span(tro.right_algebra, gens, tro.rows)
        assert w.basis.distance(oracle) <= SPAN_TOL
