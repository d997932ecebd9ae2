"""Algebras and TROs from their generators against the all-pairs and
all-triples loops.

``generate_algebra`` reads an algebra off the block decomposition of its
generators, and ``generate_tro`` reads a TRO off the block decomposition
of its linking algebra; neither closes a span.  The references below are
the closure loops they replaced: every round offers ``grow_span`` all
pairwise products and adjoints of the basis (algebras) or all triple
products ``x y* z`` (TROs), until a round adds nothing.  Both must give
the same span.
"""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cstarlab.algebra as algebra_mod
import cstarlab.linalg as linalg_mod
import cstarlab.structure as structure_mod
from cstarlab import (
    StarAlgebra,
    classify_tro,
    finite_generation_certificate,
    generate_algebra,
    generate_right_ideal,
    generate_submodule,
    generate_tro,
    is_maximal_submodule,
    minimal_projection_below,
    submodule_ideal_roundtrip,
    tro_from_span,
)
from cstarlab.algebra import sample_element
from cstarlab.config import DEFAULT_TOL
from cstarlab.errors import ClosureViolation, DegenerateRandomness, VerificationFailure
from cstarlab.instances import (
    haar_unitary,
    planted_block_algebra,
    planted_block_tro,
    random_block_structure,
    random_projection,
    random_tro_blocks,
)
from cstarlab.linalg import Subspace, grow_span, hs_norm, module_defect, orthonormalize
from cstarlab.tro import Submodule

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
SPAN_TOL = 1e-12
# A TRO generated by one element x is span{x (x* x)^k}, which the closure
# reaches as a Krylov sequence, one dimension per round, and forward errors
# grow with each round: where singular values of x nearly coincide the span
# can sit 3e-11 from the exact one, against 8e-13 for the all-triples loop,
# which needs fewer rounds.  Both stay far inside the membership tolerance.
KRYLOV_SPAN_TOL = 1e-10
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def all_products_closure(gens, shape, products):
    """Reference: grow the span of ``gens`` by ``products(basis)`` until a
    round adds nothing."""
    r, c = shape
    stack = np.zeros((0, r * c), dtype=np.complex128)
    if len(gens):
        stack, _ = grow_span(stack, np.array([g.ravel() for g in gens]), tol=DEFAULT_TOL)
    for _ in range(r * c + 1):
        if not stack.shape[0]:
            break
        stack, grew = grow_span(stack, products(stack.reshape(-1, r, c)), tol=DEFAULT_TOL)
        if not grew:
            break
    return Subspace(r, c, stack)


def all_pairs(mats):
    n = mats.shape[1]
    prods = (mats[:, None] @ mats[None]).reshape(-1, n * n)
    return np.vstack([prods, mats.conj().transpose(0, 2, 1).reshape(-1, n * n)])


def closure_defect(space):
    """Largest residual of the basis products and adjoints against an
    algebra's span: the all-pairs check of closedness."""
    return space.max_relative_residual(all_pairs(space.matrices))


def all_triples(mats):
    m, n = mats.shape[1:]
    left = mats[:, None] @ mats.conj().transpose(0, 2, 1)[None]
    return (left.reshape(-1, m, m)[:, None] @ mats[None]).reshape(-1, m * n)


def algebra_generators(kind, seed):
    """``(N, generators)`` for one case of the algebra closure tests."""
    rng = np.random.default_rng(seed)
    if kind == "e12":
        return 2, [E12]
    if kind == "none":
        return 3, []
    if kind == "zero":
        return 3, [np.zeros((3, 3), dtype=complex)] * 2
    sizes, mults = random_block_structure(rng, max_ambient=8)
    planted = planted_block_algebra(sizes, mults, seed=seed)
    n = planted.algebra.ambient_dim
    if kind == "basis":
        return n, list(planted.algebra.basis.matrices)
    count = int(rng.integers(1, 4))
    return n, [sample_element(planted.algebra, rng) for _ in range(count)]


def tro_generators(kind, seed):
    rng = np.random.default_rng(seed)
    tro = planted_block_tro(random_tro_blocks(rng, max_total=14), seed=seed).tro
    if kind == "basis":
        return tro.basis.shape, list(tro.basis.matrices)
    count = int(rng.integers(1, 4))
    return tro.basis.shape, [sample_element(tro, rng) for _ in range(count)]


def assert_same_algebra(n, gens):
    alg = generate_algebra(n, gens)
    ref = all_products_closure(gens, (n, n), all_pairs)
    assert alg.basis.distance(ref) <= SPAN_TOL
    assert closure_defect(alg.basis) <= DEFAULT_TOL.member


def assert_same_tro(shape, gens):
    tro = generate_tro(*shape, gens)
    ref = all_products_closure(gens, shape, all_triples)
    assert tro.basis.distance(ref) <= (KRYLOV_SPAN_TOL if len(gens) == 1 else SPAN_TOL)
    tro_from_span(list(tro.basis.matrices), shape=shape)  # raises unless closed


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.sampled_from(["basis", "elements", "e12", "none", "zero"]), SEEDS)
def test_algebra_closure_matches_all_pairs(kind, seed):
    assert_same_algebra(*algebra_generators(kind, seed))


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.sampled_from(["basis", "elements"]), SEEDS)
def test_tro_closure_matches_all_triples(kind, seed):
    assert_same_tro(*tro_generators(kind, seed))


real_polynomial = structure_mod._polynomial


def first_generator_only(family, unit, rng):
    """The seeded polynomial of the decomposition in the first generator
    alone."""
    return real_polynomial(family[:1], unit, rng)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.sampled_from(["basis", "elements"]), SEEDS)
def test_draws_from_the_first_generator_are_refused_or_reach_every_generator(kind, seed):
    """With draws that generate too little, the certificate's check that
    every generator lies in the algebra the draws generate refuses the
    decomposition: the result is the closure of all the generators, or a
    typed error exactly when the first generator alone generates less."""
    n, gens = algebra_generators(kind, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure_mod, "_polynomial", first_generator_only)
        try:
            alg = generate_algebra(n, gens)
        except (VerificationFailure, DegenerateRandomness):
            alg = None
    ref = all_products_closure(gens, (n, n), all_pairs)
    if all_products_closure(gens[:1], (n, n), all_pairs).dim < ref.dim:
        assert alg is None
    else:
        assert alg is not None and alg.basis.distance(ref) <= SPAN_TOL


def test_two_generator_algebra_grows_no_span():
    """At N=48 (dimension 136) the algebra is read off the decomposition
    of two sample elements: no span is grown, its basis is the matrix
    units and its family the two certified draws.  A span given as closed
    is orthonormalized once and decomposed the same way."""
    planted = planted_block_algebra([8, 6, 4, 4, 2], [2, 2, 2, 2, 2], seed=1)
    rng = np.random.default_rng(2)
    gens = [sample_element(planted.algebra, rng) for _ in range(2)]
    calls = []
    real_grow_span, real_orthonormalize = linalg_mod.grow_span, algebra_mod.orthonormalize

    def counting_grow_span(stack, candidates, tol):
        calls.append("grow_span")
        return real_grow_span(stack, candidates, tol=tol)

    def counting_orthonormalize(mats, tol, shape):
        calls.append("orthonormalize")
        return real_orthonormalize(mats, tol=tol, shape=shape)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg_mod, "grow_span", counting_grow_span)
        alg = generate_algebra(48, gens)
        assert calls == []
        mp.setattr(algebra_mod, "orthonormalize", counting_orthonormalize)
        given_closed = StarAlgebra.from_span(list(alg.basis.matrices))
    assert calls == ["orthonormalize", "grow_span"]
    assert alg.dim == planted.algebra.dim == 136
    assert len(alg.family) == len(given_closed.family) == 2
    assert given_closed.basis.distance(alg.basis) <= SPAN_TOL
    assert hs_norm(given_closed.unit - planted.algebra.unit) <= DEFAULT_TOL.member


def test_tro_constructors_close_no_span():
    """``generate_tro``, ``tro_from_span``, ``classify_tro`` and
    ``planted_block_tro`` read the TRO off the block decomposition of its
    linking algebra, and the library has no closure routine left for them
    to call (``test_hygiene``): they recover the planted blocks."""
    planted = planted_block_tro([(3, 4), (2, 2), (1, 3)], seed=5).tro
    gens = list(planted.basis.matrices)
    generated = generate_tro(*planted.basis.shape, gens)
    given_closed = tro_from_span(gens)
    for tro in (planted, generated, given_closed):
        assert sorted(classify_tro(tro).blocks) == [(1, 3), (2, 2), (3, 4)]
    for tro in (generated, given_closed):
        assert tro.basis.distance(planted.basis) <= SPAN_TOL


def test_submodules_close_no_span():
    """``generate_submodule``, ``submodule_ideal_roundtrip``,
    ``is_maximal_submodule`` and ``finite_generation_certificate`` read
    ``W = pZ`` and ``J = pL`` off the TRO's blocks: none of them saturates
    a span, spans rows or takes a corner trace, under any module's binding,
    for a generated submodule, one built by hand and another tolerance."""
    planted = planted_block_tro([(3, 4), (2, 2), (1, 3)], seed=5).tro
    left = planted.left_algebra
    e = minimal_projection_below(left, left.unit, seed=5)
    gens = list((left.unit - e) @ planted.basis.matrices)
    loose = dataclasses.replace(DEFAULT_TOL, member=2e-8)

    def refuse(*args, **kwargs):
        raise AssertionError("the submodule path formed a span")

    with pytest.MonkeyPatch.context() as mp:
        for name_, module in list(sys.modules.items()):
            if name_.startswith("cstarlab"):
                for name in ("right_module_span", "span_rows", "_corner_space"):
                    if hasattr(module, name):
                        mp.setattr(module, name, refuse)
        w = generate_submodule(planted, gens)
        by_hand = Submodule(parent=planted, generators=[], basis=w.basis)
        for sub in (w, by_hand):
            assert is_maximal_submodule(planted, sub)
            for tol in (DEFAULT_TOL, loose):
                ideal, report = submodule_ideal_roundtrip(planted, sub, tol=tol)
                assert report["ok"] and 0 < ideal.dim < left.dim
                cert = finite_generation_certificate(sub, tol=tol)
                assert max(cert.residuals.values()) <= tol.composite


# (size, multiplicity) pairs, occupied rank at most 16
PLANTED_BLOCKS = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=3
).filter(lambda blocks: sum(n * m for n, m in blocks) <= 16)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(PLANTED_BLOCKS, st.integers(0, 2), SEEDS)
@example([(1, 1), (1, 4)], 0, 0)
def test_a_planted_family_generates_the_planted_algebra(blocks, pad, seed):
    """The family a planted algebra is written down with closes to the
    planted span, padded ambient or not.  Sizes [1, 1] with multiplicities
    [1, 4] are the case a ``D`` built from the scaled units would not
    separate: both blocks would get eigenvalue 1, and the closure would be
    the one-dimensional span of the unit."""
    sizes = [n for n, _ in blocks]
    mults = [m for _, m in blocks]
    occupied = sum(n * m for n, m in blocks)
    planted = planted_block_algebra(sizes, mults, ambient_dim=occupied + pad, seed=seed).algebra
    closed = generate_algebra(planted.ambient_dim, list(planted.family))
    assert len(planted.family) <= 3
    assert closed.dim == planted.dim
    assert closed.basis.distance(planted.basis) <= SPAN_TOL


def non_ideal_near(alg, rng, offset):
    """A proper right ideal of ``alg`` and the span of its basis with one
    element moved by ``offset`` out of the ideal, inside the algebra."""
    p = random_projection(alg, rng)
    ideal = generate_right_ideal(alg, [p @ sample_element(alg, rng)])
    outside = sample_element(alg, rng).ravel()
    outside -= (outside @ ideal.basis.stack.conj().T) @ ideal.basis.stack
    moved = ideal.basis.stack.copy()
    moved[0] += offset * outside / np.linalg.norm(outside)
    return ideal, orthonormalize(list(moved.reshape(-1, *ideal.basis.shape)))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_right_module_verdict_ignores_the_scale_of_the_algebra_generators(scale):
    """The family is kept at unit norm, so the ``max(1, ||row||)`` floor
    of the residual does not loosen the check on small generators.  The
    defect is taken against the algebra's orthonormal basis, not its
    two-draw family, so how far the moved span falls from closed does
    not depend on the seed of the draws."""
    planted = planted_block_algebra([3, 2], [1, 2], seed=5)
    rng = np.random.default_rng(6)
    gens = [scale * sample_element(planted.algebra, rng) for _ in range(2)]
    alg = generate_algebra(planted.algebra.ambient_dim, gens)
    ideal, moved = non_ideal_near(alg, np.random.default_rng(7), 1e-4)
    assert 0 < ideal.dim < alg.dim
    assert module_defect(ideal.basis, alg.basis.matrices, right=True) <= DEFAULT_TOL.member
    assert module_defect(moved, alg.basis.matrices, right=True) > 1e3 * DEFAULT_TOL.member


# ---------------------------------------------------------------------------
# closure verdicts of from_span and tro_from_span: a span is accepted exactly
# when closing it adds no direction


KINDS = st.sampled_from(["algebra", "tro"])
REFERENCE = {"algebra": all_pairs, "tro": all_triples}


def from_span(kind, mats, shape):
    if kind == "algebra":
        return StarAlgebra.from_span(mats, ambient_dim=shape[0])
    return tro_from_span(mats, shape=shape)


def planted_instance(kind, rng, seed, room=False):
    """The planted orthonormal basis of a random algebra or TRO; with
    ``room`` it leaves part of the ambient space outside the span (a kernel
    for algebras, one more 1x1 block for TROs)."""
    if kind == "algebra":
        sizes, mults = random_block_structure(rng, max_ambient=8)
        occupied = sum(n * m for n, m in zip(sizes, mults))
        return planted_block_algebra(
            sizes, mults, ambient_dim=occupied + room, seed=seed
        ).algebra
    blocks = random_tro_blocks(rng, max_total=14) + [(1, 1)] * room
    return planted_block_tro(blocks, seed=seed).tro


@settings(max_examples=30, derandomize=True, deadline=None)
@given(KINDS, SEEDS, st.floats(-6.0, 6.0))
def test_closed_spans_are_accepted_in_any_basis_and_scale(kind, seed, log_scale):
    rng = np.random.default_rng(seed)
    planted = planted_instance(kind, rng, seed)
    space = planted.basis
    rotated = haar_unitary(space.dim, rng) @ space.stack
    for stack in (space.stack, 10.0 ** log_scale * rotated):
        built = from_span(kind, list(stack.reshape(-1, *space.shape)), space.shape)
        assert built.basis.distance(space) <= SPAN_TOL
    if kind == "algebra":
        assert hs_norm(built.unit - planted.unit) <= DEFAULT_TOL.member
        assert built.family is not None


@settings(max_examples=30, derandomize=True, deadline=None)
@given(KINDS, SEEDS, st.integers(0, 2**16))
def test_a_perturbed_element_is_refused(kind, seed, pick):
    """One basis element moved by 1e-6 of its norm out of the span."""
    rng = np.random.default_rng(seed)
    space = planted_instance(kind, rng, seed, room=True).basis
    outside = rng.standard_normal(space.stack.shape[1]) + 1j * rng.standard_normal(
        space.stack.shape[1]
    )
    outside -= (outside @ space.stack.conj().T) @ space.stack
    moved = space.stack.copy()
    moved[pick % space.dim] += 1e-6 * outside / np.linalg.norm(outside)
    with pytest.raises(ClosureViolation):
        from_span(kind, list(moved.reshape(-1, *space.shape)), space.shape)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(KINDS, SEEDS, st.integers(0, 2**16))
def test_a_dropped_element_is_refused_unless_the_rest_is_closed(kind, seed, pick):
    """Dropping a planted basis element leaves a closed span only when it
    was a whole 1x1 block; the all-products loop decides which."""
    rng = np.random.default_rng(seed)
    space = planted_instance(kind, rng, seed).basis
    rest = list(np.delete(space.matrices, pick % space.dim, axis=0))
    if all_products_closure(rest, space.shape, REFERENCE[kind]).dim == len(rest):
        assert from_span(kind, rest, space.shape).dim == len(rest)
    else:
        with pytest.raises(ClosureViolation):
            from_span(kind, rest, space.shape)
