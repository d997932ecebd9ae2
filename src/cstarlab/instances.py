"""Seeded random instances with known ground truth.

Planted algebras are block algebras ``sum_k I_{m_k} (x) M_{n_k}``
embedded at diagonal offsets (optionally padded with an ambient kernel)
and conjugated by a Haar-random unitary, so the block data to recover is
known exactly.  Planted TROs are direct sums of rectangular blocks under
independent left and right Haar rotations.  Everything is driven by
``numpy``'s Generator API; a given seed always produces the same
instance.
"""

import numpy as np
from dataclasses import dataclass

from .config import DEFAULT_TOL
from .errors import ParamError
from .algebra import StarAlgebra, sample_element, sample_self_adjoint
from .ideals import generate_right_ideal
from .linalg import Subspace, cluster_partition, hermitian_eig
from .tro import _tro_from_blocks

__all__ = [
    "haar_unitary",
    "PlantedAlgebra",
    "PlantedTRO",
    "planted_block_algebra",
    "planted_block_tro",
    "random_block_structure",
    "random_tro_blocks",
    "random_projection",
    "random_ideal_generators",
    "random_right_ideal",
]


def haar_unitary(n, rng):
    """Haar-distributed ``n x n`` unitary (QR of a complex Ginibre matrix
    with the phase convention fixed, so the distribution is exact)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


@dataclass(eq=False)
class PlantedAlgebra:
    """A conjugated block algebra plus the data that built it."""

    algebra: StarAlgebra
    block_sizes: list
    multiplicities: list
    conjugator: np.ndarray

    def signature(self):
        """Ground-truth (size, multiplicity) pairs, sorted descending."""
        return sorted(zip(self.block_sizes, self.multiplicities), reverse=True)


@dataclass(eq=False)
class PlantedTRO:
    tro: object
    blocks: list
    left_conjugator: np.ndarray
    right_conjugator: np.ndarray

    def signature(self):
        """Ground-truth (rows, cols) block pairs, sorted descending."""
        return sorted(self.blocks, reverse=True)


def planted_block_algebra(block_sizes, multiplicities, ambient_dim=None, seed=0):
    """Conjugated ``sum_k I_{m_k} (x) M_{n_k}`` with known ground truth.

    Each block's transporters are cut from the Haar unitary's columns at
    the block's offset, and the algebra is those isometry stacks
    (:class:`~cstarlab.algebra.StarAlgebra`), so no closure iteration is
    involved.  ``ambient_dim`` beyond the occupied rank pads the
    algebra with a kernel, making the algebra unit a proper subprojection
    of the ambient identity.
    """
    sizes = [int(n) for n in block_sizes]
    mults = [int(m) for m in multiplicities]
    if len(sizes) != len(mults) or not sizes:
        raise ParamError("need matching nonempty size/multiplicity lists")
    if min(sizes) < 1 or min(mults) < 1:
        raise ParamError("block sizes and multiplicities must be positive")
    occupied = sum(n * m for n, m in zip(sizes, mults))
    n_amb = occupied if ambient_dim is None else int(ambient_dim)
    if n_amb < occupied:
        raise ParamError(
            f"ambient dimension {n_amb} cannot hold occupied rank {occupied}"
        )
    u = haar_unitary(n_amb, np.random.default_rng(seed))
    # block k copies M_{n_k} m_k times at its offset, copy j on the rows
    # off + j n_k + p: the transporter v_p stacks those m_k columns of u
    stacks, off = [], 0
    for n_k, m_k in zip(sizes, mults):
        stacks.append(u[:, off : off + n_k * m_k].reshape(n_amb, m_k, n_k).transpose(2, 0, 1))
        off += n_k * m_k
    return PlantedAlgebra(
        algebra=StarAlgebra(n_amb, stacks),
        block_sizes=sizes,
        multiplicities=mults,
        conjugator=u,
    )


def planted_block_tro(blocks, seed=0, tol=DEFAULT_TOL):
    """Conjugated ``sum_k B(C^{n_k}, C^{m_k})`` with known ground truth.

    Blocks are embedded at diagonal offsets of an ``(sum m_k) x
    (sum n_k)`` ambient rectangle and rotated by independent Haar
    unitaries ``U`` and ``V`` on each side.  The TRO is its blocks, written
    down from the unitaries: block ``k``'s row isometries are its ``m_k``
    columns of ``U`` and its column isometries its ``n_k`` columns of
    ``V`` (:func:`~cstarlab.tro._tro_from_blocks`, which verifies
    nondegeneracy), so no closure is involved.  Its ``basis`` is assigned
    the rotated matrix units ``U E_pq V*``, conjugated densely, so the
    ``random tro`` fixtures keep their bytes.
    """
    blocks = [(int(m), int(n)) for m, n in blocks]
    if not blocks or min(min(b) for b in blocks) < 1:
        raise ParamError("need a nonempty list of positive (rows, cols) blocks")
    m_tot = sum(b[0] for b in blocks)
    n_tot = sum(b[1] for b in blocks)
    rng = np.random.default_rng(seed)
    u = haar_unitary(m_tot, rng)
    v = haar_unitary(n_tot, rng)

    basis = []
    isometries = []
    r_off = c_off = 0
    for m_k, n_k in blocks:
        for p in range(m_k):
            for q in range(n_k):
                mat = np.zeros((m_tot, n_tot), dtype=np.complex128)
                mat[r_off + p, c_off + q] = 1.0
                basis.append(mat)
        isometries.append((u[:, r_off : r_off + m_k].T[:, :, None],
                           v[:, c_off : c_off + n_k].T[:, :, None]))
        r_off += m_k
        c_off += n_k

    conj = u @ np.array(basis) @ v.conj().T
    space = Subspace(m_tot, n_tot, conj.reshape(len(basis), -1))
    tro = _tro_from_blocks(space.shape, isometries, tol)
    tro.basis = space
    return PlantedTRO(
        tro=tro, blocks=blocks, left_conjugator=u, right_conjugator=v
    )


def random_block_structure(rng, max_ambient=12, max_blocks=3, max_size=4, max_mult=2):
    """Random (sizes, multiplicities) lists with occupied rank at most
    ``max_ambient``; rejection-samples until the rank fits."""
    for _ in range(200):
        count = int(rng.integers(1, max_blocks + 1))
        sizes = [int(rng.integers(1, max_size + 1)) for _ in range(count)]
        mults = [int(rng.integers(1, max_mult + 1)) for _ in range(count)]
        if sum(n * m for n, m in zip(sizes, mults)) <= max_ambient:
            return sizes, mults
    return [1], [1]  # pragma: no cover - rejection virtually always succeeds


def random_tro_blocks(rng, max_blocks=3, max_size=4, max_total=16):
    """Random rectangular block list with total dimension capped."""
    for _ in range(200):
        count = int(rng.integers(1, max_blocks + 1))
        blocks = [
            (int(rng.integers(1, max_size + 1)), int(rng.integers(1, max_size + 1)))
            for _ in range(count)
        ]
        if sum(m * n for m, n in blocks) <= max_total:
            return blocks
    return [(1, 1)]  # pragma: no cover


def random_projection(algebra, rng, tol=DEFAULT_TOL):
    """A random projection in the algebra (possibly zero or the unit).

    Squares a random self-adjoint element to get a positive one, then
    projects onto a uniformly chosen cluster of its positive spectrum and
    every cluster above it.
    """
    x = sample_self_adjoint(algebra, rng)
    s = x @ x
    s = 0.5 * (s + s.conj().T)
    dec = hermitian_eig(s, tol=tol)
    clusters, zero = cluster_partition(dec.eigenvalues, tol=tol)
    positive = clusters[zero.stop:]
    if not positive:
        return np.zeros_like(s)
    # a uniformly chosen positive cluster and everything above it
    pick = int(rng.integers(0, len(positive)))
    lo = float(np.min(dec.eigenvalues[positive[pick]]))
    return dec.apply(lambda t: 1.0 if t >= lo else 0.0)


def random_ideal_generators(algebra, n_generators, rng, tol=DEFAULT_TOL):
    """The requested number of random right-ideal generators in the algebra.

    Mixes full random elements (which tend to generate everything) with
    range-restricted ones ``p x`` for a random projection ``p``, so the
    generated ideals cover the whole lattice.  A negative count is refused.
    """
    if n_generators < 0:
        raise ParamError(f"need a non-negative number of generators, got {n_generators}")
    gens = []
    for _ in range(int(n_generators)):
        x = sample_element(algebra, rng)
        if rng.random() < 0.7:
            p = random_projection(algebra, rng, tol=tol)
            x = p @ x
        gens.append(x)
    return gens


def random_right_ideal(algebra, n_generators, rng, tol=DEFAULT_TOL):
    """The right ideal ``pA`` that :func:`random_ideal_generators` generate."""
    gens = random_ideal_generators(algebra, n_generators, rng, tol=tol)
    return generate_right_ideal(algebra, gens, tol=tol)
