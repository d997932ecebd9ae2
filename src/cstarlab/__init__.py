"""Structure theory of finite-dimensional matrix *-algebras, their
finitely generated right ideals, and ternary rings of operators.

The three pillars:

- every finitely generated right ideal is singly generated by a
  projection, produced constructively with a verifiable certificate
  (:func:`projection_generator`);
- every algebra decomposes into full matrix blocks with multiplicities,
  realized by an explicit unitary (:func:`wedderburn_decompose`), also
  read off its generators without forming its span
  (:func:`decompose_generators`);
- every TRO is a direct sum of rectangular matrix blocks, with its
  submodule lattice mirrored in the right ideals of its left algebra
  (:func:`classify_tro`, :func:`submodule_ideal_roundtrip`).
"""

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    CStarError,
    ClosureViolation,
    CoefficientSolveFailed,
    DegenerateRandomness,
    GapNotFound,
    MembershipViolation,
    NotAProjection,
    NotInAlgebra,
    NotProper,
    NotSelfAdjoint,
    NotUnital,
    NumericalFailure,
    ParamError,
    ParseError,
    ShapeMismatch,
    VerificationFailure,
    ZeroSubmodule,
)
from .linalg import (
    SpectralDecomposition,
    Subspace,
    hermitian_eig,
    orthonormalize,
)
from .algebra import (
    StarAlgebra,
    center,
    generate_algebra,
    unit_of,
    unitize,
)
from .ideals import (
    ProjectionCertificate,
    RightIdeal,
    generate_right_ideal,
    is_maximal_right_ideal,
    is_minimal_projection,
    projection_generator,
    support_projection,
)
from .structure import (
    BlockDecomposition,
    UnitPartition,
    corner_dimension,
    decompose_generators,
    minimal_projection_below,
    socle,
    unit_partition_certificate,
    verify_dales_zelazko,
    wedderburn_decompose,
)
from .tro import (
    TRO,
    ModuleGenerationCertificate,
    Submodule,
    TROClassification,
    classify_tro,
    finite_generation_certificate,
    generate_submodule,
    generate_tro,
    is_maximal_submodule,
    submodule_ideal_roundtrip,
    tro_from_span,
)
from .instances import (
    PlantedAlgebra,
    PlantedTRO,
    haar_unitary,
    planted_block_algebra,
    planted_block_tro,
)

__version__ = "0.1.0"
