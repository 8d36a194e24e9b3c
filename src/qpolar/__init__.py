"""Exact quasipolar decompositions over commutative local rings.

The package has three layers: exact ring arithmetic (finite fields,
modular integers, p-local rationals, truncated power series), masked
matrix subrings with constructive spectral idempotents, and a
definition-level brute-force oracle over finite carriers used to verify
the constructions exhaustively.
"""

from .rings import (
    InfiniteRing,
    IntegersMod,
    InvalidElement,
    LocalizedIntegers,
    NotAUnit,
    PrimeField,
    QpolarError,
    RingMismatch,
    RingParseError,
    TruncatedSeriesRing,
    parse_ring,
)
from .matrices import (
    L3,
    LOW3,
    M2,
    M3,
    S1,
    S2,
    SHAPES,
    T2,
    T3,
    TN,
    UP3,
    MatrixParseError,
    Shape,
    ShapedMatrix,
    ShapeMismatch,
    UnsupportedShape,
    char_poly_2x2,
    matrix_from_json,
    parse_matrix,
    parse_shape,
)
from .witnesses import (
    QuasipolarWitness,
    RadCleanWitness,
    WitnessInvalid,
    require_valid,
)
from .commutant import (
    NotBleachedInstance,
    check_bleached,
    check_uniquely_bleached,
    solve_commutant,
)
from .triangular import (
    classify_case,
    quasipolar_witness_shape,
    quasipolar_witness_t2,
    quasipolar_witness_t3,
    rad_clean_witness_t3,
    scalar_quasipolar,
    spectral_idempotent_t3,
)
from .m2 import (
    M2Kind,
    NotQuasipolarError,
    PreconditionViolation,
    classify_m2,
    find_root_split,
    quasipolar_witness_m2,
)
from .series import (
    BadSeed,
    ConstantNotQuasipolar,
    NoConstantSplit,
    PivotNotUnit,
    SeriesQuadratic,
    constant_term_matrix,
    lift_root,
    lift_split,
    quasipolar_witness_m2_series,
)
from .oracle import NotIdempotent, get_view
from .sweeps import (
    corner_equivalence_sweep,
    t3_case_sweep,
    t3_rad_clean_sweep,
    uniqueness_sweep,
    zloc_shape_sweep,
)
from .worked_examples import all_examples, example_precision2, example_precision8, verify_example

__version__ = "0.1.0"
