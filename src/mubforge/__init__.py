"""Symmetric mutually unbiased bases from anticommuting generators, with
min-entropy bounds, brute-force extrema and discrete Wigner analysis."""

__version__ = "0.1.0"

from .classes import (
    CommutingClass,
    Partition,
    ValidationReport,
    build_classes_2n1,
    build_classes_Ln,
    fixture_d4,
    validate_partition,
)
from .entropy import (
    BoundSet,
    avg_entropy,
    bounds,
    hermitian_eigmax,
    minimize_avg_entropy,
    pvec_operator,
    renyi_entropy,
    sweep_max_eigen,
)
from .mub import (
    Basis,
    MubSet,
    build_mub_set,
    common_eigenbasis,
    verify_cycle,
)
from .pauli import (
    GammaSet,
    PauliTerm,
    build_gamma_generators,
    commutes,
    gamma_product,
    multiply,
    to_dense,
)
from .transform import CycleSpec, conjugate_term, cycle_unitary, rotation_unitary
from .wigner import GF, point_operator, wigner_entropy_bound
