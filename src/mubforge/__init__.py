"""Symmetric mutually unbiased bases from anticommuting generators, with
min-entropy bounds, brute-force extrema and discrete Wigner analysis.

`import mubforge` runs pauli, transform, classes and mub. entropy and
wigner are registered in sys.modules through importlib's LazyLoader: each
is compiled and run on its first attribute access, so a command that never
calls them (`generate`) never compiles them. The names re-exported from
those two are served by the module `__getattr__` below.
"""

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
from .transform import CycleSpec, conjugate_term, cycle_unitary


def _lazy(name):
    """Put the submodule `name` in sys.modules unrun; it runs on first use."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


entropy = _lazy("entropy")
wigner = _lazy("wigner")

_SERVED = {
    name: entropy
    for name in (
        "BoundSet",
        "avg_entropy",
        "bounds",
        "hermitian_eigmax",
        "minimize_avg_entropy",
        "pvec_operator",
        "renyi_entropy",
        "sweep_max_eigen",
    )
} | {name: wigner for name in ("GF", "point_operator", "wigner_entropy_bound")}


def __getattr__(name):
    if name in _SERVED:
        return getattr(_SERVED[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SERVED))


__all__ = [
    "BoundSet",
    "Basis",
    "CommutingClass",
    "CycleSpec",
    "GF",
    "GammaSet",
    "MubSet",
    "Partition",
    "PauliTerm",
    "ValidationReport",
    "avg_entropy",
    "bounds",
    "build_classes_2n1",
    "build_classes_Ln",
    "build_gamma_generators",
    "build_mub_set",
    "common_eigenbasis",
    "commutes",
    "conjugate_term",
    "cycle_unitary",
    "fixture_d4",
    "gamma_product",
    "hermitian_eigmax",
    "minimize_avg_entropy",
    "multiply",
    "point_operator",
    "pvec_operator",
    "renyi_entropy",
    "sweep_max_eigen",
    "to_dense",
    "validate_partition",
    "verify_cycle",
    "wigner_entropy_bound",
]
