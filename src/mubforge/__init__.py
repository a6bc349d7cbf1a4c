"""Symmetric mutually unbiased bases from anticommuting generators, with
min-entropy bounds, brute-force extrema and discrete Wigner analysis.

`import mubforge` runs pauli, classes and mub. transform, selector, entropy
and wigner are registered in sys.modules through importlib's LazyLoader:
each is compiled and run on its first attribute access, so a command runs
only the modules it calls. `generate` runs transform alone; `wigner` on a
spread set (n >= 3) runs selector and wigner, and never entropy, whose
sweeps and minimizer it does not call, or transform, since a spread has no
cycle spec. The names re-exported from the lazy modules are served by the
module `__getattr__` below.
"""

__version__ = "0.1.0"


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


# classes and mub reach transform as a module, so it is registered first
transform = _lazy("transform")

from .classes import (  # noqa: E402
    CommutingClass,
    Partition,
    ValidationReport,
    build_classes_2n1,
    build_classes_Ln,
    fixture_d4,
    validate_partition,
)
from .mub import (  # noqa: E402
    Basis,
    MubSet,
    build_mub_set,
    common_eigenbasis,
    verify_cycle,
)
from .pauli import (  # noqa: E402
    GammaSet,
    PauliTerm,
    build_gamma_generators,
    commutes,
    gamma_product,
    multiply,
    to_dense,
)

selector = _lazy("selector")
entropy = _lazy("entropy")
wigner = _lazy("wigner")

_SERVED = {
    name: module
    for module, names in (
        (transform, ("CycleSpec", "conjugate_term", "cycle_unitary")),
        (selector, ("hermitian_eigmax", "pvec_operator")),
        (
            entropy,
            (
                "BoundSet",
                "avg_entropy",
                "bounds",
                "minimize_avg_entropy",
                "renyi_entropy",
                "sweep_max_eigen",
            ),
        ),
        (wigner, ("GF", "point_operator", "wigner_entropy_bound")),
    )
    for name in names
}


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
