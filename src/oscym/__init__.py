"""Young measures of piecewise-monotone oscillating functions.

Core objects: MOscillatingFunction (monotone/constant branches over a 1-D
domain), ScalarMeasureRCA (density plus atoms on a compact range), the
empirical pushforward oracle, and set-wise weak-convergence checks.

The modules behind the exported names, and `quadrature`, load on first
use: each is in sys.modules and bound here from the start, but its code
runs only when one of its attributes (or of the names exported from it)
is first read, so `import oscym` imports no numpy, and a command pays only
for what it uses.
"""

import importlib.util
import sys


def _lazy(name: str):
    """The submodule `name`, registered unexecuted: importlib's LazyLoader
    runs it on the first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


convergence, domain, funcspec, measures, quadrature, relaxation, sampling = map(
    _lazy, ("convergence", "domain", "funcspec", "measures", "quadrature", "relaxation",
            "sampling"))

# each exported name and the module that defines it
_HOME = {name: module for module, names in (
    (domain, "Domain1D MOscillatingFunction Piece ValidationReport evaluate "
             "evaluate_many invert_piece inverse_slope validate"),
    (measures, "Atom DensityFunction ScalarMeasureRCA integrate_density integrate_test "
               "is_probability total_slope tv_norm young_density young_measure"),
    (sampling, "Histogram compare_histogram oracle_report pushforward_empirical"),
    (convergence, "BorelTestFamily ConvergenceVerdict DensitySequence "
                  "NonhomogeneousDensityFamily converge_young dieudonne_check "
                  "dieudonne_check_measures homogeneity_check monotone_slope_check "
                  "weak_continuity_check weak_limit_estimate"),
    (relaxation, "bolza_functional gradient_young_measure relaxed_value sawtooth"),
    (funcspec, "parse_spec"),
) for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # PEP 562: an exported name is read from its module, which loads a lazy
    # module on first use
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_HOME[name], name)


def __dir__():
    return sorted({*globals(), *__all__})
