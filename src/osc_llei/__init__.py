"""Exponential integrators for highly oscillatory ODEs via local linear
extension: lift the state to a truncated monomial basis where the
dynamics are linear, advance with one matrix exponential per step, and
project back.  Includes the multi-index catalog machinery, the extension
matrix builders, the stepping scheme, derivative oracles (JetOracle
for any F(u, t) written with + - * /, ** and sin, cos, exp, and
PolynomialOracle, a JetOracle on monomial terms), an RK4 reference
solver, a convergence-study harness, and structural validation checks.
"""

from .algebra_checks import CheckResult, random_imaginary_system, run_suite
from .extension import build_A0, build_A1, build_S, lift
from .harness import (
    ACCURACY_FLOOR,
    ErrorReport,
    ErrorValues,
    SweepPoint,
    Thresholds,
    fit_order,
    global_max_error,
    sweep_eps,
    sweep_h,
    thresholds,
)
from .llei import BlowUpError, Trajectory, integrate, step
from .mindex import (
    MultiIndexCatalog,
    build_catalog,
    gamma,
    remove_component,
    representative,
)
from .refsolve import rk4_integrate
from .sysdef import (
    ConfigError,
    DerivativeOracle,
    JetOracle,
    OscillatorySystem,
    PolynomialOracle,
    SpectrumWarning,
    augment,
    builtin,
    load_config,
    load_config_file,
    second_order_to_first_order,
)

__version__ = "0.1.0"

__all__ = [
    "ACCURACY_FLOOR",
    "BlowUpError",
    "CheckResult",
    "ConfigError",
    "DerivativeOracle",
    "ErrorReport",
    "ErrorValues",
    "JetOracle",
    "MultiIndexCatalog",
    "OscillatorySystem",
    "PolynomialOracle",
    "SpectrumWarning",
    "SweepPoint",
    "Thresholds",
    "Trajectory",
    "augment",
    "build_A0",
    "build_A1",
    "build_S",
    "build_catalog",
    "builtin",
    "fit_order",
    "gamma",
    "global_max_error",
    "integrate",
    "lift",
    "load_config",
    "load_config_file",
    "random_imaginary_system",
    "remove_component",
    "representative",
    "rk4_integrate",
    "run_suite",
    "second_order_to_first_order",
    "step",
    "sweep_eps",
    "sweep_h",
    "thresholds",
]
