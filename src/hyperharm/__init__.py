"""Hyperbolic-harmonic function machinery on the unit ball: Poisson
kernels, series expansions, invariant differential operators, Hardy-space
functionals, and named verification suites."""

from .config import RunConfig
from .errors import (
    DataFileError,
    HyperharmError,
    OriginSingularity,
    QuadratureFailure,
    TruncationWarning,
    UnsupportedDimension,
)
from .functionals import (
    ConeSpec,
    FunctionalGrid,
    FunctionalResult,
    area_integral,
    cone_max,
    functional_grid,
    littlewood_paley_g,
    radial_max,
    ray_integral_Il,
)
from .geometry import ConeRegion, SphereGrid
from .harmonic import (
    HarmonicFunction,
    ZonalExpansion,
    apply_D,
    apply_L,
    apply_N,
    apply_lap_sigma,
    dilate,
    extend,
    load_boundary_data,
    project_zonal,
    random_zonal,
)
from .kernels import poisson_euclid_rt, poisson_hyp_rt, poisson_hyp_series_rt
from .verify import SUITES, SuiteReport, run_suite, write_reports

__version__ = "0.1.0"

__all__ = [
    "ConeRegion",
    "ConeSpec",
    "DataFileError",
    "FunctionalGrid",
    "FunctionalResult",
    "HarmonicFunction",
    "HyperharmError",
    "OriginSingularity",
    "QuadratureFailure",
    "RunConfig",
    "SUITES",
    "SphereGrid",
    "SuiteReport",
    "TruncationWarning",
    "UnsupportedDimension",
    "ZonalExpansion",
    "apply_D",
    "apply_L",
    "apply_N",
    "apply_lap_sigma",
    "area_integral",
    "cone_max",
    "dilate",
    "extend",
    "functional_grid",
    "littlewood_paley_g",
    "load_boundary_data",
    "poisson_euclid_rt",
    "poisson_hyp_rt",
    "poisson_hyp_series_rt",
    "project_zonal",
    "radial_max",
    "random_zonal",
    "ray_integral_Il",
    "run_suite",
    "write_reports",
    "__version__",
]
