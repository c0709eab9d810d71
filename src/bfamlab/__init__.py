"""bfamlab: a pseudo-spectral laboratory for the b-family shallow-water equation.

The package evolves

    u_t = -u u_x - d/dx (1 - d^2/dx^2)^{-1} ( (b/2) u^2 + ((3-b)/2) u_x^2 )

on a periodic box for any real b, computes Gevrey, Himonas-Misiolek, and
Kato-Masuda style norms of the state, and tracks the measured radius of
spatial analyticity against its explicit theoretical lower bound.
"""

__version__ = "0.1.0"

from .analyticity import (
    KMBound,
    RadiusFit,
    default_gamma,
    fit_decay_radius,
    km_bound_from_run,
    km_bound_sigma,
    km_constants,
    km_lambda,
)
from .dynamics import inverse_momentum, momentum, rhs_F
from .errors import (
    BlowupError,
    ConfigurationError,
    InsufficientBandError,
    NumericalError,
    SnapshotError,
    TruncationError,
)
from .evolve import EvolveConfig, Trajectory, run
from .grid import GridSpec, RealField, make_grid
from .norms import (
    GevreyNorm,
    gevrey_norm,
    hm_norm,
    km_phi,
    km_radius_norm,
    sobolev_norm,
)
from .scenarios import (
    InitSpec,
    RunConfig,
    Snapshot,
    emit_diagnostics,
    initial_data,
    parse_config,
    read_snapshot,
    render_config,
    run_scenario,
    write_snapshot,
)
from .taylor import TaylorSeries, taylor_coeffs, taylor_eval, time_radius_estimate
