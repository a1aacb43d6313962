"""kaclab: a numerical laboratory for Kac-scaled lattice fermions.

Finite-volume pressures of short-range BCS-plus-repulsion models by exact
diagonalization, thermodynamic-limit pressures of their quadratic
approximants by Brillouin-zone quadrature, the two-person thermodynamic
game producing the conventional and non-conventional mean-field pressures,
and order-of-limits Kac sweep experiments contrasting the two.
"""

from .errors import (
    AccuracyError,
    CapacityError,
    ConfigError,
    InsufficientDataError,
    KaclabError,
    UnsupportedPotentialError,
)
from .game import (
    GamePoint,
    GameResult,
    GapSolution,
    OptimizerSpec,
    decision_rule,
    gap_residual,
    payoff,
    solve_game,
    solve_gap_fixed_point,
)
from .lattice import (
    HoppingKernel,
    LatticeBox,
    MeanFieldParams,
    ModelParams,
    discrete_laplacian,
    dispersion,
    kac_coupling_matrix,
)
from .potentials import (
    ConeReport,
    GaussianMixture,
    PairPotential,
    PlainGaussian,
    TableSpline,
    TruncationSpec,
    Yukawa,
    cone_check,
    fourier_lattice_tail,
    kac_lattice_sum,
    poisson_sum,
    series_tail_bound,
)
from .quasifree import (
    QuadratureSpec,
    finite_grid_pressure,
    per_k_log_trace,
    quasifree_pressure,
)
from .sweep import (
    LimitReport,
    SweepPlan,
    SweepRecord,
    limit_report,
    product_state_energy_density,
    run_sweep,
)

__version__ = "0.1.0"

# the exact-diagonalization names, imported from kaclab.fock on first use
_FOCK_NAMES = frozenset((
    "FockBasis", "FockOperator", "GibbsObservables", "build_approximating_hamiltonian",
    "build_kac_hamiltonian", "build_meanfield_hamiltonian", "car_max_violation",
    "gibbs_observables", "pressure"))


def __getattr__(name):
    if name in _FOCK_NAMES:
        from . import fock

        return getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
