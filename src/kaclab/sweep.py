"""Order-of-limits Kac experiments at exact-diagonalization scale.

A sweep evaluates the finite-volume pressure of the short-range model over
a grid of box sizes and range parameters (gamma_-, gamma_+), in one of
three orderings of the two Kac limits:

  minus_first : for each gamma_+, walk the full gamma_- schedule
                (attractive range sent to infinity first);
  plus_first  : the transpose (repulsive range first);
  diagonal    : paired schedules, probing the interpolation between the
                two limiting pressures.

The limit report extrapolates the pressure trend at the largest box
linearly in gamma^2 (the remainder of lattice sums versus their Born
value decays at that generic rate) and compares against the conventional
and non-conventional mean-field pressures, widened by a self-reported
finite-size budget.  Desk-scale boxes cannot reach the thermodynamic
limit; the budget quantifies that instead of pretending otherwise.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import CapacityError, ConfigError, InsufficientDataError
from .game import GameResult
from .lattice import DEFAULT_DIMENSION_CAP, LatticeBox, ModelParams
from .potentials import PairPotential, TruncationSpec, kac_lattice_sum

__all__ = [
    "SweepPlan",
    "SweepRecord",
    "LimitReport",
    "check_report_plan",
    "run_sweep",
    "product_state_energy_density",
    "limit_report",
]

log = logging.getLogger(__name__)

ORDERS = ("minus_first", "plus_first", "diagonal")


@dataclass(frozen=True)
class SweepPlan:
    """One order-of-limits experiment over (L, gamma_-, gamma_+)."""

    model: ModelParams  # gamma fields are overridden per record
    L_list: tuple
    gamma_minus_schedule: tuple
    gamma_plus_schedule: tuple
    order: str = "minus_first"
    boundary: str = "periodic"
    dimension_cap: int = DEFAULT_DIMENSION_CAP  # records over it end in run_sweep's failures

    def __post_init__(self):
        object.__setattr__(self, "L_list", tuple(int(L) for L in self.L_list))
        object.__setattr__(self, "gamma_minus_schedule",
                           tuple(float(g) for g in self.gamma_minus_schedule))
        object.__setattr__(self, "gamma_plus_schedule",
                           tuple(float(g) for g in self.gamma_plus_schedule))
        if self.order not in ORDERS:
            raise ConfigError(f"order must be one of {ORDERS}")
        if not self.L_list or min(self.L_list) < 0:
            raise ConfigError("L_list must be nonempty with L >= 0")
        if len(set(self.L_list)) != len(self.L_list):
            raise ConfigError("L_list must not repeat a box size")
        for name, sched in (("gamma_minus_schedule", self.gamma_minus_schedule),
                            ("gamma_plus_schedule", self.gamma_plus_schedule)):
            if not sched:
                raise ConfigError(f"{name} must be nonempty")
            if any(not (0.0 < g < 1.0) for g in sched):
                raise ConfigError(f"{name} entries must lie in (0,1)")
            if any(b >= a for a, b in zip(sched, sched[1:])):
                raise ConfigError(f"{name} must be strictly decreasing")
        if self.order == "diagonal" and (
            len(self.gamma_minus_schedule) != len(self.gamma_plus_schedule)
        ):
            raise ConfigError("diagonal order needs schedules of equal length")

    def schedule(self) -> list:
        """The order's paths: one list of (gamma, gamma_minus, gamma_plus) per
        value of the outer parameter, walking the inner limit, whose
        parameter is gamma; diagonal order is a single paired path."""
        gms, gps = self.gamma_minus_schedule, self.gamma_plus_schedule
        if self.order == "minus_first":
            return [[(gm, gm, gp) for gm in gms] for gp in gps]
        if self.order == "plus_first":
            return [[(gp, gm, gp) for gp in gps] for gm in gms]
        return [[(gm, gm, gp) for gm, gp in zip(gms, gps)]]

    def keys(self):
        """Deterministic (L, gamma_minus, gamma_plus) evaluation order."""
        return [(L, gm, gp) for path in self.schedule() for _, gm, gp in path
                for L in self.L_list]


@dataclass(frozen=True)
class SweepRecord:
    d: int
    L: int
    beta: float
    gamma_minus: float
    gamma_plus: float
    boundary: str
    pressure: float
    density: float
    runtime_ms: int
    config_hash: str

    def key(self):
        return (self.L, self.gamma_minus, self.gamma_plus)


def _evaluate(plan: SweepPlan, key, config_hash: str) -> tuple:
    """The record of a key and its stages: build and Gibbs times, the
    number of blocks kept, the largest and the sum of dim^3 over them."""
    from .fock import build_kac_hamiltonian, gibbs_observables

    L, gm, gp = key
    t0 = time.perf_counter()
    box = LatticeBox(plan.model.hopping.d, L, plan.boundary)
    mp = replace(plan.model, gamma_minus=gm, gamma_plus=gp)
    op = build_kac_hamiltonian(mp, box, plan.dimension_cap)
    t1 = time.perf_counter()
    obs = gibbs_observables(op, mp.beta)
    t2 = time.perf_counter()
    record = SweepRecord(
        d=box.d, L=L, beta=mp.beta, gamma_minus=gm, gamma_plus=gp,
        boundary=plan.boundary, pressure=obs.pressure, density=obs.density,
        runtime_ms=int(round(1000.0 * (t2 - t0))), config_hash=config_hash,
    )
    dims = op.sector_dimensions().values()
    stages = {"L": L, "gamma_minus": gm, "gamma_plus": gp,
              "build_ms": round(1000.0 * (t1 - t0), 3), "gibbs_ms": round(1000.0 * (t2 - t1), 3),
              "kept_blocks": len(dims), "largest_block": max(dims),
              "eig_dim3": sum(d**3 for d in dims)}
    return record, stages


def run_sweep(plan: SweepPlan, store=None, config_hash: str = "",
              failures: list | None = None, stages: list | None = None) -> list:
    """Evaluate every (L, gamma_-, gamma_+) of the plan, one key after another.

    A key whose record is persisted in the store under the same
    config_hash, d, beta and boundary is reused, not recomputed; every
    other key is evaluated.  A capacity error goes to ``failures`` and the
    log without aborting the sweep.  Each freshly computed record appends
    its key, build and Gibbs times (ms), number of kept blocks, largest
    block and sum of dim^3 over the kept blocks to ``stages``, and the fresh records are appended to the store
    in one call.  The returned list follows the deterministic plan order.
    """
    keys = plan.keys()
    results: dict = {}
    fresh = []
    for key in dict.fromkeys(keys):
        existing = store.find_sweep_record(
            config_hash, key, d=plan.model.hopping.d, beta=plan.model.beta,
            boundary=plan.boundary,
        ) if store else None
        if existing is not None:
            log.debug("sweep record %s read from the store", key)
            results[key] = existing
            continue
        try:
            record, stage = _evaluate(plan, key, config_hash)
        except CapacityError as err:
            log.warning("sweep record %s skipped: %s", key, err)
            if failures is not None:
                failures.append((key, str(err)))
            continue
        log.info("sweep record %s: %d blocks, largest %d, sum dim^3 %d, %d ms", key,
                 stage["kept_blocks"], stage["largest_block"], stage["eig_dim3"],
                 record.runtime_ms)
        results[key] = record
        fresh.append(record)
        if stages is not None:
            stages.append(stage)
    if store and fresh:
        store.append_sweep_records(fresh)
    return [results[key] for key in keys if key in results]


def product_state_energy_density(p: PairPotential, gamma: float, n: float,
                                 truncation: TruncationSpec | None = None) -> float:
    """Energy density of the density-density Kac term on a product state.

    Translation-invariant product state with per-spin filling n: the
    two-point correlations factorize, <n_tot(0) n_tot(z)> = (2n)^2 for
    z != 0, while the on-site moment is exact, <n_tot^2> = 2n + 2n^2.
    The gamma -> 0 limit is fhat(0) (2n)^2.
    """
    if not (0.0 <= n <= 1.0):
        raise ConfigError("per-spin density must lie in [0,1]")
    if not (0.0 < gamma < 1.0):
        raise ConfigError("gamma must lie in (0,1)")
    truncation = truncation or TruncationSpec()
    f0 = float(p.eval(np.zeros(p.d)))
    onsite_coupling = gamma**p.d * f0
    lattice_sum = kac_lattice_sum(p, gamma, truncation)
    return onsite_coupling * (2 * n + 2 * n * n) + (lattice_sum - onsite_coupling) * (2 * n) ** 2


@dataclass(frozen=True)
class LimitReport:
    order: str
    L_max: int
    gammas: tuple
    pressures: tuple
    last_pressure: float
    extrapolated_pressure: float
    p_sharp: float
    p_flat: float
    distance_to_sharp: float
    distance_to_flat: float
    finite_size_budget: float
    within_interval: bool

    def as_dict(self):
        return asdict(self)


def check_report_plan(plan: SweepPlan) -> None:
    """InsufficientDataError unless the plan can give a limit report: it
    needs two box sizes and three points on the trailing schedule path.
    Records that a capacity error skips are found only by `limit_report`."""
    if len(plan.L_list) < 2:
        raise InsufficientDataError("limit report needs at least two box sizes")
    if len(plan.schedule()[-1]) < 3:
        raise InsufficientDataError("limit report needs at least three schedule points")


def limit_report(records: list, game: GameResult, plan: SweepPlan) -> LimitReport:
    """Trend of the Kac sweep at the largest box versus the game pressures.

    The trailing schedule (the inner limit of the plan's order, taken at
    the final value of the outer parameter) is extrapolated linearly in
    gamma^2 over its last three points.  The finite-size budget is the
    pressure difference between the two largest boxes at the final
    schedule point; the sandwich verdict uses the widened interval
    [P_sharp - budget, P_flat + budget].
    """
    check_report_plan(plan)
    table = {r.key(): r for r in records}
    L_sorted = sorted(set(r.L for r in records))
    if len(L_sorted) < 2:
        raise InsufficientDataError("limit report needs records at two box sizes")
    L_max, L_prev = L_sorted[-1], L_sorted[-2]

    path = plan.schedule()[-1]
    gammas, pressures = [], []
    for gamma, gm, gp in path:
        rec = table.get((L_max, gm, gp))
        if rec is None:
            raise InsufficientDataError(
                f"missing record at L={L_max}, gamma=({gm}, {gp})"
            )
        gammas.append(gamma)
        pressures.append(rec.pressure)

    tail_g = np.array(gammas[-3:], dtype=float)
    tail_p = np.array(pressures[-3:], dtype=float)
    slope, intercept = np.polyfit(tail_g**2, tail_p, 1)
    extrapolated = float(intercept)

    prev = table.get((L_prev,) + path[-1][1:])
    if prev is None:
        raise InsufficientDataError(
            f"missing record at L={L_prev} for the finite-size budget"
        )
    budget = abs(pressures[-1] - prev.pressure)

    within = (
        extrapolated >= game.p_sharp - budget - 1e-12
        and extrapolated <= game.p_flat + budget + 1e-12
    )
    return LimitReport(
        order=plan.order,
        L_max=L_max,
        gammas=tuple(gammas),
        pressures=tuple(pressures),
        last_pressure=pressures[-1],
        extrapolated_pressure=extrapolated,
        p_sharp=game.p_sharp,
        p_flat=game.p_flat,
        distance_to_sharp=extrapolated - game.p_sharp,
        distance_to_flat=game.p_flat - extrapolated,
        finite_size_budget=budget,
        within_interval=bool(within),
    )
