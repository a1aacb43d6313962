"""Experiment configuration: a versioned, human-editable JSON tree.

The canonical serialization (sorted keys, floats with 17 significant
digits) round-trips doubles bit-faithfully and is what gets hashed into
config_hash, the provenance tag carried by every persisted record.
Validation collects *all* schema errors before failing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from .errors import ConfigError, is_integer, is_number
from .fock import DEFAULT_DIMENSION_CAP
from .game import OptimizerSpec
from .lattice import HoppingKernel, MeanFieldParams, ModelParams
from .potentials import PairPotential, make_potential
from .quasifree import QuadratureSpec
from .sweep import ORDERS, SweepPlan

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "parse_config_dict",
    "serialize_config",
    "canonical_json",
    "config_hash",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version", "dimension", "hopping", "potentials", "beta", "eta",
    "gamma_minus", "gamma_plus", "L", "boundary", "order",
    "include_onsite_correction", "quadrature", "optimizer", "output_dir",
    "dimension_cap",
}

_DEFAULTS = {
    "potentials": {"plus": None, "minus": None},
    "eta": {"plus": None, "minus": None},
    "gamma_minus": [0.5],
    "gamma_plus": [0.5],
    "L": [1],
    "boundary": "periodic",
    "order": "minus_first",
    "include_onsite_correction": False,
    "quadrature": {},
    "optimizer": {},
    "output_dir": "kaclab_out",
    "dimension_cap": DEFAULT_DIMENSION_CAP,
}


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ConfigError("non-finite number in configuration")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(f"{json.dumps(str(k))}: {canonical_json(v)}"
                               for k, v in items) + "}"
    raise ConfigError(f"cannot serialize object of type {type(obj).__name__}")


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment description."""

    dimension: int
    hopping: HoppingKernel
    f_plus: PairPotential | None
    f_minus: PairPotential | None
    beta_list: tuple
    eta_plus: float
    eta_minus: float
    gamma_minus_schedule: tuple
    gamma_plus_schedule: tuple
    L_list: tuple
    boundary: str
    order: str
    include_onsite_correction: bool
    quadrature: QuadratureSpec
    optimizer: OptimizerSpec
    output_dir: str
    dimension_cap: int
    normalized: dict = field(repr=False, default_factory=dict)

    # -- builders ------------------------------------------------------------

    def model_params(self, beta: float) -> ModelParams:
        """The model at beta and the first point of each gamma schedule."""
        return ModelParams(
            beta=beta,
            hopping=self.hopping,
            f_plus=self.f_plus,
            f_minus=self.f_minus,
            gamma_minus=self.gamma_minus_schedule[0],
            gamma_plus=self.gamma_plus_schedule[0],
            include_onsite_correction=self.include_onsite_correction,
        )

    def meanfield_params(self, beta: float) -> MeanFieldParams:
        return MeanFieldParams(
            beta=beta, hopping=self.hopping,
            eta_plus=self.eta_plus, eta_minus=self.eta_minus,
        )

    def sweep_plan(self, beta: float) -> SweepPlan:
        return SweepPlan(
            model=self.model_params(beta),
            L_list=self.L_list,
            gamma_minus_schedule=self.gamma_minus_schedule,
            gamma_plus_schedule=self.gamma_plus_schedule,
            order=self.order,
            boundary=self.boundary,
            dimension_cap=self.dimension_cap,
        )


def _as_float_list(value, name, errors):
    if not isinstance(value, (list, tuple)) or not all(is_number(v) for v in value):
        errors.append(f"{name}: expected a list of numbers")
        return []
    out = [float(v) for v in value]
    if not out:
        errors.append(f"{name}: must be nonempty")
    return out


def _parse_potential(decl, role, dimension, errors):
    if decl is None:
        return None
    if not isinstance(decl, dict) or "family" not in decl:
        errors.append(f"potentials.{role}: expected an object with a 'family' key")
        return None
    params = {k: v for k, v in decl.items() if k != "family"}
    if decl["family"] == "gaussian_mixture" and "terms" in params:
        params["terms"] = [(t[0], tuple(t[1])) for t in params["terms"]]
    try:
        return make_potential(decl["family"], d=dimension, sign=role, **params)
    except (ConfigError, TypeError) as err:
        errors.append(f"potentials.{role}: {err}")
        return None


def parse_config_dict(data: dict) -> ExperimentConfig:
    """Validate a configuration tree; raises ConfigError listing all problems."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["configuration root must be an object"])

    unknown = sorted(set(data) - _TOP_KEYS)
    for key in unknown:
        errors.append(f"unknown configuration key {key!r}")

    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")

    dimension = data.get("dimension")
    if not is_integer(dimension) or dimension < 1:
        errors.append("dimension: must be a positive integer")
        dimension = 1

    merged = dict(_DEFAULTS)
    merged.update({k: v for k, v in data.items() if k in _TOP_KEYS})

    # hopping kernel; repeated or mirrored offsets that disagree are rejected there
    hopping = None
    raw_hopping = data.get("hopping")
    if not isinstance(raw_hopping, list) or not raw_hopping:
        errors.append("hopping: expected a nonempty list of [offset, value] pairs")
    else:
        try:
            hopping = HoppingKernel(raw_hopping, dimension)
        except (ConfigError, TypeError, ValueError) as err:
            msg = str(err) if str(err) else "hopping: malformed entries"
            errors.append(msg)
    if hopping is None:
        hopping = HoppingKernel({tuple([0] * dimension): 0.0}, dimension)

    pots = merged["potentials"] or {}
    if not isinstance(pots, dict) or set(pots) - {"plus", "minus"}:
        errors.append("potentials: expected object with keys 'plus' and/or 'minus'")
        pots = {}
    f_plus = _parse_potential(pots.get("plus"), "plus", dimension, errors)
    f_minus = _parse_potential(pots.get("minus"), "minus", dimension, errors)

    beta_list = _as_float_list(data.get("beta", []), "beta", errors)
    for b in beta_list:
        if b <= 0:
            errors.append("beta: entries must be positive")
            break

    gm = _as_float_list(merged["gamma_minus"], "gamma_minus", errors)
    gp = _as_float_list(merged["gamma_plus"], "gamma_plus", errors)
    for name, sched in (("gamma_minus", gm), ("gamma_plus", gp)):
        for g in sched:
            if not (0.0 < g < 1.0):
                errors.append(f"{name}: gamma must lie in the open interval (0,1)")
                break

    L_list = merged["L"]
    if (not isinstance(L_list, list) or not L_list
            or any(not is_integer(L) or L < 0 for L in L_list)):
        errors.append("L: expected a nonempty list of nonnegative integers")
        L_list = [1]

    boundary = merged["boundary"]
    if boundary not in ("open", "periodic"):
        errors.append("boundary: must be 'open' or 'periodic'")
        boundary = "periodic"

    order = merged["order"]
    if order not in ORDERS:
        errors.append(f"order: must be one of {ORDERS}")
        order = "minus_first"

    eta_cfg = merged["eta"] or {}
    if not isinstance(eta_cfg, dict) or set(eta_cfg) - {"plus", "minus"}:
        errors.append("eta: expected object with keys 'plus' and/or 'minus'")
        eta_cfg = {}

    def resolve_eta(role, potential):
        override = eta_cfg.get(role)
        if override is not None:
            if not is_number(override) or override < 0:
                errors.append(f"eta.{role}: must be a nonnegative number")
                return 0.0
            return float(override)
        if potential is not None:
            return float(potential.born_zero())
        return 0.0

    eta_plus = resolve_eta("plus", f_plus)
    eta_minus = resolve_eta("minus", f_minus)

    quad_cfg = merged["quadrature"] or {}
    try:
        quadrature = QuadratureSpec(**quad_cfg)
    except (ConfigError, TypeError) as err:
        errors.append(f"quadrature: {err}")
        quadrature = QuadratureSpec()

    opt_cfg = dict(merged["optimizer"] or {})
    for key in ("c_minus_box", "c_plus_box"):
        if key in opt_cfg:
            opt_cfg[key] = tuple(opt_cfg[key])
    try:
        optimizer = OptimizerSpec(**opt_cfg)
    except (ConfigError, TypeError) as err:
        errors.append(f"optimizer: {err}")
        optimizer = OptimizerSpec()

    cap = merged["dimension_cap"]
    if not is_integer(cap) or cap < 4:
        errors.append("dimension_cap: must be an integer >= 4")
        cap = DEFAULT_DIMENSION_CAP

    if errors:
        raise ConfigError(errors)

    normalized = {
        "schema_version": SCHEMA_VERSION,
        "dimension": dimension,
        "hopping": sorted([list(z), v] for z, v in hopping.entries.items()),
        "potentials": {
            "plus": None if f_plus is None else {"family": f_plus.family, **f_plus.params()},
            "minus": None if f_minus is None else {"family": f_minus.family, **f_minus.params()},
        },
        "beta": beta_list,
        "eta": {"plus": eta_cfg.get("plus"), "minus": eta_cfg.get("minus")},
        "gamma_minus": gm,
        "gamma_plus": gp,
        "L": list(L_list),
        "boundary": boundary,
        "order": order,
        "include_onsite_correction": bool(merged["include_onsite_correction"]),
        "quadrature": asdict(quadrature),
        "optimizer": asdict(optimizer),
        "output_dir": str(merged["output_dir"]),
        "dimension_cap": cap,
    }
    return ExperimentConfig(
        dimension=dimension,
        hopping=hopping,
        f_plus=f_plus,
        f_minus=f_minus,
        beta_list=tuple(beta_list),
        eta_plus=eta_plus,
        eta_minus=eta_minus,
        gamma_minus_schedule=tuple(gm),
        gamma_plus_schedule=tuple(gp),
        L_list=tuple(L_list),
        boundary=boundary,
        order=order,
        include_onsite_correction=bool(merged["include_onsite_correction"]),
        quadrature=quadrature,
        optimizer=optimizer,
        output_dir=str(merged["output_dir"]),
        dimension_cap=cap,
        normalized=normalized,
    )


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError([f"cannot read config file {path}: {err}"]) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError([f"config file is not valid JSON: {err}"]) from None
    return parse_config_dict(data)


def serialize_config(cfg: ExperimentConfig) -> str:
    return canonical_json(cfg.normalized)


def config_hash(cfg: ExperimentConfig) -> str:
    digest = hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
    return digest[:16]
