"""Experiment configuration: a versioned, human-editable JSON tree.

The canonical serialization (sorted keys, floats with 17 significant
digits) round-trips doubles bit-faithfully and is what gets hashed into
config_hash, the provenance tag carried by every persisted record.
Validation collects *all* schema errors before failing.  _KEYS is the one
declaration of the top-level keys; every step of parsing reads it.

`parse_config` reads its file on every call, but parses, validates and
hashes each distinct text once per process: the parsed configuration is
kept in an `lru_cache` keyed by the text, as `game` keeps its solved
games, and every call with that text returns the same frozen
`ExperimentConfig`.  A text that fails is not kept and raises on every
ask.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

from .errors import ConfigError, is_integer, is_number
from .game import OptimizerSpec
from .lattice import DEFAULT_DIMENSION_CAP, HoppingKernel, MeanFieldParams, ModelParams
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

_REQUIRED = object()  # the default of a key that must be given
_ROLES = ("plus", "minus")


def _rule(ok, message):
    """The check that passes the values for which ok(value) holds."""
    return lambda value: None if ok(value) else message


def _numbers(ok, message, distinct=False):
    """The check of a nonempty list of numbers that all satisfy ok and,
    with distinct, of which no two are equal."""
    def check(value):
        if not isinstance(value, list) or not all(map(is_number, value)):
            return "expected a list of numbers"
        if not value:
            return "must be nonempty"
        if not all(map(ok, value)):
            return message
        return "no two entries may be equal" if distinct and len(set(value)) < len(value) else None
    return check


def _by_role(ok=lambda value: True, each=""):
    """The check of an object with keys 'plus' and/or 'minus' whose values satisfy ok."""
    return _rule(lambda v: isinstance(v, dict) and set(v) <= set(_ROLES)
                 and all(map(ok, v.values())),
                 "expected object with keys 'plus' and/or 'minus'" + each)


_OBJECT = _rule(lambda v: isinstance(v, dict), "expected an object")
_GAMMA = _numbers(lambda g: 0.0 < g < 1.0, "gamma must lie in the open interval (0,1)")

# Every top-level key: its default (none for a required key) and its check,
# which returns an error message or None.  A null on an object key means its
# default.  The values of hopping, potentials, quadrature and optimizer are
# checked further by the types built from them.
_KEYS = {
    "schema_version": (_REQUIRED, _rule(lambda v: is_integer(v) and v == SCHEMA_VERSION,
                                        f"must be {SCHEMA_VERSION}")),
    "dimension": (_REQUIRED, _rule(lambda v: is_integer(v) and v >= 1,
                                   "must be a positive integer")),
    "hopping": (_REQUIRED, _rule(lambda v: isinstance(v, list) and v,
                                 "expected a nonempty list of [offset, value] pairs")),
    "potentials": ({}, _by_role(lambda p: p is None or isinstance(p, dict) and "family" in p,
                                ", each null or an object with a 'family' key")),
    "beta": (_REQUIRED, _numbers(lambda b: b > 0, "entries must be positive", distinct=True)),
    "eta": ({}, _by_role()),
    "gamma_minus": ([0.5], _GAMMA),
    "gamma_plus": ([0.5], _GAMMA),
    "L": ([1], _rule(lambda v: isinstance(v, list) and v
                     and all(is_integer(L) and L >= 0 for L in v) and len(set(v)) == len(v),
                     "expected a nonempty list of nonnegative integers, no two equal")),
    "boundary": ("periodic", _rule(lambda v: v in ("open", "periodic"),
                                   "must be 'open' or 'periodic'")),
    "order": ("minus_first", _rule(lambda v: v in ORDERS, f"must be one of {ORDERS}")),
    "include_onsite_correction": (False, _rule(lambda v: isinstance(v, bool),
                                               "must be true or false")),
    "quadrature": ({}, _OBJECT),
    "optimizer": ({}, _OBJECT),
    "output_dir": ("kaclab_out", _rule(lambda v: isinstance(v, str) and v != "",
                                       "must be a nonempty string")),
    "dimension_cap": (DEFAULT_DIMENSION_CAP, _rule(lambda v: is_integer(v) and v >= 4,
                                                   "must be an integer >= 4")),
}


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.
    Strings and integers are written as `json.dumps` writes them."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ConfigError("non-finite number in configuration")
        return format(obj, ".17g")
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, (dict, MappingProxyType)):
        items = sorted(obj.items())
        return "{" + ", ".join(f"{encode_basestring_ascii(str(k))}: {canonical_json(v)}"
                               for k, v in items) + "}"
    raise ConfigError(f"cannot serialize object of type {type(obj).__name__}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed, validated experiment description; plain fields bear their key's name.

    Frozen, and `normalized`, the configuration tree with every default
    filled in, is a read-only view (objects as mappings, lists as tuples):
    one parse of a text is shared by every `parse_config` of it.
    """

    dimension: int
    hopping: HoppingKernel
    f_plus: PairPotential | None
    f_minus: PairPotential | None
    beta: tuple[float, ...]
    eta_plus: float
    eta_minus: float
    gamma_minus: tuple[float, ...]
    gamma_plus: tuple[float, ...]
    L: tuple[int, ...]
    boundary: str
    order: str
    include_onsite_correction: bool
    quadrature: QuadratureSpec
    optimizer: OptimizerSpec
    output_dir: str
    dimension_cap: int
    normalized: MappingProxyType = field(init=False, repr=False,
                                         default_factory=lambda: MappingProxyType({}))

    # -- builders ------------------------------------------------------------

    def model_params(self, beta: float) -> ModelParams:
        """The model at beta and the first point of each gamma schedule."""
        return ModelParams(
            beta=beta,
            hopping=self.hopping,
            f_plus=self.f_plus,
            f_minus=self.f_minus,
            gamma_minus=self.gamma_minus[0],
            gamma_plus=self.gamma_plus[0],
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
            L_list=self.L,
            gamma_minus_schedule=self.gamma_minus,
            gamma_plus_schedule=self.gamma_plus,
            order=self.order,
            boundary=self.boundary,
            dimension_cap=self.dimension_cap,
        )

    @functools.cached_property
    def _hash(self) -> str:
        """`config_hash`, computed once per config."""
        return hashlib.sha256(serialize_config(self).encode("utf-8")).hexdigest()[:16]


def _read_only(value):
    """value with its objects as read-only mappings and its lists as tuples."""
    if isinstance(value, dict):
        return MappingProxyType({key: _read_only(v) for key, v in value.items()})
    return tuple(map(_read_only, value)) if isinstance(value, (list, tuple)) else value


def _field_value(value, annotation):
    """A checked value as the field of that annotation holds it: lists as
    tuples, and the numbers of a float list as floats."""
    if annotation == "tuple[float, ...]":
        return tuple(map(float, value))
    return tuple(value) if isinstance(value, list) else value


def parse_config_dict(data: dict) -> ExperimentConfig:
    """Validate a configuration tree; raises ConfigError listing all problems."""
    if not isinstance(data, dict):
        raise ConfigError(["configuration root must be an object"])
    errors = [f"unknown configuration key {key!r}" for key in sorted(set(data) - set(_KEYS))]
    values, failed = {}, set()
    for key, (default, check) in _KEYS.items():
        value = data.get(key, default)
        if value is None and isinstance(default, dict):
            value = default
        message = "required key is missing" if value is _REQUIRED else check(value)
        if message:
            errors.append(f"{key}: {message}")
            failed.add(key)
        values[key] = value

    def build(name, make, *reads):
        """make(), or None with its error collected under name; skipped
        (None) when name or another key that it reads failed its check."""
        if failed.intersection((name, *reads)):
            return None
        try:
            return make()
        except (ConfigError, TypeError) as err:
            errors.append(f"{name}: {err}")

    d = values["dimension"]
    values["hopping"] = build("hopping", lambda: HoppingKernel(values["hopping"], d), "dimension")
    values["quadrature"] = build("quadrature", lambda: QuadratureSpec(**values["quadrature"]))
    values["optimizer"] = build("optimizer", lambda: OptimizerSpec(**values["optimizer"]))
    potentials, eta = {}, {}
    for role in _ROLES:
        decl = None if "potentials" in failed else values["potentials"].get(role)
        potentials[role] = None if decl is None else build(
            f"potentials.{role}", lambda: make_potential(d=d, **decl), "dimension")
        eta[role] = None if "eta" in failed else values["eta"].get(role)
        if eta[role] is not None and not (is_number(eta[role]) and eta[role] >= 0):
            errors.append(f"eta.{role}: must be a nonnegative number")
    if errors:
        raise ConfigError(errors)

    for role, pot in potentials.items():  # eta defaults to the integrated potential
        values[f"f_{role}"] = pot
        values[f"eta_{role}"] = float(eta[role] if eta[role] is not None
                                      else 0.0 if pot is None else pot.born_zero())
    cfg = ExperimentConfig(**{f.name: _field_value(values[f.name], f.type)
                              for f in fields(ExperimentConfig) if f.init})
    normalized = {key: getattr(cfg, key, values[key]) for key in _KEYS}
    normalized.update(
        hopping=sorted([list(z), v] for z, v in cfg.hopping.entries.items()),
        potentials={role: None if pot is None else {"family": pot.family, **pot.params()}
                    for role, pot in potentials.items()},
        eta=eta,
        quadrature={f.name: getattr(cfg.quadrature, f.name) for f in fields(cfg.quadrature)},
        optimizer={f.name: getattr(cfg.optimizer, f.name) for f in fields(cfg.optimizer)},
    )
    object.__setattr__(cfg, "normalized", _read_only(normalized))
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    """The configuration in the file at path, read on every call; each
    distinct text is parsed once per process (`_parse_text`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError([f"cannot read config file {path}: {err}"]) from None
    return _parse_text(text)


@functools.lru_cache(maxsize=64)
def _parse_text(text: str) -> ExperimentConfig:
    """The configuration of a text, cached by the text; an error is not kept."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError([f"config file is not valid JSON: {err}"]) from None
    return parse_config_dict(data)


def serialize_config(cfg: ExperimentConfig) -> str:
    return canonical_json(cfg.normalized)


def config_hash(cfg: ExperimentConfig) -> str:
    return cfg._hash
