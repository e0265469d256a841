"""Run configuration: one JSON file per run, plus dotted-path overrides.

Schema (see README for units):

    {
      "params":     {"gamma", "delta", "zeta", "theta", "psi"},     # required
      "strategies": {"betas": [...], "costs": [...]},               # required
      "policy":     {"cstar", "upsilon", "offsupport_margin"},      # required
      "protocol":   {"rate_gain", "cap"},                           # Smith
      "integrator": {"step", "horizon", "output_stride"},
      "initial":    {"x" or "B", "q"}                     # endemic at x or B
                  | {"I", "R", "x", "q"},                 # explicit: I or R given
      "bounds":     {"grid_size", "alpha"}
    }

A section that builds a library object takes its keys, defaults and
required keys (the fields without a default) from that object's fields.
Every default is filled, so a resolved mapping names every key.

Overrides use ``section.key=value`` with JSON-parsed values, e.g.
``policy.upsilon=6`` or ``strategies.betas=[0.12,0.15,0.19]``.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import MISSING, dataclass, field, fields

from .bounds import DEFAULT_GRID_SIZE
from .dynamics import EpgState, IntegratorOptions, step_count
from .edm import SmithProtocol
from .equilibrium import OptimalAllocation, _pair_mix, endemic_state, optimal_allocation
from .params import (
    AssumptionViolated,
    ModelParams,
    PolicyConfig,
    StrategySpec,
    ValidatedBundle,
    ValidationError,
    validate,
)
from .payoff import PayoffMechanism, build_mechanism

__all__ = ["ResolvedRun", "load_config", "apply_overrides", "resolve"]

# Largest run a configuration may ask for: integration steps, recorded
# samples (rows of trajectory.csv) and points of the bound's rate grid.
MAX_STEPS = 2_000_000
MAX_SAMPLES = 200_001
MAX_GRID_SIZE = 100_000

def _is_number(v) -> bool:
    """A finite JSON number: ints included, booleans, NaN and infinities not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


# (description, predicate) of the value types a key may hold
_NUMBER = ("a finite number", _is_number)
_INTEGER = ("an integer",
            lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()))
_NUMBERS = ("a list of finite numbers",
            lambda v: isinstance(v, list) and all(_is_number(e) for e in v))
_POSITIVE = ("a positive finite number", lambda v: _is_number(v) and v > 0)
_NONNEGATIVE = ("a nonnegative finite number", lambda v: _is_number(v) and v >= 0)
_STRIDE = ("an integer of at least 1", lambda v: _INTEGER[1](v) and v >= 1)


def _null_by_default(kind):
    """The ``(kind, default)`` of a key that may be null, and is by default."""
    desc, ok = kind
    return (f"{desc} or null", lambda v: v is None or ok(v)), None


def _fields_of(cls, **kinds) -> dict:
    """``{key: (kind, default)}`` of a section that builds ``cls``: one key
    per field, with that field's default (``MISSING`` if it has none)."""
    return {f.name: (kinds[f.name], f.default) for f in fields(cls)}


# {section: {key: (kind, default)}}; a key whose default is MISSING is required
_SCHEMA = {
    "params": _fields_of(ModelParams, **dict.fromkeys(
        ("gamma", "delta", "zeta", "theta", "psi"), _NUMBER)),
    "strategies": _fields_of(StrategySpec, betas=_NUMBERS, costs=_NUMBERS),
    "policy": _fields_of(PolicyConfig, **dict.fromkeys(
        ("cstar", "upsilon", "offsupport_margin"), _NUMBER)),
    "protocol": _fields_of(SmithProtocol, rate_gain=_POSITIVE, cap=_POSITIVE),
    "integrator": {**_fields_of(IntegratorOptions, step=_POSITIVE, output_stride=_STRIDE),
                   "horizon": (_NUMBER, 1500.0)},
    "initial": {"x": _null_by_default(_NUMBERS), "q": (_NUMBER, 0.0),
                **dict.fromkeys(("B", "I", "R"), _null_by_default(_NUMBER))},
    "bounds": {"grid_size": (_INTEGER, DEFAULT_GRID_SIZE),
               "alpha": _null_by_default(_NONNEGATIVE)},
}


def _required(section: str) -> list[str]:
    """The keys of ``section`` that have no default."""
    return [key for key, (_, default) in _SCHEMA[section].items() if default is MISSING]


def _explicit(start: dict) -> bool:
    """Whether the ``initial`` section gives ``I`` or ``R``, an explicit start."""
    return start.get("I") is not None or start.get("R") is not None


def _schema_violations(data: dict) -> list[AssumptionViolated]:
    """Every unknown key, missing required section or key and wrongly typed
    value, an explicit start that also gives ``B``, and an endemic start
    given by neither or both of ``x`` and ``B``.

    Named by dotted path; an empty list means the mapping has the shape
    :func:`resolve` needs.
    """
    out = [AssumptionViolated(section, "unknown section")
           for section in data if section not in _SCHEMA]
    for section, keys in _SCHEMA.items():
        node = data.get(section)
        if not isinstance(node, dict):
            out.append(AssumptionViolated(
                section, "must be an object" if section in data else "is required"
            ))
            continue
        explicit = section == "initial" and _explicit(node)
        required = ("I", "R", "x") if explicit else _required(section)
        for key in required:
            if node.get(key) is None:
                out.append(AssumptionViolated(f"{section}.{key}", "is required"))
        if explicit and node.get("B") is not None:
            out.append(AssumptionViolated(
                "initial.B", "an explicit start takes initial.x, not initial.B"
            ))
        elif section == "initial" and not explicit:
            given = [key for key in ("x", "B") if node.get(key) is not None]
            if not given:
                out.append(AssumptionViolated(
                    "initial.x", "is required unless initial.B is given"
                ))
            elif len(given) == 2:
                out.append(AssumptionViolated(
                    "initial.B", "an endemic start takes initial.x or initial.B, "
                    "not both (set the unused one to null)"
                ))
        for key, value in node.items():
            if key not in keys:
                out.append(AssumptionViolated(f"{section}.{key}", "unknown key"))
                continue
            (desc, ok), _ = keys[key]
            if not ok(value):
                out.append(AssumptionViolated(
                    f"{section}.{key}", f"must be {desc}, got {value!r}"
                ))
    return out


def _size_violations(data: dict) -> list[AssumptionViolated]:
    """Run sizes beyond ``MAX_STEPS``, ``MAX_SAMPLES`` or ``MAX_GRID_SIZE``,
    a grid of fewer than two rates, a horizon that is not a whole number of
    steps, fewer than two strategies, ``strategies.costs`` with not one cost
    per strategy, a start ``initial.x`` with not one share per strategy, and
    an ``initial.B`` outside the strategies' rates.

    Only entries that already have the right type are checked; computes
    the sizes without building anything.
    """
    def entry(section: str, key: str):
        node = data.get(section)
        return node.get(key) if isinstance(node, dict) else None

    out = []
    grid = entry("bounds", "grid_size")
    if _INTEGER[1](grid) and not 2 <= grid <= MAX_GRID_SIZE:
        out.append(AssumptionViolated(
            "bounds.grid_size", f"must be from 2 to {MAX_GRID_SIZE}, got {grid!r}"
        ))
    betas, costs = entry("strategies", "betas"), entry("strategies", "costs")
    x, B = entry("initial", "x"), entry("initial", "B")
    if _NUMBERS[1](betas) and len(betas) < 2:
        out.append(AssumptionViolated(
            "strategies.betas", f"must name at least two strategies, got {len(betas)}"
        ))
    if _NUMBERS[1](betas) and _NUMBERS[1](costs) and len(costs) != len(betas):
        out.append(AssumptionViolated(
            "strategies.costs", f"has {len(costs)} costs for {len(betas)} strategies"
        ))
    if _NUMBERS[1](betas) and betas:
        if _NUMBERS[1](x) and len(x) != len(betas):
            out.append(AssumptionViolated(
                "initial.x", f"has {len(x)} shares for {len(betas)} strategies"
            ))
        if _is_number(B) and not betas[0] <= B <= betas[-1]:
            out.append(AssumptionViolated(
                "initial.B", f"must be from {betas[0]!r} to {betas[-1]!r}, got {B!r}"
            ))
    step, horizon = entry("integrator", "step"), entry("integrator", "horizon")
    stride = entry("integrator", "output_stride")
    if not (_POSITIVE[1](step) and _is_number(horizon)):
        return out
    try:
        n_steps = step_count(horizon, step)
    except ValueError as exc:
        return out + [AssumptionViolated("integrator.horizon", str(exc))]
    if n_steps > MAX_STEPS:
        out.append(AssumptionViolated(
            "integrator.horizon",
            f"{n_steps} steps of {step!r} exceed the cap of {MAX_STEPS}",
        ))
    if _STRIDE[1](stride) and n_steps // stride + 1 > MAX_SAMPLES:
        out.append(AssumptionViolated(
            "integrator.output_stride",
            f"{n_steps // stride + 1} samples exceed the cap of {MAX_SAMPLES}",
        ))
    return out


def load_config(path) -> dict:
    """Load a JSON run configuration and fill defaults; a file that cannot
    be read or decoded is one ``config`` violation."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        problem = AssumptionViolated("config", f"cannot load {str(path)!r}: {exc}")
        raise ValidationError([problem]) from exc
    return _from_mapping(raw)


def _from_mapping(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ValidationError([AssumptionViolated("config", "must be a JSON object")])
    data = copy.deepcopy(raw)
    for section, keys in _SCHEMA.items():
        # a required section that is missing is reported by resolve
        given = data.get(section, None if _required(section) else {})
        if isinstance(given, dict):  # anything else is reported by resolve
            defaults = {key: default for key, (_, default) in keys.items()
                        if default is not MISSING}
            data[section] = {**defaults, **given}
    return data


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` overrides; values are parsed as JSON.
    Every override without ``=`` or through a value that is not a section is
    one violation, named by its text before ``=``."""
    data = copy.deepcopy(config)
    problems = []
    for item in overrides:
        dotted, eq, raw_value = item.partition("=")
        if not eq:
            problems.append(AssumptionViolated(item, "is not of the form key.path=value"))
            continue
        keys = dotted.strip().split(".")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        node = data
        for depth, key in enumerate(keys[:-1], start=1):
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                problems.append(AssumptionViolated(
                    dotted, f"{'.'.join(keys[:depth])} is not a section"))
                break
        else:
            node[keys[-1]] = value
    if problems:
        raise ValidationError(problems)
    return data


@dataclass(frozen=True)
class ResolvedRun:
    """Everything needed to run: validated objects, mechanism, initial state."""

    bundle: ValidatedBundle
    alloc: OptimalAllocation
    mech: PayoffMechanism
    proto: SmithProtocol
    initial: EpgState
    integrator: IntegratorOptions
    horizon: float
    grid_size: int
    alpha: float | None
    config: dict = field(repr=False)


def resolve(d: dict) -> ResolvedRun:
    """Validate the configuration mapping and build the runnable objects.

    Raises :class:`epgtool.params.ValidationError` with the complete list of
    malformed entries (unknown or missing sections and keys, wrong types,
    a start that does not fit the strategies, a horizon that is not a whole
    number of steps, a run or grid larger than the ``MAX_*`` caps) when the
    mapping has the wrong shape, with the complete list of violated model
    assumptions when the values are invalid, and with one ``initial``
    entry when the start lies off the state space.  Fills defaults first,
    also in a section that an override replaced as a whole.
    """
    d = _from_mapping(d)
    problems = _schema_violations(d) + _size_violations(d)
    if problems:
        raise ValidationError(problems)
    params = ModelParams(**d["params"])
    strategies = StrategySpec(**d["strategies"])
    policy = PolicyConfig(**d["policy"])
    bundle = validate(params, strategies, policy)
    proto = SmithProtocol(**d["protocol"])
    alloc = optimal_allocation(strategies, policy, params)
    mech = build_mechanism(alloc, strategies, policy, params)

    start = d["initial"]
    if start["x"] is not None:
        x0 = tuple(float(v) for v in start["x"])
    else:
        _, x0 = _pair_mix(strategies.betas, float(start["B"]))
    try:
        if _explicit(start):
            I0, R0 = float(start["I"]), float(start["R"])
        else:
            eq = endemic_state(mech.rate(x0), params, strategies)
            I0, R0 = eq.I_hat, eq.R_hat
        initial = EpgState(I=I0, R=R0, x=x0, q=float(start["q"]))
    except ValueError as exc:  # a start off the state space
        raise ValidationError([AssumptionViolated("initial", str(exc))]) from exc

    integ = d["integrator"]
    options = IntegratorOptions(
        step=float(integ["step"]), output_stride=int(integ["output_stride"])
    )

    bounds_cfg = d["bounds"]
    alpha = bounds_cfg["alpha"]
    return ResolvedRun(
        bundle=bundle,
        alloc=alloc,
        mech=mech,
        proto=proto,
        initial=initial,
        integrator=options,
        horizon=float(integ["horizon"]),
        grid_size=int(bounds_cfg["grid_size"]),
        alpha=None if alpha is None else float(alpha),
        config=d,
    )
