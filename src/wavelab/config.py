"""Scenario configuration: a small flat key=value format and its validation.

Documents look like::

    # comment
    [scenario]
    name = conservation
    mode = radial              # radial | cartesian-2d
    T = 40

    [grid]
    h = 0.0078125              # default: R0 / 128
    cfl = 0.45

    [data]
    epsilon = 0.3              # scalar or comma list
    sigma_samples = -2, -1, 0, 0.5
    theta_samples = 0

    [bump]                     # repeated once per bump
    component = 1              # 1 | 2
    kind = f                   # f (position) | g (velocity)
    center = 0, 0
    radius = 1.0
    amplitude = 1.0

One table, _KEYS, gives each key its section, the reader of its text and,
outside [bump], the ScenarioConfig field it sets; a document line and the
CLI option of its key are read through it.  Required: scenario.name,
data.epsilon and at least one bump; a key left out takes ScenarioConfig's
default.  Each scenario's record in scenarios.SCENARIOS lists the optional
keys it reads, and the CLI rejects the rest.  A key is set at most once in a
document (once per table for [bump]), also across repeated section headers.
Parse errors carry the offending line number; validation errors name the
offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bumps import BumpSpec, InitialData

__all__ = [
    "ScenarioConfig",
    "ConfigParseError",
    "ConfigValidationError",
    "parse_scenario",
    "set_keys",
    "epsilons", "read", "settings",
    "DEFAULT_CFL",
    "DEFAULT_POINTS_PER_RADIUS",
]

DEFAULT_CFL = 0.45
# default grid spacing h = R0 / 128
DEFAULT_POINTS_PER_RADIUS = 128
DEFAULT_SIGMA_SAMPLES = (-2.0, -1.0, 0.0, 0.5)

# largest stable CFL number dt/h of each grid mode
CFL_LIMITS = {"radial": 0.9, "cartesian-2d": 0.45}


class ConfigParseError(ValueError):
    """Malformed configuration text; .line is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigValidationError(ValueError):
    """A parsed value violates an invariant; .field names the culprit."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class _Derived:
    """Marks a field value that ScenarioConfig derived from other fields.

    dataclasses.replace passes every field back to __init__, so a derived
    value would otherwise outlive a change of the fields it came from;
    __post_init__ derives a marked value anew.  A marked float or tuple
    compares, hashes and prints like a plain one.
    """


class _DerivedFloat(_Derived, float):
    pass


class _DerivedTuple(_Derived, tuple):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated description of one experiment."""

    name: str
    data: InitialData
    mode: str = "radial"
    h: float | None = None       # None means "derive from support radius"
    cfl: float = DEFAULT_CFL
    T: float | None = None       # None means "derive as 4 / min(eps)"
    sigma_samples: tuple[float, ...] | None = None   # None: (0,) symmetric-decay, else 4 rays
    theta_samples: tuple[float, ...] | None = None   # None: (0,) radial, 16 angles 2-D
    eps_list: tuple[float, ...] | None = None        # None: (data.epsilon,)
    out_dir: str | None = None

    @property
    def dt(self) -> float:
        """The time step of every run of this config: cfl * h."""
        return self.cfl * self.h

    def _derive(self, name: str, rule, given=lambda value: value) -> None:
        """Set field name to rule(), marked as derived, unless it was given.

        None and a value derived before count as not given; a given value
        is stored as given(value).
        """
        value = getattr(self, name)
        if value is None or isinstance(value, _Derived):
            value = rule()
            value = (_DerivedFloat if isinstance(value, float) else _DerivedTuple)(value)
        else:
            value = given(value)
        object.__setattr__(self, name, value)

    def __post_init__(self):
        if self.mode not in CFL_LIMITS:
            raise ConfigValidationError(
                "mode", f"must be one of {tuple(CFL_LIMITS)}, got {self.mode!r}")
        for bump in self.data.all_bumps():
            for field_name in ("center", "radius", "amplitude"):
                value = getattr(bump, field_name)
                if not np.all(np.isfinite(value)):
                    raise ConfigValidationError(field_name, f"must be finite, got {value}")
        self._derive("eps_list", lambda: (self.data.epsilon,), tuple)
        epsilons(self.eps_list, "epsilon")
        self._derive("h", lambda: self.data.support_radius / DEFAULT_POINTS_PER_RADIUS)
        if not 0 < self.h < math.inf:
            raise ConfigValidationError("h", f"must be positive and finite, got {self.h}")
        self._derive("T", lambda: 4.0 / min(self.eps_list))
        if not 0 < self.T < math.inf:
            raise ConfigValidationError("T", f"must be positive and finite, got {self.T}")
        if not 0 < self.cfl <= CFL_LIMITS[self.mode]:
            raise ConfigValidationError("cfl", f"out of stable range for {self.mode}: {self.cfl}")
        if self.mode == "radial" and not self.data.is_centered():
            raise ConfigValidationError(
                "mode", "radial mode requires every bump center at the origin")
        self._derive("sigma_samples", lambda: (0.0,) if self.name == "symmetric-decay"
                     else DEFAULT_SIGMA_SAMPLES, _floats)
        self._derive("theta_samples", lambda: (0.0,) if self.mode == "radial" else _floats(
            np.linspace(0, 2 * np.pi, 16, endpoint=False)), _floats)
        for field_name in ("sigma_samples", "theta_samples"):
            values = getattr(self, field_name)
            if not values:
                raise ConfigValidationError(field_name, "empty list")
            for v in values:
                if not math.isfinite(v):
                    raise ConfigValidationError(field_name, f"non-finite entry {v}")
        if len(set(self.sigma_samples)) < len(self.sigma_samples):
            raise ConfigValidationError("sigma_samples", "repeated sigma in "
                                        + ", ".join(f"{s:g}" for s in self.sigma_samples))
        # the angle grid of a radiation table
        if any(b <= a for a, b in zip(self.theta_samples, self.theta_samples[1:])):
            raise ConfigValidationError("theta_samples", "must be strictly increasing, got "
                                        + ", ".join(f"{t:g}" for t in self.theta_samples))


def epsilons(values, field_name: str) -> tuple[float, ...]:
    """values as a tuple, or ConfigValidationError(field_name) when it is empty
    or holds an epsilon that is not positive and finite."""
    values = tuple(values)
    if not values:
        raise ConfigValidationError(field_name, "empty epsilon list")
    for e in values:
        if not 0 < e < math.inf:
            raise ConfigValidationError(field_name, f"must be positive and finite, got {e}")
    return values


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _numbers(text: str) -> tuple[float, ...]:
    """A comma list of numbers; empty entries are skipped."""
    return _floats(tok for tok in text.split(",") if tok.strip())


# every key of a document, {section: {key: (reader of its text, the
# ScenarioConfig field it sets)}}; a [bump] key sets a part of one BumpSpec
_KEYS = {
    "scenario": {"name": (str, "name"), "mode": (str, "mode"), "T": (float, "T"),
                 "out": (str, "out_dir")},
    "grid": {"h": (float, "h"), "cfl": (float, "cfl")},
    "data": {"epsilon": (_numbers, "eps_list"), "sigma_samples": (_numbers, "sigma_samples"),
             "theta_samples": (_numbers, "theta_samples")},
    "bump": {"component": (float, None), "kind": (str, None), "center": (_numbers, None),
             "radius": (float, None), "amplitude": (float, None)},
}
_READS_AS = {float: "a number", _numbers: "a number list"}


def _entry(name: str) -> tuple:
    section, key = name.split(".")
    return _KEYS[section][key]


def read(name: str, text: str):
    """text read as the value of the key name, "section.key"; ValueError
    "cannot parse TEXT as a number" (or "as a number list") when malformed."""
    reader = _entry(name)[0]
    try:
        return reader(text)
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as {_READS_AS[reader]}") from None


def settings(values: dict) -> dict:
    """The ScenarioConfig fields that {"section.key": value} outside [bump] set."""
    return {_entry(name)[1]: value for name, value in values.items()}


def _read_document(text: str):
    """The scalar keys and bump tables ({"section.key": (value, line)}) of a
    configuration document, each value read by its key's reader, and the bump
    tables' header lines, before any validation."""
    scalars, bumps, bump_lines, section = {}, [], [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigParseError(f"unterminated section header {raw.strip()!r}", lineno)
            section = line[1:-1].strip().lower()
            if section not in _KEYS:
                raise ConfigParseError(f"unknown section [{section}]", lineno)
            if section == "bump":
                bumps.append({})
                bump_lines.append(lineno)
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if section is None:
            raise ConfigParseError("key outside any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS[section]:
            raise ConfigParseError(f"unknown key {key!r} in section [{section}]", lineno)
        name = f"{section}.{key}"
        table = bumps[-1] if section == "bump" else scalars
        if name in table:
            raise ConfigParseError(
                f"{key!r} in [{section}] is already set on line {table[name][1]}", lineno)
        try:
            table[name] = (read(name, value), lineno)
        except ValueError as exc:
            raise ConfigParseError(f"{name}: {exc}", lineno) from None
    return scalars, bumps, bump_lines


def set_keys(text: str) -> frozenset[str]:
    """The "section.key" names a configuration document sets (bumps aside).

    A parsed ScenarioConfig cannot tell a value set in the file from a
    default; this can.
    """
    return frozenset(_read_document(text)[0])


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a configuration document.  ScenarioConfig gets only
    the keys the document sets: it holds every default."""
    scalars, bumps, bump_lines = _read_document(text)
    for name in ("scenario.name", "data.epsilon"):
        if name not in scalars:
            raise ConfigValidationError(name, "required key is missing")
    given = settings({name: value for name, (value, _) in scalars.items()})
    eps_list = epsilons(given.pop("eps_list"), "epsilon")
    if len(eps_list) > 1:
        given["eps_list"] = eps_list

    if not bumps:
        raise ConfigValidationError("bump", "at least one [bump] table is required")
    fields = {"f1": [], "g1": [], "f2": [], "g2": []}
    for table, header_line in zip(bumps, bump_lines):
        spec = {name[len("bump."):]: value for name, (value, _) in table.items()}
        for key in ("component", "kind", "radius", "amplitude"):
            if key not in spec:
                raise ConfigParseError(f"bump table is missing key {key!r}", header_line)
        component, kind = spec["component"], spec["kind"]
        if component not in (1.0, 2.0):
            raise ConfigValidationError("component", f"must be 1 or 2, got {component}")
        if kind not in ("f", "g"):
            raise ConfigValidationError("kind", f"must be 'f' or 'g', got {kind!r}")
        center = spec.get("center", (0.0, 0.0))
        if len(center) != 2:
            raise ConfigValidationError("center", f"needs two coordinates, got {list(center)}")
        try:
            bump = BumpSpec(center=center, radius=spec["radius"], amplitude=spec["amplitude"])
        except ValueError as exc:           # the radius rule
            raise ConfigValidationError("radius", str(exc)) from None
        fields[f"{kind}{int(component)}"].append(bump)

    data = InitialData(**fields, epsilon=eps_list[0])
    return ScenarioConfig(data=data, **given)
