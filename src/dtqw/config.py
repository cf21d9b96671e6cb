"""Experiment configuration: CLI flags, JSON config files, meta echo.

A configuration is a flat mapping of known keys to canonical value
strings.  Canonicalization happens at parse time, so equality, file
round-trips and the ``meta.json`` echo are all exact.  Unknown keys and
malformed values raise ConfigError naming the key and the expected
grammar.  Which of the known keys a run accepts is its preset's table in
``presets.PRESETS``; ``presets.run_config`` refuses the rest.
"""

import json
from collections import OrderedDict

from .profiles import parse_angle, parse_profile, profile_table, spec_string
from .lattice import LatticeSpec
from .operators import StepOperator2D


class ConfigError(ValueError):
    """Unknown key, malformed value, or an unusable combination."""


def _canon_profile(text):
    return spec_string(parse_profile(text))


def _canon_angle(text):
    return repr(float(parse_angle(text)))


def _canon_float(text):
    return repr(float(text))


def _positive(canon):
    """canon, refusing values that are not finite and > 0."""
    def check(text):
        v = canon(text)
        if not 0 < float(v) < float("inf"):
            raise ValueError("must be positive and finite")
        return v
    return check


def _integer(lo=None, odd=False):
    """Canonicalizer of base-10 integers; with `lo` given it refuses those
    below lo, and with `odd` the even ones."""
    def canon(text):
        v = int(str(text), 10)
        if lo is not None and (v < lo or (odd and v % 2 == 0)):
            raise ValueError(f"must be {'odd and ' if odd else ''}>= {lo}")
        return str(v)
    return canon


def _canon_str(text):
    return str(text)


# key -> (canonicalizer, grammar shown in error messages)
_KEYS = OrderedDict([
    ("preset", (_canon_str, "a preset name")),
    ("L_x", (_integer(3, odd=True), "odd integer >= 3")),
    ("L_y", (_integer(3, odd=True), "odd integer >= 3")),
    ("theta_x", (_canon_profile,
                 "constant:<th> | linear:<b>:<x_c>:<th> | "
                 "wall:<th1>:<th2>:<L> [+noise:<W>:<seed>]")),
    ("theta_y", (_canon_profile,
                 "constant:<th> | linear:<b>:<x_c>:<th> | "
                 "wall:<th1>:<th2>:<L> [+noise:<W>:<seed>]")),
    ("T_max", (_integer(1), "integer >= 1")),
    ("stride", (_integer(1), "integer >= 1")),
    ("beta_over_eps", (_positive(_canon_angle),
                       "positive angle (pi/20, 0.15707, ...)")),
    ("shift_x", (_integer(), "integer")),
    ("shift_y", (_integer(), "integer")),
    ("kick_x", (_canon_angle, "angle (pi/N, decimal)")),
    ("kick_y", (_canon_angle, "angle (pi/N, decimal)")),
    ("refine_iters", (_integer(0), "integer >= 0")),
    ("band_center", (_canon_angle, "angle (pi/N, decimal)")),
    ("band_sigma", (_positive(_canon_float), "positive number")),
    ("band_passes", (_integer(1), "integer >= 1")),
    ("k_points", (_integer(1), "integer >= 1")),
    ("count", (_integer(1), "integer >= 1")),
    ("seed", (_integer(0), "integer >= 0")),
    ("outdir", (_canon_str, "directory path")),
])


class ExperimentConfig:
    """Flat, canonical, order-stable experiment description."""

    def __init__(self, values=None):
        self.values = OrderedDict()
        for k, v in (values or {}).items():
            self.set(k, v)

    # -- mutation ---------------------------------------------------------

    def set(self, key, value):
        key = str(key).replace("-", "_")
        if key == "L":                   # fans out to both axes
            self.set("L_x", value)
            return self.set("L_y", value)
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}; known keys: "
                              f"{', '.join(_KEYS)}")
        canon, grammar = _KEYS[key]
        try:
            self.values[key] = canon(value)
        except (ValueError, TypeError) as err:
            detail = f": {err}" if str(err) else ""
            raise ConfigError(f"bad value {value!r} for key {key!r}; "
                              f"expected {grammar}{detail}") from None
        return self

    def update(self, other):
        for k, v in other.items():
            self.set(k, v)
        return self

    # -- typed access -----------------------------------------------------

    def get(self, key):
        """The canonical string of `key`, which must be set."""
        if key not in self.values:
            raise ConfigError(f"{key} is required but missing")
        return self.values[key]

    def get_int(self, key):
        return int(self.get(key))

    def get_float(self, key):
        return float(self.get(key))

    def lattice(self):
        return LatticeSpec(self.get_int("L_x"), self.get_int("L_y"))

    def profile(self, axis, kind=None):
        """The parsed theta_<axis> profile (kind, params, noise); with
        `kind` given it must be of that kind, and a "constant" must also
        carry no noise.  A wall must fit its axis: 0 <= L_wall < L // 2
        leaves sites on both sides of the wall."""
        key = f"theta_{axis}"
        text = self.get(key)
        prof = parse_profile(text)
        if kind is not None and (prof[0] != kind or (
                kind == "constant" and prof[2])):
            noiseless = "noiseless " if kind == "constant" else ""
            raise ConfigError(f"{key} must be a {noiseless}{kind} profile "
                              f"for this pipeline, got {text!r}")
        if prof[0] == "wall":
            L, L_wall = self.get_int(f"L_{axis}"), prof[1][2]
            if not 0 <= L_wall < L // 2:
                raise ConfigError(
                    f"{key} wall half-width {L_wall} does not fit "
                    f"L_{axis} = {L}; need 0 <= L_wall < {L // 2}")
        return prof

    def table(self, axis):
        """The theta_<axis> angles on this config's lattice axis."""
        return profile_table(self.profile(axis),
                             self.get_int(f"L_{axis}") // 2)

    def angle(self, axis):
        """The one value of the theta_<axis> table, for the pipelines
        whose walk must be y-independent."""
        table = self.table(axis)
        if table.min() < table.max():
            key = f"theta_{axis}"
            raise ConfigError(f"{key} must be one angle on its axis for "
                              f"this pipeline, got {self.get(key)!r}")
        return float(table[0])

    def step_operator(self):
        """The walk of this config."""
        return StepOperator2D(self.lattice(), self.table("x"),
                              self.table("y"))

    def band_pass(self):
        return (self.get_float("band_center"), self.get_float("band_sigma"),
                self.get_int("band_passes"))

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return dict(self.values)

    def __eq__(self, other):
        return (isinstance(other, ExperimentConfig)
                and dict(self.values) == dict(other.values))

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.values.items())
        return f"ExperimentConfig({inner})"


def _load_file(path):
    """The flat key -> value object of a JSON config file: a meta.json
    echo (its "config" entry) or a flat object."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    if isinstance(obj, dict) and "config" in obj:
        obj = obj["config"]          # a meta.json echo
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object of "
                          "key: value settings")
    return obj


def parse_config(args=(), file=None):
    """Build a config from an optional file plus --key value overrides.

    `args` is a flat token list (--key value or --key=value); flags
    override file values.  The file is JSON: a flat object of settings
    or a meta.json produced by an earlier run (closure: re-running from
    the echo reproduces the experiment).
    """
    cfg = ExperimentConfig()
    if file is not None:
        cfg.update(_load_file(file))
    tokens = list(args)
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"expected --key, got {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(tokens):
                raise ConfigError(f"flag --{key} is missing a value")
            value = tokens[i + 1]
            i += 2
        cfg.set(key, value)
    return cfg
