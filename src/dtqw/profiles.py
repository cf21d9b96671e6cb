"""Coin-angle profiles theta(x) and their little specification grammar.

A parsed profile is the plain tuple ``(kind, params, noise)``.  Three
kinds cover every experiment in the package:

* ``constant`` (theta) -- uniform angle.
* ``linear`` (b, x_c, theta_sat) -- theta = b*x inside |x| <= x_c,
  clamped to sign(x)*theta_sat outside (the walk analogue of a linear
  potential / harmonic trap).
* ``wall`` (theta1, theta2, L_wall) -- theta1 for |x| <= L_wall, theta2
  for |x| > L_wall (two walls on the periodic ring, at +-L_wall).

``noise`` is ``None`` or ``(W, seed)``: a seeded uniform perturbation on
[-W, W], drawn independently per site in ascending coordinate order from
a PCG64 stream, so disorder realizations are bit-reproducible.

`profile_table` evaluates a profile on the symmetric coordinate range
-half..+half of a lattice axis; the half-width is an argument because the
noise realization covers the whole axis.  The walk itself takes only such
tables.

Grammar (used by the CLI and config files)::

    constant:<theta>
    linear:<b>:<x_c>:<theta_sat>
    wall:<theta1>:<theta2>:<L>
    ... optionally followed by +noise:<W>:<seed>

Angles parse as decimals or rational multiples of pi: ``pi/20``, ``-pi/3``,
``3pi/4``, ``2*pi/5``, ``0.25``.
"""

import re

import numpy as np


def parse_angle(text):
    """Parse an angle given as a decimal or a rational multiple of pi.

    Accepted forms: ``0.3``, ``-1.2e-3``, ``pi``, ``-pi``, ``pi/50``,
    ``3pi/4``, ``2*pi/5``.  Raises ValueError on a zero denominator and
    on a value that is not finite (``inf``, ``nan``).
    """
    s = str(text).strip().lower().replace(" ", "")
    m = re.fullmatch(r"(-?)(\d+(?:\.\d+)?)?\*?pi(?:/(\d+(?:\.\d+)?))?", s)
    try:
        if m is None:
            value = float(s)
        else:
            sign = -1.0 if m.group(1) == "-" else 1.0
            num = float(m.group(2)) if m.group(2) else 1.0
            den = float(m.group(3)) if m.group(3) else 1.0
            value = sign * num * np.pi / den
        if not np.isfinite(value):
            raise ValueError
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse angle {text!r}; expected a finite "
                         "decimal or a form like 'pi/20', '-pi/3', "
                         "'3pi/4'") from None
    return value


def _fmt(x):
    # repr round-trips doubles exactly, and stays short for simple values
    return repr(float(x))


def _linear(x, b, x_c, theta_sat):
    """b*x for |x| <= x_c, sign(x)*theta_sat beyond; refuses x_c < 0 and
    a linear part that passes the saturation value."""
    if x_c < 0:
        raise ValueError(f"x_c must be >= 0, got {x_c}")
    if abs(b) * x_c > theta_sat + 1e-12:
        raise ValueError(
            f"linear part exceeds the saturation value: |b|*x_c = "
            f"{abs(b) * x_c:g} > theta_sat = {theta_sat:g}")
    return np.where(np.abs(x) <= x_c, b * x, np.sign(x) * theta_sat)


# kind -> (field parsers, base function of the coordinates and the fields).
# A wall's sites at |x| = L_wall exactly take the inner value theta1; the
# sign flip therefore sits on the bonds just outside +-L_wall.
_KINDS = {
    "constant": ((parse_angle,),
                 lambda x, theta: np.full(np.shape(x), theta)),
    "linear": ((parse_angle, int, parse_angle), _linear),
    "wall": ((parse_angle, parse_angle, int),
             lambda x, theta1, theta2, L_wall: np.where(
                 np.abs(x) <= L_wall, theta1, theta2)),
}


def profile_table(profile, half_width):
    """Angles over the full axis, site coordinates -half..+half ascending.

    The noise draw covers the whole axis in this order, which pins down
    the realization for a given (W, seed, half_width).
    """
    kind, params, noise = profile
    x = np.arange(-int(half_width), int(half_width) + 1)
    theta = np.asarray(_KINDS[kind][1](x, *params), dtype=float)
    if noise is not None:
        W, seed = noise
        rng = np.random.Generator(np.random.PCG64(seed))
        theta = theta + rng.uniform(-W, W, size=x.size)
    return theta


def spec_string(profile):
    """The canonical grammar text of a parsed profile."""
    kind, params, noise = profile
    s = ":".join([kind] + [_fmt(p) if parse is parse_angle else str(p)
                           for parse, p in zip(_KINDS[kind][0], params)])
    if noise is not None:
        s += f"+noise:{_fmt(noise[0])}:{noise[1]}"
    return s


def parse_profile(text):
    """Parse the grammar (see the module docstring) into the tuple
    (kind, params, noise); a noise amplitude of 0 parses as no noise."""
    s = str(text).strip()
    noise = None
    if "+noise:" in s:
        s, noise_part = s.split("+noise:", 1)
        fields = noise_part.split(":")
        if len(fields) != 2:
            raise ValueError(f"bad noise suffix in {text!r}; "
                             "expected +noise:<W>:<seed>")
        noise = (float(fields[0]), int(fields[1]))
    parts = s.split(":")
    kind = parts[0].lower()
    if len(parts) == 1:
        # a bare angle is shorthand for a constant profile
        kind, parts = "constant", ["constant", *parts]
    try:
        parsers = _KINDS[kind][0] if kind in _KINDS else ()
        if len(parts) != 1 + len(parsers):
            raise ValueError
        params = tuple(parse(f) for parse, f in zip(parsers, parts[1:]))
        if kind == "linear":
            _linear(0, *params)        # the saturation check
    except ValueError as err:
        detail = f" ({err})" if str(err) else ""
        raise ValueError(
            f"cannot parse profile {text!r}; expected constant:<theta>, "
            "linear:<b>:<x_c>:<theta_sat>, wall:<theta1>:<theta2>:<L> "
            f"or a bare angle, optionally +noise:<W>:<seed>{detail}") from None
    if noise is not None:
        W, seed = noise
        if not 0 <= W < np.inf or seed < 0:
            raise ValueError(f"noise needs a finite W >= 0 and a seed >= 0, "
                             f"got W = {W}, seed = {seed}")
        if W == 0:
            noise = None
    return kind, params, noise
