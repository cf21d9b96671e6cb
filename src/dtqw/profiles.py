"""Coin-angle profiles theta(x) and their little specification grammar.

Three variants cover every experiment in the package:

* ``Constant(theta)`` -- uniform angle.
* ``LinearSaturated(b, x_c, theta_sat)`` -- theta = b*x inside |x| <= x_c,
  clamped to sign(x)*theta_sat outside (the walk analogue of a linear
  potential / harmonic trap).
* ``DomainWall(theta1, theta2, L_wall)`` -- theta1 for |x| <= L_wall,
  theta2 for |x| > L_wall (two walls on the periodic ring, at +-L_wall).

Any profile can carry a seeded uniform perturbation on [-W, W], drawn
independently per site in ascending coordinate order from a PCG64 stream,
so disorder realizations are bit-reproducible.

Profiles are evaluated on the symmetric coordinate range -half..+half of a
lattice axis; the half-width is an argument because the noise realization
covers the whole axis.

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


class AngleProfile:
    """Base class: a site-dependent coin angle with optional seeded noise
    (see with_noise)."""

    def __init__(self):
        self.noise_amplitude = 0.0
        self.noise_seed = 0

    def base_value(self, x):
        raise NotImplementedError

    def with_noise(self, W, seed):
        """Copy of this profile carrying a uniform [-W, W] perturbation;
        W must be finite and >= 0, the seed >= 0."""
        if not 0 <= W < np.inf or seed < 0:
            raise ValueError(f"noise needs a finite W >= 0 and a seed >= 0, "
                             f"got W = {W}, seed = {seed}")
        import copy
        p = copy.copy(self)
        p.noise_amplitude = float(W)
        p.noise_seed = int(seed)
        return p

    def table(self, half_width):
        """Angles over the full axis, site coordinates -half..+half ascending.

        The noise draw covers the whole axis in this order, which pins down
        the realization for a given (W, seed, half_width).
        """
        x = np.arange(-int(half_width), int(half_width) + 1)
        theta = np.asarray(self.base_value(x), dtype=float)
        if self.noise_amplitude > 0.0:
            rng = np.random.Generator(np.random.PCG64(self.noise_seed))
            theta = theta + rng.uniform(-self.noise_amplitude,
                                        self.noise_amplitude, size=x.size)
        return theta

    # --- grammar -------------------------------------------------------

    def _base_spec(self):
        raise NotImplementedError

    def to_spec_string(self):
        s = self._base_spec()
        if self.noise_amplitude > 0.0:
            s += f"+noise:{_fmt(self.noise_amplitude)}:{self.noise_seed}"
        return s

    def __repr__(self):
        return f"{type(self).__name__}({self.to_spec_string()!r})"

    def __eq__(self, other):
        return (type(self) is type(other)
                and self.to_spec_string() == other.to_spec_string())


class Constant(AngleProfile):
    def __init__(self, theta):
        super().__init__()
        self.theta = float(theta)

    def base_value(self, x):
        return np.full(np.shape(x), self.theta)

    def _base_spec(self):
        return f"constant:{_fmt(self.theta)}"


class LinearSaturated(AngleProfile):
    """theta(x) = b*x for |x| <= x_c, sign(x)*theta_sat beyond."""

    def __init__(self, b, x_c, theta_sat):
        super().__init__()
        self.b = float(b)
        self.x_c = int(x_c)
        self.theta_sat = float(theta_sat)
        if self.x_c < 0:
            raise ValueError(f"x_c must be >= 0, got {self.x_c}")
        if abs(self.b) * self.x_c > self.theta_sat + 1e-12:
            raise ValueError(
                f"linear part exceeds the saturation value: |b|*x_c = "
                f"{abs(self.b) * self.x_c:g} > theta_sat = {self.theta_sat:g}")

    def base_value(self, x):
        x = np.asarray(x)
        return np.where(np.abs(x) <= self.x_c, self.b * x,
                        np.sign(x) * self.theta_sat)

    def _base_spec(self):
        return f"linear:{_fmt(self.b)}:{self.x_c}:{_fmt(self.theta_sat)}"


class DomainWall(AngleProfile):
    """theta1 inside |x| <= L_wall, theta2 outside.

    The sites at |x| = L_wall exactly take the inner value theta1; the sign
    flip therefore sits on the bonds just outside +-L_wall.
    """

    def __init__(self, theta1, theta2, L_wall):
        super().__init__()
        self.theta1 = float(theta1)
        self.theta2 = float(theta2)
        self.L_wall = int(L_wall)

    def base_value(self, x):
        x = np.asarray(x)
        return np.where(np.abs(x) <= self.L_wall, self.theta1, self.theta2)

    def _base_spec(self):
        return f"wall:{_fmt(self.theta1)}:{_fmt(self.theta2)}:{self.L_wall}"


def parse_profile(text):
    """Parse the profile grammar; see the module docstring."""
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
    try:
        if kind == "constant" and len(parts) == 2:
            prof = Constant(parse_angle(parts[1]))
        elif kind == "linear" and len(parts) == 4:
            prof = LinearSaturated(parse_angle(parts[1]), int(parts[2]),
                                   parse_angle(parts[3]))
        elif kind == "wall" and len(parts) == 4:
            prof = DomainWall(parse_angle(parts[1]), parse_angle(parts[2]),
                              int(parts[3]))
        else:
            # a bare angle is shorthand for a constant profile
            if len(parts) == 1:
                prof = Constant(parse_angle(parts[0]))
            else:
                raise ValueError
    except ValueError as err:
        detail = f" ({err})" if str(err) else ""
        raise ValueError(
            f"cannot parse profile {text!r}; expected constant:<theta>, "
            "linear:<b>:<x_c>:<theta_sat>, wall:<theta1>:<theta2>:<L> "
            f"or a bare angle, optionally +noise:<W>:<seed>{detail}") from None
    if noise is not None:
        prof = prof.with_noise(*noise)
    return prof
