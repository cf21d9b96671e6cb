"""Time-stepping driver: initial states and observable time series.

The reference initial state is the analytic Gaussian zero mode of the
harmonically trapped walk (spinor (-1,1) (x) (-1,1), width set by
beta), optionally power-refined toward the exact unit-eigenvalue
eigenstate of U through the Hermitian surrogate (U + U^dag)/2.  The
prepared state can then be displaced by whole sites and given a momentum
kick before the run.
"""

import numpy as np

from . import lattice as lat
from .continuum import BETA, analytic_zero_mode_2d


class DynamicsSpec:
    """Everything run_dynamics needs to prepare a state and record its
    position moments.

    Parameters
    ----------
    op : StepOperator2D
    T_max : number of steps
    stride : record every `stride` steps
    initial : 'gaussian' (default), (x, y, c) for a basis state, or an
        explicit (L_x, L_y, 4) array
    beta_over_eps : Gaussian width parameter beta (the velocity a/dt is
        1; default BETA = pi/20, the value matching the linear coin slope b)
    shift : (dx, dy) whole-site displacement applied after preparation
    kick : (k_x, k_y) phase kick in radians/site
    refine_iters : power-refinement iterations toward the unit eigenstate
    band_pass : optional (center, sigma_t, passes) quasi-energy window
        applied after the kick; see band_filter
    """

    def __init__(self, op, T_max, stride=1, initial="gaussian",
                 beta_over_eps=BETA, shift=(0, 0), kick=(0.0, 0.0),
                 refine_iters=0, band_pass=None):
        if T_max < 1 or stride < 1:
            raise ValueError("T_max and stride must be >= 1")
        self.op = op
        self.T_max = int(T_max)
        self.stride = int(stride)
        self.initial = initial
        self.beta_over_eps = float(beta_over_eps)
        self.shift = (int(shift[0]), int(shift[1]))
        self.kick = (float(kick[0]), float(kick[1]))
        self.refine_iters = int(refine_iters)
        if band_pass is not None:
            band_pass = tuple(float(v) for v in band_pass)
            if len(band_pass) != 3:
                raise ValueError("band_pass must be (center, sigma_t, passes)")
        self.band_pass = band_pass


def refine_unit_eigenstate(op, psi, iterations):
    """Power-iterate (U + U^dag)/2 toward the eigenvalue-1 eigenstate.

    Returns (state, residuals) where residuals[i] = ||U psi - psi|| after
    i iterations (residuals[0] is the input residual).
    """
    psi = lat.normalize(psi)
    U_psi = op.apply(psi)
    residuals = [float(np.linalg.norm(U_psi - psi))]
    for _ in range(iterations):
        psi = lat.normalize(0.5 * (U_psi + op.apply_adjoint(psi)))
        U_psi = op.apply(psi)
        residuals.append(float(np.linalg.norm(U_psi - psi)))
    return psi, residuals


def band_filter(op, psi, center, sigma_t, passes=1):
    """Gaussian quasi-energy window around `center`, matrix-free.

    Accumulates sum_t exp(-t^2/2 sigma_t^2) e^{+i center t} U^t psi over
    |t| <= ceil(3 sigma_t).  Each eigencomponent at quasi-energy E picks up
    the factor sum_t w(t) e^{i(center - E)t}
    ~ exp(-sigma_t^2 (E - center)^2 / 2), so the output is psi filtered
    through a Gaussian window of spectral width 1/sigma_t.  Repeating
    sharpens the window (`passes`).
    """
    if sigma_t <= 0:
        raise ValueError("sigma_t must be positive")
    half_span = int(np.ceil(3 * sigma_t))
    # for sigma_t << 1 the weights past t = 0 overflow to exp(-inf) = 0
    with np.errstate(over="ignore"):
        weights = np.exp(-0.5 * (np.arange(1, half_span + 1) / sigma_t) ** 2)
    out = np.asarray(psi, dtype=complex)
    for _ in range(int(passes)):
        acc = out.copy()
        fwd = out.copy()
        bwd = out.copy()
        for t, w in enumerate(weights, start=1):
            fwd = op.apply(fwd)
            bwd = op.apply_adjoint(bwd)
            ph = np.exp(1j * center * t)
            acc += w * (ph * fwd + np.conj(ph) * bwd)
        out = lat.normalize(acc)
    return out


def prepare_initial_state(spec):
    """Build, refine, displace, kick, and optionally band-filter."""
    op = spec.op
    if isinstance(spec.initial, str) and spec.initial == "gaussian":
        psi = analytic_zero_mode_2d(spec.beta_over_eps, op.lattice)
    elif isinstance(spec.initial, (tuple, list)) and len(spec.initial) == 3:
        psi = lat.basis_state(op.lattice, *spec.initial)
    else:
        psi = np.asarray(spec.initial, dtype=complex)
        if psi.shape != op.lattice.shape:
            raise ValueError(f"initial state shape {psi.shape} does not "
                             f"match lattice {op.lattice!r}")
        psi = lat.normalize(psi)
    if spec.refine_iters > 0:
        psi, _ = refine_unit_eigenstate(op, psi, spec.refine_iters)
    psi = lat.translate(psi, *spec.shift)
    psi = lat.apply_phase_kick(psi, spec.kick[0], spec.kick[1], op.lattice)
    if spec.band_pass is not None:
        psi = band_filter(op, psi, *spec.band_pass)
    return psi


class ObservableSeries:
    """(T, mean_x, mean_y, std_x, std_y) records of one evolution run."""

    def __init__(self, T, mean_x, mean_y, std_x, std_y):
        self.T = np.asarray(T, dtype=int)
        self.mean_x = np.asarray(mean_x)
        self.mean_y = np.asarray(mean_y)
        self.std_x = np.asarray(std_x)
        self.std_y = np.asarray(std_y)

    def rows(self):
        for i in range(len(self.T)):
            yield (int(self.T[i]), self.mean_x[i], self.mean_y[i],
                   self.std_x[i], self.std_y[i])

    def window(self, t_lo, t_hi):
        """Sub-series with t_lo <= T <= t_hi."""
        m = (self.T >= t_lo) & (self.T <= t_hi)
        return ObservableSeries(self.T[m], self.mean_x[m], self.mean_y[m],
                                self.std_x[m], self.std_y[m])


def run_dynamics(spec):
    """Evolve and record moments every `stride` steps (T = 0 included).

    Returns the ObservableSeries.  Raises if the norm drifts by more than
    1e-9 over the whole run; the check reads the norm off the |psi|^2 map
    of each recorded step, the one its moments come from.
    """
    op = spec.op
    psi = prepare_initial_state(spec)
    records = [(0, *lat.position_moments(psi, op.lattice))]
    for T in range(1, spec.T_max + 1):
        psi = op.apply(psi)
        if T % spec.stride == 0 or T == spec.T_max:
            P = lat.probability_map(psi)
            drift = abs(np.sqrt(P.sum()) - 1.0)
            if drift > 1e-9:
                raise RuntimeError(f"norm drift {drift:.3g} at step {T}")
            records.append((T, *lat.map_moments(P, op.lattice)))
    return ObservableSeries(*zip(*records))
