"""Time-stepping driver: initial states and observable time series.

The reference initial state is the analytic Gaussian zero mode of the
harmonically trapped walk (continuum.analytic_zero_mode_2d: spinor
(-1,1) (x) (-1,1), width set by beta).  prepare_initial_state takes any
normalized start array, optionally power-refines it toward the exact
unit-eigenvalue eigenstate of U through the Hermitian surrogate
(U + U^dag)/2, displaces it by whole sites, gives it a momentum kick and
band-filters it.  run_dynamics evolves the prepared state and returns its
position moments as one (T, mean_x, mean_y, std_x, std_y) row per record.
"""

import numpy as np

from . import lattice as lat


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
    if not 0 < sigma_t < np.inf:
        raise ValueError(f"sigma_t must be positive and finite, got {sigma_t}")
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


def prepare_initial_state(op, psi, refine_iters=0, shift=(0, 0),
                          kick=(0.0, 0.0), band_pass=None):
    """Refine, displace, kick, and optionally band-filter a start state.

    psi is the normalized (L_x, L_y, 4) start, such as the Gaussian zero
    mode analytic_zero_mode_2d(beta, op.lattice).  refine_iters power
    iterations pull it toward the unit eigenstate; shift = (dx, dy) moves
    it by whole sites; kick = (k_x, k_y) multiplies in a phase of that
    many radians per site; band_pass = (center, sigma_t, passes), when
    given, applies band_filter last.
    """
    if band_pass is not None and len(band_pass) != 3:
        raise ValueError("band_pass must be (center, sigma_t, passes)")
    if refine_iters > 0:
        psi, _ = refine_unit_eigenstate(op, psi, refine_iters)
    psi = lat.translate(psi, *shift)
    psi = lat.apply_phase_kick(psi, kick[0], kick[1], op.lattice)
    if band_pass is not None:
        psi = band_filter(op, psi, *band_pass)
    return psi


def run_dynamics(op, psi, T_max, stride=1):
    """Evolve psi for T_max steps and record its position moments every
    `stride` steps, T = 0 and T = T_max included.

    Returns a float array with one row (T, mean_x, mean_y, std_x, std_y)
    per record.  Raises if the norm drifts by more than 1e-9 over the
    whole run; the check reads the norm off the |psi|^2 map of each
    recorded step, the one its moments come from.

    psi is loaded into the walk's row planes once and stepped there in
    place (`StepOperator2D._step`), and each recorded map is summed
    straight from the planes: the same bits as a loop of `op.apply` and
    `lattice.position_moments`, without laying the state out anew each
    step.  The run overwrites op's workspace; psi is only read.
    """
    if T_max < 1 or stride < 1:
        raise ValueError("T_max and stride must be >= 1")
    records = [(0, *lat.position_moments(psi, op.lattice))]
    op._load(psi)
    for T in range(1, T_max + 1):
        op._step()
        if T % stride == 0 or T == T_max:
            P = op._probability_map()
            drift = abs(np.sqrt(P.sum()) - 1.0)
            if not drift <= 1e-9:
                raise RuntimeError(f"norm drift {drift:.3g} at step {T}")
            records.append((T, *lat.map_moments(P, op.lattice)))
    return np.array(records, dtype=float)
