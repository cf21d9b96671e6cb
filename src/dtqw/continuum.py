"""Continuum-side oracles: lattice Dirac Hamiltonians and analytic states.

The walk factors are exact exponentials once momentum is realized as the
Fourier-spectral derivative on the periodic lattice:

    S_x = exp(+i a p_x sigma^z)          C_x = exp(-i theta_x sigma^y)
    S_y = exp(+i a p_y tau^z sigma^x)    C_y = exp(-i theta_y tau^y sigma^x)

so one walk step is the first-order product formula for the Hamiltonian

    H = -sigma^z p_x + m_x(x) sigma^y
        - tau^z sigma^x p_y + m_y(y) tau^y sigma^x

in the walk's units: lattice constant a and time step dt are 1, so the
Dirac velocity a/dt is 1 as well.  H = H_x (x) tau^0 + sigma^x (x) H_y with
the 1D factors

    H_mu = -s^z p_mu + m_mu s^y,   {s^x, H_mu} = 0.

With a linear mass m = beta*x this is a Dirac oscillator: H^2 restricted to
a s^x sector is a shifted harmonic oscillator with omega = 2*beta, the
spectrum is +-sqrt(n*omega), and the zero mode is the Gaussian
(-1, 1)^T exp(-beta x^2 / 2) living in the s^x = -1 sector.

Internal tensor products follow the walk basis c = 2*tau + sigma, so a
product written A_sigma (x) B_tau is the matrix kron(B_tau, A_sigma).
Position-space operators act on flattened (x[, y[, z]], internal) arrays
with the internal index fastest.
"""

import numpy as np

from .lattice import LatticeSpec

SIGMA_0 = np.eye(2)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

BETA = np.pi / 20   # linear mass slope, equal to the coin slope b


class LatticeTooSmall(ValueError):
    """An analytic state's tail reaches the lattice boundary; the message
    names the axis lengths (L_x, L_y) that are too small."""


def momentum_matrix(L):
    """Hermitian momentum p = -i d/dx on the periodic L-site axis.

    The Fourier-spectral derivative: exact on plane waves (diagonal k in
    the Fourier basis), which makes exp(+-i a p) the exact one-site
    translation.
    """
    L = LatticeSpec(L).L_x
    k = 2.0 * np.pi * np.fft.fftfreq(L)
    P = np.fft.ifft(k[:, None] * np.fft.fft(np.eye(L), axis=0), axis=0)
    return 0.5 * (P + P.conj().T)   # symmetrize away rounding


def _dirac_terms(m):
    """The kinetic and mass terms of H = -s^z p + m(x) s^y.

    Returns ((p, -s^z), (diag m, s^y)), each a (site, internal) pair
    whose kron is the term on (x, spinor).
    """
    return ((momentum_matrix(len(m)), -SIGMA_Z),
            (np.diag(m), SIGMA_Y))


def dirac_1d_factor(m):
    """The 2-component factor H = -s^z p + m(x) s^y on (x, spinor), for
    the site masses m along an odd axis (theta = m*dt with dt = 1)."""
    kinetic, mass_term = _dirac_terms(m)
    return np.kron(*kinetic) + np.kron(*mass_term)


def apply_dirac_2d(h_x, h_y, psi):
    """H psi for H = H_x (x) tau^0 + sigma^x (x) H_y, without forming H.

    h_x, h_y are the (2 L_x)^2 and (2 L_y)^2 dirac_1d_factor matrices;
    psi is any array of L_x * L_y * 4 amplitudes in the (x, y, tau, sigma)
    layout.  Returns the product in the shape of psi.
    """
    L_x, L_y = h_x.shape[0] // 2, h_y.shape[0] // 2
    psi4 = np.asarray(psi).reshape(L_x, L_y, 2, 2)
    hx4 = h_x.reshape(L_x, 2, L_x, 2)
    hy4 = h_y.reshape(L_y, 2, L_y, 2)
    out = np.einsum("asbt,byut->ayus", hx4, psi4)
    # sigma^x on the sigma slot is the flip s -> 1 - s
    out += np.einsum("yuzv,azvs->ayus", hy4, psi4[..., ::-1])
    return out.reshape(np.shape(psi))


def build_dirac(*masses):
    """Dense lattice Dirac Hamiltonian of one or two site-mass arrays.

    The number of arrays is the dimension and their lengths are the odd
    axis lengths.  One array m gives dirac_1d_factor(m); a pair
    (m_x, m_y) assembles

        H = H_x (x) tau^0 + sigma^x (x) H_y

    over flattened (x, y, tau, sigma) with sigma fastest, which matches the
    walk's (x, y, c) state layout.  Returns the Hermitian matrix as an
    ndarray.
    """
    if len(masses) == 1:
        H = dirac_1d_factor(masses[0])
    elif len(masses) == 2:
        L_x, L_y = map(len, masses)
        H = np.zeros((4 * L_x * L_y,) * 2, dtype=complex)
        H8 = H.reshape((L_x, L_y, 2, 2) * 2)     # a view: writes reach H
        hx4, hy4 = (dirac_1d_factor(m).reshape(len(m), 2, len(m), 2)
                    for m in masses)
        for y in range(L_y):
            for u in range(2):
                H8[:, y, u, :, :, y, u, :] += hx4
        for x in range(L_x):                     # sigma^x: s -> 1 - s
            for s in range(2):
                H8[x, :, :, s, x, :, :, 1 - s] += hy4
    else:
        raise ValueError(f"build_dirac takes one or two mass arrays, got "
                         f"{len(masses)}")
    herm = np.max(np.abs(H - H.conj().T))
    if not herm <= 1e-12:
        raise ValueError(f"assembled matrix is not Hermitian "
                         f"(max deviation {herm:.3g})")
    return H


def square_decomposition_check(h_x, h_y, m_x, m_y):
    """Residual of (H^(2))^2 against its Schroedinger direct-sum form.

    Takes the two dirac_1d_factor matrices and their masses.  Squaring
    the 2D Hamiltonian must produce

        H_Sx (x) tau^0 + sigma^0 (x) H_Sy,
        H_Smu = p^2 + m_mu^2 + i s^x [p, m_mu],

    and the difference is, term by term,

        (H_x^2 - H_Sx) (x) 1 + 1 (x) (H_y^2 - H_Sy) + {H_x, sigma^x} (x) H_y,

    so the sigma-tau cross term cancels exactly when the x factor
    anticommutes with sigma^x.  Returns the largest max-norm entry of the
    two 1D residuals and of that anticommutator, at O(L^3) cost.  The
    commutator term is kept as the exact lattice commutator, which for a
    discontinuous wall mass concentrates at the wall sites.
    """
    def schroedinger_1d(m):
        p = momentum_matrix(len(m))
        comm = p @ np.diag(m) - np.diag(m) @ p
        return (np.kron(p @ p + np.diag(m ** 2), SIGMA_0)
                + 1j * np.kron(comm, SIGMA_X))

    flip = np.kron(np.eye(len(m_x)), SIGMA_X)
    return float(max(np.max(np.abs(h_x @ h_x - schroedinger_1d(m_x))),
                     np.max(np.abs(h_y @ h_y - schroedinger_1d(m_y))),
                     np.max(np.abs(h_x @ flip + flip @ h_x))))


class SquaredDirac2D:
    """H^2 of the 2D Dirac Hamiltonian, diagonalized through its factors.

    H = H_x (x) tau^0 + sigma^x (x) H_y with {H_x, sigma^x} = 0 squares
    to the Kronecker sum H^2 = H_x^2 (x) 1 + 1 (x) H_y^2, so the products
    u_i (x) v_j of the factor eigenvectors diagonalize H^2 with
    eigenvalues lam_ij = e_x,i^2 + e_y,j^2.  Any function of H^2 then
    costs two (2L)^2 eigensolves and (2L)^3 products; no (4 L_x L_y)^2
    matrix is formed.  Coefficient matrices C are indexed (i, j).
    """

    def __init__(self, h_x, h_y):
        self.h_x, self.h_y = h_x, h_y
        self.e_x, self.U = np.linalg.eigh(h_x)
        self.e_y, self.V = np.linalg.eigh(h_y)
        self.lam = self.e_x[:, None] ** 2 + self.e_y[None, :] ** 2

    def energies(self):
        """The 4 L_x L_y eigenvalues of H, ascending.

        sigma^x maps the e_x eigenvector onto the -e_x one, and on each
        such pair (times v_j) H is [[e_x, e_y], [e_y, -e_x]] with
        eigenvalues +-sqrt(lam).  The upper half of the sorted e_x holds
        one row per pair; unlike the sign of e_x, that choice does not
        depend on the arbitrary signs of H_x's near-zero modes.
        """
        r = np.sqrt(self.lam[len(self.e_x) // 2:]).ravel()
        return np.sort(np.concatenate([-r, r]))

    def coefficients(self, psi):
        """C_ij = <u_i (x) v_j | psi> for psi in the (x, y, tau, sigma)
        layout."""
        L_x, L_y = len(self.e_x) // 2, len(self.e_y) // 2
        G = np.asarray(psi).reshape(L_x, L_y, 2, 2).transpose(0, 3, 1, 2)
        return self.U.conj().T @ G.reshape(2 * L_x, 2 * L_y) @ self.V.conj()

    def expand(self, C):
        """sum_ij C_ij u_i (x) v_j, flat in the (x, y, tau, sigma) layout."""
        L_x, L_y = len(self.e_x) // 2, len(self.e_y) // 2
        G = (self.U @ C @ self.V.T).reshape(L_x, 2, L_y, 2)
        return G.transpose(0, 2, 3, 1).ravel()

    def propagate(self, psi0, t):
        """exp(-i H t) psi0 = cos(t |H|) psi0 - i H sin(t |H|) / |H| psi0.

        Both ratios are functions of H^2, taken in its eigenbasis; H itself
        is applied by apply_dirac_2d.  sin(t r) / r is written as
        t sinc(t r / pi), which is exact at r = 0.
        """
        C = self.coefficients(psi0)
        r = np.sqrt(self.lam)
        sin_part = self.expand(t * np.sinc(t * r / np.pi) * C)
        return (self.expand(np.cos(t * r) * C)
                - 1j * apply_dirac_2d(self.h_x, self.h_y, sin_part))


def hermite_state(n, beta, L):
    """n-th harmonic oscillator eigenfunction sampled on the lattice.

    Generated by the ladder recurrence
    psi_{n+1} proportional to (-sqrt(1/beta) d/dx + sqrt(beta) x) psi_n
    with the spectral derivative, starting from the Gaussian
    psi_0 ~ exp(-beta x^2 / 2); each level is renormalized on the
    lattice.  Raises LatticeTooSmall when the lattice cannot hold the
    tail.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    x = LatticeSpec(L).coords_x.astype(float)
    lam = np.sqrt(1.0 / beta)           # oscillator length
    psi = np.exp(-x ** 2 / (2.0 * lam ** 2))
    psi = psi / np.linalg.norm(psi)
    if n > 0:
        p = momentum_matrix(L)
        ddx = 1j * p                    # d/dx = i p since p = -i d/dx
        for _ in range(n):
            psi = -lam * (ddx @ psi) + (x / lam) * psi
            psi = psi / np.linalg.norm(psi)
    tail = float(np.abs(psi[0]) ** 2 + np.abs(psi[-1]) ** 2)
    if not tail <= 1e-6:
        raise LatticeTooSmall(f"L_x = {L} is too small for oscillator "
                              f"level n={n}: boundary probability "
                              f"{tail:.3g} > 1e-6")
    return psi


def dirac_oscillator_eigenstate(n, sign, beta, L):
    """Analytic eigenstates of the 1D linear-mass (oscillator) Hamiltonian
    with mass slope beta and omega = 2*beta.

    sign '+'/'-' (n >= 1): energy +-sqrt(n*omega), spinor
        (1/sqrt2) (|n-1>, |n-1>)^T +- (i/sqrt2) (-|n>, |n>)^T
    sign 0 (n ignored): the zero mode (1/sqrt2) (-|0>, |0>)^T.

    Returns an (L, 2) complex array, unit lattice norm.
    """
    L = LatticeSpec(L).L_x
    out = np.zeros((L, 2), dtype=complex)
    if sign == 0:
        h0 = hermite_state(0, beta, L)
        out[:, 0] = -h0
        out[:, 1] = h0
    elif sign in ("+", "-"):
        s = +1 if sign == "+" else -1
        if n < 1:
            raise ValueError("n must be >= 1 for the +- branches")
        lo = hermite_state(n - 1, beta, L)
        hi = hermite_state(n, beta, L)
        out[:, 0] = lo - s * 1j * hi
        out[:, 1] = lo + s * 1j * hi
    else:
        raise ValueError(f"sign must be '+', '-' or 0, got {sign!r}")
    return out / np.linalg.norm(out)


def combine_2d(E_x, E_y, s):
    """Mix two 1D eigenstates into a 2D eigenstate.

    The Ansatz  Psi = (gamma + delta s^x) (psi_x (x) psi_y)  with
    H psi_x = E_x psi_x, H psi_y = E_y psi_y and s = <psi_x|s^x|psi_x>
    is an exact eigenstate of H^(2) at energy E = +-sqrt(E_x^2 + E_y^2);
    (gamma, delta) = A (cos phi, sin phi) with tan 2phi = E_y / E_x and
    the normalization A^2 (1 + s sin 2phi) = 1.

    Returns (E, gamma, delta) for the E = +sqrt(E_x^2 + E_y^2) branch,
    with E_x = E cos 2phi and E_y = E sin 2phi.  Errors out when the
    combination is non-normalizable (1 + s sin 2phi <= 0).
    """
    for name, E in (("E_x", E_x), ("E_y", E_y)):
        if not np.isfinite(E):
            raise ValueError(f"{name} must be finite, got {E}")
    if E_x == 0.0 and E_y == 0.0:
        raise ValueError("(E_x, E_y) = (0, 0): the zero mode does not mix; "
                         "use the product of 1D zero modes directly")
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"s must be in [-1, 1], got {s}")
    E = float(np.hypot(E_x, E_y))
    two_phi = np.arctan2(E_y, E_x)
    phi = float(0.5 * two_phi)
    denom = 1.0 + s * np.sin(two_phi)
    if denom <= 1e-12:
        raise ValueError(
            f"combination not normalizable: 1 + s*sin(2phi) = {denom:.3g} <= 0")
    A = float(1.0 / np.sqrt(denom))
    return E, A * np.cos(phi), A * np.sin(phi)


def analytic_zero_mode_2d(beta, lattice):
    """The oscillator ground state, a closed-form 2D zero mode, sampled on
    the walk lattice: spinor (-1,1) (x) (-1,1) times
    exp(-beta (x^2+y^2) / 2).

    Returns a normalized (L_x, L_y, 4) array; raises LatticeTooSmall when
    the tail at the lattice boundary exceeds 1e-8.
    """
    if not 0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    xs = lattice.coords_x.astype(float)
    ys = lattice.coords_y.astype(float)
    fx = np.exp(-beta * xs ** 2 / 2.0)
    fy = np.exp(-beta * ys ** 2 / 2.0)
    spinor = np.kron([-1.0, 1.0], [-1.0, 1.0])   # tau (x) sigma = (+,-,-,+)
    psi = fx[:, None, None] * fy[None, :, None] * spinor[None, None, :]
    psi = psi.astype(complex)
    psi /= np.linalg.norm(psi)
    P = np.sum(np.abs(psi) ** 2, axis=2)
    tail = float(P[0, :].sum() + P[-1, :].sum()
                 + P[1:-1, 0].sum() + P[1:-1, -1].sum())
    if not tail <= 1e-8:
        raise LatticeTooSmall(f"L_x = {lattice.L_x}, L_y = {lattice.L_y} is "
                              f"too small for the Gaussian zero mode: "
                              f"boundary tail {tail:.3g} > 1e-8")
    return psi


def jr_scattering(k_x, m0):
    """Reflection/transmission data against a mass wall.

    With tan 2phi = m0 / k_x: B/A = -sin 2phi, C/A = -cos 2phi and
    E_x = +sqrt(k_x^2 + m0^2); flux conservation |B/A|^2 + |C/A|^2 = 1
    holds identically.
    """
    if not 0 < k_x < np.inf:
        raise ValueError(f"k_x must be positive and finite, got {k_x}")
    if not np.isfinite(m0):
        raise ValueError(f"m0 must be finite, got {m0}")
    two_phi = np.arctan2(m0, k_x)
    B_over_A = complex(-np.sin(two_phi))
    C_over_A = complex(-np.cos(two_phi))
    E_x = float(np.hypot(k_x, m0))
    return B_over_A, C_over_A, E_x


def _expm_factor(H, t):
    """exp(-i H t) for Hermitian H via eigendecomposition."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def _axis_step(kinetic, mass, dt):
    """exp(-iK dt) exp(-iM dt) on one axis from the (site, internal) pairs
    of its kinetic term K and mass term M (see _dirac_terms).

    Mass rotation first, then the kinetic shift, matching a coin-then-shift
    walk step.
    """
    return (_expm_factor(np.kron(*kinetic), dt)
            @ _expm_factor(np.kron(*mass), dt))


def trotter_error(masses, dt, t, psi0=None):
    """Splitting error of the walk-style product formula at step size dt.

    `masses` holds one site-mass array (1D) or the pair (m_x, m_y) (2D).
    Scales the walk to step dt (shift distance dt realized spectrally,
    coin angles m*dt), applies t/dt product steps to psi0 and compares with
    the exact propagator exp(-i H t) of the same lattice Hamiltonian.
    Returns the 2-norm of the difference.  psi0 defaults to a Gaussian of
    width parameter BETA displaced two sites along x.

    1D uses the two-factor product exp(-iK dt) exp(-iM dt); 2D the
    walk's four-factor order exp(-iK_y dt) exp(-iM_y dt) exp(-iK_x dt)
    exp(-iM_x dt).  With m = 0 the product is exact for any dt.

    Each factor acts along one axis, so the step is applied as a (2 L)^2
    x-factor on (x, sigma) and, in 2D, a (4 L)^2 y-factor on
    (y, tau, sigma).  The 1D reference is the action of exp(-i H t) on
    psi0 (Al-Mohy & Higham 2011); the 2D one is exact in the eigenbases of
    the two 1D factors (SquaredDirac2D.propagate).
    """
    steps = t / dt
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"t/dt = {steps:.6g} is not an integer; choose a "
                         "commensurate step")
    steps = int(round(steps))
    if len(masses) == 1:
        from scipy.sparse.linalg import expm_multiply

        m, = masses
        H = dirac_1d_factor(m)
        s_x = _axis_step(*_dirac_terms(m), dt)

        def step(psi):
            return s_x @ psi

        def exact(psi):
            return expm_multiply(-1j * t * H, psi)

        if psi0 is None:
            g = np.exp(-(LatticeSpec(len(m)).coords_x - 2.0) ** 2
                       * BETA / 2.0)
            psi0 = np.kron(g, [1.0, 0.0]).astype(complex)
    elif len(masses) == 2:
        m_x, m_y = masses
        L_x, L_y = len(m_x), len(m_y)
        s_x = _axis_step(*_dirac_terms(m_x), dt).reshape(L_x, 2, L_x, 2)
        # the y factor chains sigma^x onto both internal parts
        kin_y, mass_y = ((p, np.kron(g, SIGMA_X))
                         for p, g in _dirac_terms(m_y))
        s_y = _axis_step(kin_y, mass_y, dt)

        def step(psi):
            # x-factor on (x, sigma) with (y, tau) spectating, then the
            # y-factor on the contiguous (y, tau, sigma) slots
            psi = np.einsum("asbt,bmt->ams", s_x,
                            psi.reshape(L_x, 2 * L_y, 2))
            return (psi.reshape(L_x, 4 * L_y) @ s_y.T).ravel()

        def exact(psi):
            return SquaredDirac2D(dirac_1d_factor(m_x),
                                  dirac_1d_factor(m_y)).propagate(psi, t)

        if psi0 is None:
            lat = LatticeSpec(L_x, L_y)
            gx = np.exp(-(lat.coords_x - 2.0) ** 2 * BETA / 2.0)
            gy = np.exp(-lat.coords_y ** 2 * BETA / 2.0)
            psi0 = np.kron(np.kron(gx, gy), [1.0, 0.0, 0.0, 0.0]).astype(complex)
    else:
        raise ValueError(f"trotter_error takes one or two mass arrays, got "
                         f"{len(masses)}")
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    psi0 = psi0 / np.linalg.norm(psi0)

    psi = psi0
    for _ in range(steps):
        psi = step(psi)
    return float(np.linalg.norm(psi - exact(psi0)))
