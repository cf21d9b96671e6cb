import numpy as np
import pytest

from dtqw.continuum import BETA, analytic_zero_mode_2d
from dtqw.lattice import (LatticeSpec, apply_phase_kick, map_moments,
                          normalize, position_moments, probability_map,
                          translate)


def basis_state(lattice, x, y, c):
    """Unit amplitude at site (x, y) in component c: a start state for
    the tests, at index (x + half_x, y + half_y, c)."""
    psi = np.zeros(lattice.shape, dtype=complex)
    psi[x + lattice.half_x, y + lattice.half_y, c] = 1.0
    return psi


class TestLatticeSpec:
    def test_coords_are_centered(self):
        lat = LatticeSpec(7)
        assert lat.coords_x.tolist() == [-3, -2, -1, 0, 1, 2, 3]
        assert lat.shape == (7, 7, 4)

    def test_rectangular(self):
        lat = LatticeSpec(5, 9)
        assert lat.half_x == 2 and lat.half_y == 4
        assert lat.size == 5 * 9 * 4

    @pytest.mark.parametrize("L", [2, 4, 1, -3])
    def test_even_or_tiny_sizes_rejected(self, L):
        with pytest.raises(ValueError):
            LatticeSpec(L)


class TestStates:
    def test_basis_state_is_normalized_delta(self):
        lat = LatticeSpec(9)
        psi = basis_state(lat, 2, -1, 3)
        assert np.linalg.norm(psi) == pytest.approx(1.0)
        P = probability_map(psi)
        assert P[lat.half_x + 2, lat.half_y - 1] == pytest.approx(1.0)

    def test_gaussian_moments(self):
        lat = LatticeSpec(41)
        beta = np.pi / 20
        psi = analytic_zero_mode_2d(beta, lat)
        mx, my, sx, sy = position_moments(psi, lat)
        assert abs(mx) < 1e-12 and abs(my) < 1e-12
        # |psi|^2 ~ exp(-beta x^2): sigma = sqrt(1 / (2 beta))
        assert sx == pytest.approx(np.sqrt(1 / (2 * beta)), rel=0.02)
        assert sy == pytest.approx(sx)

    def test_translate_wraps_periodically(self):
        lat = LatticeSpec(5)
        psi = basis_state(lat, 2, 0, 0)
        P = probability_map(translate(psi, 1, 0))
        assert P[0, lat.half_y] == pytest.approx(1.0)  # x: 2 -> -2

    def test_phase_kick_preserves_probabilities(self):
        lat = LatticeSpec(25)
        psi = analytic_zero_mode_2d(BETA, lat)
        kicked = apply_phase_kick(psi, 0.3, -0.7, lat)
        assert np.allclose(probability_map(kicked), probability_map(psi))
        assert not np.allclose(kicked, psi)

    def test_normalize_zero_state_raises(self):
        lat = LatticeSpec(5)
        with pytest.raises(ValueError):
            normalize(np.zeros(lat.shape, dtype=complex))
        with pytest.raises(ValueError, match="norm nan"):
            normalize(np.full(lat.shape, np.nan + 0j))


class TestMoments:
    def test_norm_check_from_the_probability_pass(self):
        lat = LatticeSpec(25)
        psi = analytic_zero_mode_2d(BETA, lat)
        position_moments(psi * (1 + 5e-7), lat)
        with pytest.raises(ValueError, match="deviates from 1"):
            position_moments(psi * (1 + 2e-6), lat)

    def test_map_moments_are_the_moments_of_the_state(self):
        lat = LatticeSpec(25, 21)
        rng = np.random.Generator(np.random.PCG64(4))
        psi = normalize(rng.normal(size=lat.shape)
                        + 1j * rng.normal(size=lat.shape))
        assert (map_moments(probability_map(psi), lat)
                == position_moments(psi, lat))

    def test_probability_map_of_non_contiguous_state(self):
        rng = np.random.Generator(np.random.PCG64(2))
        wide = rng.normal(size=(7, 10, 4)) + 1j * rng.normal(size=(7, 10, 4))
        for psi in (wide[:, ::2], np.asfortranarray(wide), wide[::-1]):
            assert not psi.flags.c_contiguous
            ref = np.sum(np.abs(psi) ** 2, axis=2)
            assert probability_map(psi).tobytes() == ref.tobytes()
