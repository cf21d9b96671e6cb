import numpy as np
import pytest

from conftest import angles
from dtqw.lattice import LatticeSpec, probability_map
from dtqw.operators import StepOperator2D
from dtqw.spectral import corner_weight, near_unity_states

L, LW = 25, 6


@pytest.fixture(scope="module")
def corner_states():
    wall = angles(f"wall:pi/3:-pi/3:{LW}", L)
    op = StepOperator2D(LatticeSpec(L), wall, wall)
    return op, near_unity_states(op, 8)


class TestCornerStates:
    def test_eight_near_zero_modes(self, corner_states):
        _, (E, states, resid) = corner_states
        assert len(E) == len(states) == len(resid) == 8
        assert np.all(np.abs(E) < 1e-3)
        assert np.all(resid < 1e-9)

    def test_energies_come_in_conjugate_pairs(self, corner_states):
        _, (E, _, _) = corner_states
        E = np.sort(E)
        assert np.allclose(E, -E[::-1], atol=1e-12)

    def test_weight_concentrates_at_wall_corners(self, corner_states):
        _, (_, states, _) = corner_states
        for psi in states:
            assert corner_weight(probability_map(psi), LW, LW) > 0.9

    def test_single_corner_occupancy_not_enforced(self, corner_states):
        # eigenvectors of the degenerate multiplet may spread over several
        # corners; only the union weight is meaningful.  Record the IPR to
        # show the states are localized, not lattice-filling.
        _, (_, states, _) = corner_states
        for P in probability_map(states):
            assert np.sum((P / P.sum()) ** 2) > 0.01

    def test_trivial_control_has_no_small_energies(self):
        op = StepOperator2D(LatticeSpec(L), np.full(L, np.pi / 3),
                            np.full(L, np.pi / 3))
        E, _, _ = near_unity_states(op, 8)
        assert np.all(np.abs(E) > 0.05)



class TestCornerWeight:
    # a 9 x 11 map has x = -4..4 along axis 0 and y = -5..5 along axis 1,
    # with walls at |x| = 1 and |y| = 4; its transpose swaps the lengths
    # and the walls, so a mix-up of the axes shows
    @pytest.mark.parametrize("transpose", [False, True])
    def test_non_square_map(self, transpose):
        def weight(x, y):
            P = np.zeros((9, 11))
            P[x + 4, y + 5] = 1.0
            return (corner_weight(P.T, 4, 1) if transpose
                    else corner_weight(P, 1, 4))

        assert weight(1, -4) == 1.0    # on the crossing (+L_wall_x, -L_wall_y)
        assert weight(4, -2) == 1.0    # Manhattan distance 5: on the rim
        assert weight(4, -1) == 0.0    # Manhattan distance 6 from the nearest
        assert weight(-4, 4) == 1.0    # distance 3 from (-L_wall_x, +L_wall_y)
