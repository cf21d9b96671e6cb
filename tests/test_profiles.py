import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtqw.profiles import (Constant, DomainWall, LinearSaturated, parse_angle,
                           parse_profile)


class TestParseAngle:
    @pytest.mark.parametrize("text,value", [
        ("pi/20", np.pi / 20),
        ("-pi/3", -np.pi / 3),
        ("3pi/4", 3 * np.pi / 4),
        ("2*pi/5", 2 * np.pi / 5),
        ("pi", np.pi),
        ("0.25", 0.25),
        ("0", 0.0),
    ])
    def test_grammar(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=1e-15)

    @pytest.mark.parametrize("bad", ["pi/x", "pi/", "", "2pi/", "e/3", "pi/0",
                                     "-3pi/0.0", "inf", "-inf", "nan",
                                     "1e400"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_angle(bad)


class TestProfiles:
    def test_constant(self):
        p = Constant(np.pi / 3)
        assert np.all(p.table(5) == np.pi / 3)

    def test_linear_saturates(self):
        p = LinearSaturated(np.pi / 20, 5, np.pi / 4)
        vals = p.table(50)   # coords -50..50
        assert vals[50] == 0.0
        assert vals[53] == pytest.approx(3 * np.pi / 20)
        assert vals[-1] == pytest.approx(np.pi / 4)
        assert vals[0] == pytest.approx(-np.pi / 4)

    def test_linear_slope_exceeding_saturation_rejected(self):
        with pytest.raises(ValueError):
            LinearSaturated(np.pi / 4, 10, np.pi / 8)

    @pytest.mark.parametrize("W, seed", [(-0.5, 3), (np.nan, 3),
                                         (np.inf, 3), (0.5, -3)])
    def test_noise_needs_finite_W_and_seed_at_least_0(self, W, seed):
        base = DomainWall(np.pi / 3, -np.pi / 3, 4)
        with pytest.raises(ValueError, match="noise needs"):
            base.with_noise(W, seed)
        with pytest.raises(ValueError, match="noise needs"):
            parse_profile(f"wall:pi/3:-pi/3:4+noise:{W}:{seed}")

    def test_wall_boundary_site_belongs_to_inner_region(self):
        p = DomainWall(np.pi / 3, -np.pi / 3, 4)
        vals = p.table(6)    # coords -6..6
        assert vals[6 + 4] == pytest.approx(np.pi / 3)
        assert vals[6 + 5] == pytest.approx(-np.pi / 3)

    def test_noise_is_seed_deterministic_and_bounded(self):
        base = DomainWall(np.pi / 3, -np.pi / 3, 4)
        n1 = base.with_noise(0.25, 7).table(10)
        n2 = base.with_noise(0.25, 7).table(10)
        n3 = base.with_noise(0.25, 8).table(10)
        assert np.array_equal(n1, n2)
        assert not np.array_equal(n1, n3)
        assert np.max(np.abs(n1 - base.table(10))) <= 0.25


class TestSpecStrings:
    @pytest.mark.parametrize("text", [
        "constant:0.5",
        "linear:0.15:5:0.78",
        "wall:1.0:-1.0:25",
        "wall:1.0:-1.0:25+noise:0.25:11",
        "pi/50",
    ])
    def test_round_trip(self, text):
        p = parse_profile(text)
        assert parse_profile(p.to_spec_string()) == p

    def test_bare_angle_is_constant(self):
        p = parse_profile("-pi/3")
        assert isinstance(p, Constant)
        assert p.theta == pytest.approx(-np.pi / 3)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-1.4, 1.4), st.floats(-1.4, 1.4),
           st.integers(1, 40))
    def test_wall_round_trip_any_angles(self, t1, t2, L):
        p = DomainWall(t1, t2, L)
        assert parse_profile(p.to_spec_string()) == p
