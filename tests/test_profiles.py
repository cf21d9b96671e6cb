import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtqw.profiles import (parse_angle, parse_profile, profile_table,
                           spec_string)


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
        p = parse_profile("constant:pi/3")
        assert p == ("constant", (np.pi / 3,), None)
        assert np.all(profile_table(p, 5) == np.pi / 3)

    def test_linear_saturates(self):
        vals = profile_table(parse_profile("linear:pi/20:5:pi/4"), 50)
        assert vals[50] == 0.0       # coords -50..50
        assert vals[53] == pytest.approx(3 * np.pi / 20)
        assert vals[-1] == pytest.approx(np.pi / 4)
        assert vals[0] == pytest.approx(-np.pi / 4)

    def test_linear_slope_exceeding_saturation_rejected(self):
        with pytest.raises(ValueError, match="exceeds the saturation"):
            parse_profile("linear:pi/4:10:pi/8")
        with pytest.raises(ValueError, match="exceeds the saturation"):
            profile_table(("linear", (np.pi / 4, 10, np.pi / 8), None), 12)

    @pytest.mark.parametrize("W, seed", [(-0.5, 3), (np.nan, 3),
                                         (np.inf, 3), (0.5, -3)])
    def test_noise_needs_finite_W_and_seed_at_least_0(self, W, seed):
        with pytest.raises(ValueError, match="noise needs"):
            parse_profile(f"wall:pi/3:-pi/3:4+noise:{W}:{seed}")

    def test_zero_noise_parses_as_none(self):
        assert parse_profile("wall:pi/3:-pi/3:4+noise:0:3") == (
            parse_profile("wall:pi/3:-pi/3:4"))

    def test_wall_boundary_site_belongs_to_inner_region(self):
        vals = profile_table(("wall", (np.pi / 3, -np.pi / 3, 4), None), 6)
        assert vals[6 + 4] == pytest.approx(np.pi / 3)    # coords -6..6
        assert vals[6 + 5] == pytest.approx(-np.pi / 3)

    def test_noise_is_seed_deterministic_and_bounded(self):
        wall = "wall:pi/3:-pi/3:4"
        n1, n2, n3 = (profile_table(parse_profile(f"{wall}+noise:0.25:{s}"),
                                    10) for s in (7, 7, 8))
        assert np.array_equal(n1, n2)
        assert not np.array_equal(n1, n3)
        base = profile_table(parse_profile(wall), 10)
        assert np.max(np.abs(n1 - base)) <= 0.25


class TestSpecStrings:
    @pytest.mark.parametrize("text, canonical", [
        pytest.param(text, canonical, id=text) for text, canonical in [
            ("constant:0.5", "constant:0.5"),
            ("linear:0.15:5:0.78", "linear:0.15:5:0.78"),
            ("wall:1.0:-1.0:25", "wall:1.0:-1.0:25"),
            ("wall:1.0:-1.0:25+noise:0.25:11",
             "wall:1.0:-1.0:25+noise:0.25:11"),
            ("pi/50", "constant:0.06283185307179587"),
            ("linear:pi/20:5:pi/4",
             "linear:0.15707963267948966:5:0.7853981633974483"),
            ("wall:pi/3:-pi/3:5+noise:0:3",
             "wall:1.0471975511965976:-1.0471975511965976:5"),
        ]])
    def test_round_trip(self, text, canonical):
        p = parse_profile(text)
        assert spec_string(p) == canonical
        assert parse_profile(canonical) == p

    def test_bare_angle_is_constant(self):
        kind, (theta,), noise = parse_profile("-pi/3")
        assert kind == "constant" and noise is None
        assert theta == pytest.approx(-np.pi / 3)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-1.4, 1.4), st.floats(-1.4, 1.4),
           st.integers(1, 40))
    def test_wall_round_trip_any_angles(self, t1, t2, L):
        p = ("wall", (t1, t2, L), None)
        assert parse_profile(spec_string(p)) == p
