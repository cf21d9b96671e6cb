import csv
import json
import os
import re

import numpy as np
import pytest

from dtqw.config import ConfigError, ExperimentConfig, parse_config
from dtqw.continuum import analytic_zero_mode_2d
from dtqw.io import svg_polyline, svg_scatter, write_csv, write_json
from dtqw.lattice import LatticeSpec
from dtqw.presets import PRESETS, base_config, run_preset
from dtqw.profiles import parse_angle


def _toy_overrides(name, L):
    """Overrides drawn from a preset's own table that shrink it to an
    L-site lattice: L itself, each wall moved to |x| = L // 4, and four
    steps for a dynamics run."""
    table = PRESETS[name][2]
    over = {"L": str(L)} if "L" in table else {}
    for key in ("theta_x", "theta_y"):
        if table.get(key, "").startswith("wall:"):
            over[key] = re.sub(r"^(wall:[^:]+:[^:+]+:)\d+", rf"\g<1>{L // 4}",
                               table[key])
    if "T_max" in table:
        over["T_max"] = "4"
    return over


class TestConfig:
    def test_flags_canonicalize(self):
        cfg = parse_config(["--theta-x", "wall:pi/3:-pi/3:25",
                            "--T-max", "1000", "--theta-y", "pi/50"])
        assert cfg.get("T_max") == "1000"
        assert cfg.get("theta_y").startswith("constant:0.0628318530717958")
        assert "wall:" in cfg.get("theta_x")

    def test_L_alias_fans_out(self):
        cfg = parse_config(["--L", "41"])
        assert cfg.get("L_x") == "41" and cfg.get("L_y") == "41"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(["--walls", "3"])

    def test_even_lattice_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(["--L-x", "40"])

    def test_flags_override_file(self, tmp_path):
        f = tmp_path / "a.json"
        f.write_text('{"L": "41", "T_max": "10"}')
        cfg = parse_config(["--T-max", "99"], file=str(f))
        assert cfg.get("T_max") == "99"
        assert cfg.get("L_x") == "41"

    def test_meta_json_round_trip(self, tmp_path):
        cfg = ExperimentConfig({"L": "21", "theta_x": "pi/4",
                                "theta_y": "pi/4", "T_max": "5"})
        f = tmp_path / "meta.json"
        write_json(str(f), {"config": cfg.to_dict(), "tool_version": "x"})
        assert parse_config(file=str(f)) == cfg

    def test_band_pass_requires_sigma(self):
        cfg = ExperimentConfig({"band_center": "0.25"})
        with pytest.raises(ConfigError, match="band_sigma"):
            cfg.band_pass()

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_wall_must_leave_sites_outside_it(self, axis):
        # L = 11: sites |x| <= 5, so a wall at 4 is the widest with theta2
        # sites left; at 5 the whole axis is theta1
        cfg = ExperimentConfig({"L_x": "11", "L_y": "11",
                                f"theta_{axis}": "wall:pi/3:-pi/3:4"})
        assert cfg.profile(axis)[1][2] == 4
        cfg.set(f"theta_{axis}", "wall:pi/3:-pi/3:5")
        with pytest.raises(ConfigError, match=f"theta_{axis} wall .* fit "
                                              f"L_{axis} = 11"):
            cfg.profile(axis)


class TestNumbersAndCsv:
    @pytest.mark.parametrize("v,text", [
        (7, "7"), (1.0, "1"), (5.0, "5"), (-0.0, "-0"),
        (0.1, "0.10000000000000001"), (1 / 3, "0.33333333333333331"),
        (1e-300, "1e-300"), (1e22, "1e+22"),
    ])
    def test_csv_cell_text(self, v, text, tmp_path):
        f = str(tmp_path / "t.csv")
        write_csv(f, ["v", "w"], [(v, -v)])
        minus = text[1:] if text.startswith("-") else "-" + text
        assert open(f).read() == f"v,w\n{text},{minus}\n"

    def test_empty_table_writes_the_header_alone(self, tmp_path):
        f = str(tmp_path / "t.csv")
        write_csv(f, ["k_y", "E"], np.empty((0, 2)))
        assert open(f).read() == "k_y,E\n"

    @pytest.mark.parametrize("shape", [(3, 3), (3, 1), (0, 3), (2,)],
                             ids=["wide", "narrow", "empty_wide", "flat"])
    def test_table_width_must_match_the_header(self, shape, tmp_path):
        f = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="does not fit the 2 columns"):
            write_csv(str(f), ["k_y", "E"], np.zeros(shape))
        assert not f.exists()

    def test_csv_round_trips_doubles_exactly(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(1))
        rows = [(int(i), float(v)) for i, v in
                enumerate(rng.normal(size=50))]
        f = str(tmp_path / "t.csv")
        write_csv(f, ["i", "v"], rows)
        with open(f, newline="") as fh:
            header, *back = csv.reader(fh)
        assert header == ["i", "v"]
        assert len(back) == len(rows)
        assert all(float(b[1]) == r[1] for b, r in zip(back, rows))

    def test_json_writer_sorts_keys(self, tmp_path):
        f = str(tmp_path / "t.json")
        write_json(f, {"b": 1, "a": 2})
        text = open(f).read()
        assert text.index('"a"') < text.index('"b"')
        with open(f) as fh:
            assert json.load(fh) == {"a": 2, "b": 1}


_SVG_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" '
    'viewBox="0 0 640 480">\n'
    '<rect width="640" height="480" fill="white"/>\n'
    '<line x1="56" y1="424" x2="584" y2="424" stroke="black"/>\n'
    '<line x1="56" y1="424" x2="56" y2="56" stroke="black"/>\n'
    '<text x="320" y="468" text-anchor="middle" font-family="monospace" '
    'font-size="13">k</text>\n'
    '<text x="16" y="240" text-anchor="middle" font-family="monospace" '
    'font-size="13" transform="rotate(-90 16 240)">E</text>\n')
_SVG_TICK = (
    '<text x="{px}" y="442" text-anchor="middle" font-family="monospace" '
    'font-size="11">{x}</text>\n'
    '<text x="50" y="{py}" text-anchor="end" font-family="monospace" '
    'font-size="11">{y}</text>\n')
# xs, ys, tick labels (x, y) at 0, 1/2 and 1 of each range, drawn points
_SVG_CASES = {
    "three": ([0.0, 1.5, 3.0], [-1.0, 0.25, 2.0],
              [("0", "-1"), ("1.5", "0.5"), ("3", "2")],
              [("56.00", "424.00"), ("320.00", "270.67"),
               ("584.00", "56.00")]),
    "equal_x": ([2.0, 2.0, 2.0], [1.0, 3.0, 2.0],
                [("1.5", "1"), ("2", "2"), ("2.5", "3")],
                [("320.00", "424.00"), ("320.00", "56.00"),
                 ("320.00", "240.00")]),
    "empty": ([], [], [("0", "0"), ("0.5", "0.5"), ("1", "1")], []),
}


class TestSvg:
    def test_polyline_deterministic_and_timestamp_free(self, tmp_path):
        xs = np.linspace(0, 1, 40)
        ys = np.sin(xs * 6)
        f1, f2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        svg_polyline(f1, xs, ys, "x", "y")
        svg_polyline(f2, xs, ys, "x", "y")
        t1 = open(f1).read()
        assert t1 == open(f2).read()
        assert "<svg" in t1 and "polyline" in t1
        assert "date" not in t1.lower() and "time" not in t1.lower()

    @pytest.mark.parametrize("case", sorted(_SVG_CASES))
    def test_svg_text_is_pinned(self, case, tmp_path):
        xs, ys, ticks, pts = _SVG_CASES[case]
        frame = _SVG_HEAD + "".join(
            _SVG_TICK.format(px=px, py=py, x=x, y=y) for (x, y), px, py
            in zip(ticks, ("56.00", "320.00", "584.00"),
                   ("428.00", "244.00", "60.00")))
        line = (f'<polyline points="{" ".join(map(",".join, pts))}" '
                f'fill="none" stroke="#1060c0" stroke-width="1.2"/>\n'
                if pts else "")
        dots = "".join(f'<circle cx="{cx}" cy="{cy}" r="1.4" '
                       f'fill="#103060"/>\n' for cx, cy in pts)
        f = str(tmp_path / "p.svg")
        svg_polyline(f, xs, ys, "k", "E")
        assert open(f).read() == frame + line + "</svg>\n"
        svg_scatter(f, xs, ys, "k", "E")
        assert open(f).read() == frame + dots + "</svg>\n"

    def test_empty_scatter_draws_axes_only(self, tmp_path):
        f = str(tmp_path / "e.svg")
        svg_scatter(f, [], [], "k", "E")
        text = open(f).read()
        assert "circle" not in text
        assert "line" in text


class TestPresetRuns:
    def test_meta_closure_and_byte_identity(self, tmp_path):
        out = str(tmp_path / "run1")
        meta = run_preset("bandsB1", outdir=out)
        # the meta echo is itself a loadable config reproducing the run
        cfg = parse_config(file=os.path.join(out, "meta.json"))
        assert cfg.to_dict() == meta["config"]
        # rerunning writes byte-identical artifacts
        blobs = {f: open(os.path.join(out, f), "rb").read()
                 for f in os.listdir(out)}
        run_preset("bandsB1", outdir=out)
        for f, blob in blobs.items():
            assert open(os.path.join(out, f), "rb").read() == blob

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            run_preset("nosuch")

    def test_cli_exit_codes(self, tmp_path, capsys):
        from dtqw.cli import main
        assert main(["bandsB1", "--outdir", str(tmp_path / "c")]) == 0
        assert main(["nosuch"]) == 2
        assert main(["run", "--theta-x", "pi/banana"]) == 2
        # a tiny positive window runs: its weights past t = 0 vanish
        assert main(["fig1", "--L", "23", "--T_max", "5", "--band_sigma",
                     "1e-300", "--outdir", str(tmp_path / "s")]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv,key", [
        (["fig6", "--count", "100000", "--theta-x", "wall:pi/3:-pi/3:2",
          "--theta-y", "wall:pi/3:-pi/3:2"], "count"),
        (["fig1", "--beta_over_eps", "0"], "beta_over_eps"),
        (["fig1", "--beta_over_eps", "-pi/20"], "beta_over_eps"),
        (["fig1", "--band_sigma", "0"], "band_sigma"),
        (["fig1", "--band_sigma", "-2"], "band_sigma"),
        (["fig1", "--beta_over_eps", "inf"], "beta_over_eps"),
        (["fig1", "--band_sigma", "inf"], "band_sigma"),
        (["fig1"], "L_x"),           # the Gaussian start overflows L = 9
        (["oracleA"], "L_x"),        # so does the oscillator ground state
        (["fig2a", "--theta-y", "pi/0"], "theta_y"),
        (["bandsB1", "--theta-x", "inf"], "theta_x"),
        (["fig2a", "--theta-x", "wall:pi/3:-pi/3:3", "--theta-y", "nan"],
         "theta_y"),
        (["fig1", "--kick-y", "nan"], "kick_y"),
        (["fig2c", "--theta-x", "wall:pi/3:-pi/3:3+noise:-0.5:3"], "theta_x"),
        (["fig2c", "--theta-x", "wall:pi/3:-pi/3:3+noise:0.5:-3"], "theta_x"),
        (["fig2c", "--theta-x", "wall:pi/3:-pi/3:3+noise:nan:3"], "theta_x"),
        (["fig1", "--theta-x", "linear:pi/20:-5:pi/4"], "theta_x"),
        (["symmetry", "--seed", "-3"], "seed"),
    ], ids=["count-past-n", "zero-beta", "negative-beta",
            "zero-sigma", "negative-sigma", "infinite-beta", "infinite-sigma",
            "gaussian-past-edge", "oscillator-past-edge", "zero-denominator",
            "infinite-angle", "nan-angle", "nan-kick", "negative-noise",
            "negative-noise-seed", "nan-noise", "negative-x_c",
            "negative-seed"])
    def test_cli_value_the_pipeline_cannot_honour_exits_2(
            self, argv, key, tmp_path, capsys):
        from dtqw.cli import main
        assert main(argv + ["--L", "9", "--outdir", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        # the pipeline's own message starts with the key; a value refused
        # at parse time is reported as "bad value ... for key '<key>';"
        assert (f"config error: {key} " in err
                or "config error: bad value" in err
                and f"for key '{key}';" in err)
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "c")

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_every_preset_runs_or_refuses_at_toy_size(
            self, name, tmp_path, capsys):
        from dtqw.cli import main
        argv = [a for k, v in _toy_overrides(name, 9).items()
                for a in (f"--{k}", v)]
        assert main([name, *argv, "--outdir", str(tmp_path)]) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_every_preset_key_is_read(self, name, tmp_path, monkeypatch):
        # the table is the preset's schema: a key in it that the pipeline
        # never reads is a setting that an override changes without
        # effect, and a key read outside it is one no override can reach
        read = set()
        for accessor in ("get", "get_int", "get_float"):
            def recording(cfg, key, *args, _get=getattr(ExperimentConfig,
                                                         accessor)):
                read.add(key)
                return _get(cfg, key, *args)
            monkeypatch.setattr(ExperimentConfig, accessor, recording)
        run_preset(name, _toy_overrides(name, 33), outdir=str(tmp_path))
        assert read == set(base_config(name).values) - {"preset"}

    @pytest.mark.parametrize("argv,key", [
        (["fig2c", "--seed", "5"], "seed"),
        (["fig2a", "--count", "3"], "count"),
        (["fig2a", "--k-points", "41"], "k_points"),
        (["fig2a", "--T-max", "5"], "T_max"),
        (["bandsB3", "--theta-y", "pi/4"], "theta_y"),
        (["bandsB1", "--L", "51"], "L_x"),
        (["trotter", "--L-y", "31"], "L_y"),
        (["run", "--theta-x", "pi/3", "--theta-y", "0"], "preset"),
        (["fig6", "--L", "11"], "theta_x"),     # the wall at 25 fills L = 11
        (["fig5", "--L", "11"], "theta_x"),
        (["fig2a", "--L", "41"], "theta_x"),
        (["fig6", "--L", "21", "--theta-x", "wall:pi/3:-pi/3:3"], "theta_y"),
        (["fig2a", "--L", "21", "--theta-x", "wall:pi/3:-pi/3:-1"],
         "theta_x"),
        (["fig1", "--emit", "csv"], "emit"),
        (["fig1", "--initial", "basis:0:0:0"], "initial"),
        (["fig1", "--T", "5"], "T"),
    ])
    def test_cli_key_the_run_does_not_read_exits_2(
            self, argv, key, tmp_path, capsys):
        from dtqw.cli import main
        assert main(argv + ["--outdir", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        # a key of no preset is refused at parse time as unknown
        assert (f"config error: {key} " in err
                or f"config error: unknown config key '{key}';" in err)
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "c")

    def test_run_from_meta_echo_writes_the_same_bytes(self, tmp_path, capsys):
        from dtqw.cli import main
        first, second = tmp_path / "first", tmp_path / "second"
        run_preset("fig7c", {"L": "11",
                             "theta_x": "wall:pi/3:-pi/3:3+noise:0.25:5"},
                   outdir=str(first))
        assert main(["run", "--config", str(first / "meta.json"),
                     "--outdir", str(second)]) == 0
        names = sorted(os.listdir(first))
        assert "enclosed.csv" in names and sorted(os.listdir(second)) == names
        for name in names:
            if name != "meta.json":
                assert (first / name).read_bytes() == \
                    (second / name).read_bytes(), name
        meta = json.loads((second / "meta.json").read_text())
        assert meta["config"].pop("outdir") == str(second)
        assert meta == json.loads((first / "meta.json").read_text())

    @pytest.mark.parametrize("contents", [
        None, "{oops", "[run]\nT_max = 5\n", "[1, 2]"],
        ids=["missing", "malformed", "ini", "not-an-object"])
    def test_cli_config_file_that_cannot_be_read_exits_2(
            self, contents, tmp_path, capsys):
        from dtqw.cli import main
        f = tmp_path / "cfg.json"
        if contents is not None:
            f.write_text(contents)
        assert main(["run", "--config", str(f),
                     "--outdir", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot read config file {f}:" in err or \
            f"config error: config file {f} must" in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "c")

    def test_fig1_echo_with_an_initial_key_exits_2(self, tmp_path, capsys):
        # fig1 echoes written while fig1 took an `initial` key
        from dtqw.cli import main
        f = tmp_path / "meta.json"
        write_json(str(f), {"config": {**base_config("fig1").to_dict(),
                                       "initial": "gaussian"}})
        assert main(["run", "--config", str(f),
                     "--outdir", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert "config error: unknown config key 'initial';" in err
        assert not os.path.exists(tmp_path / "c")

    @pytest.mark.parametrize("beta", [None, "pi/10"])
    def test_gaussian_start_is_the_analytic_zero_mode(self, beta,
                                                      monkeypatch):
        # None: fig1's own width
        import dtqw.presets
        starts = []
        monkeypatch.setattr(dtqw.presets, "prepare_initial_state",
                            lambda op, psi, *args: starts.append(psi))
        cfg = base_config("fig1").update({"L_x": "25", "L_y": "27"})
        if beta is not None:
            cfg.set("beta_over_eps", beta)
        dtqw.presets._prepared_start(cfg)
        ref = analytic_zero_mode_2d(parse_angle(beta or "pi/20"),
                                    LatticeSpec(25, 27))
        assert len(starts) == 1 and np.array_equal(starts[0], ref)

    def test_dynamics_csv_writes_T_as_integers(self, tmp_path):
        out = str(tmp_path / "dyn")
        run_preset("fig1", {"T_max": "20", "stride": "5", "L": "33",
                            "refine_iters": "2"}, outdir=out)
        with open(os.path.join(out, "dynamics.csv")) as fh:
            lines = fh.read().splitlines()
        assert [ln.split(",")[0] for ln in lines] == ["T", "0", "5", "10",
                                                     "15", "20"]

    @pytest.mark.parametrize("argv,key", [
        (["fig2a", "--theta-y", "linear:pi/20:2:pi/4"], "theta_y"),
        (["fig5", "--theta-y", "pi/6+noise:0.1:2"], "theta_y"),
        (["fig6", "--theta-x", "pi/3"], "theta_x"),
        (["bandsB1", "--theta-x", "wall:pi/3:-pi/3:3"], "theta_x"),
        (["symmetry", "--theta-x", "pi/3"], "theta_x"),
        (["fig6", "--theta-y", "pi/3"], "theta_y"),
    ])
    def test_cli_profile_the_pipeline_cannot_run_exits_2(
            self, argv, key, tmp_path, capsys):
        from dtqw.cli import main
        assert main(argv + ["--outdir", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("wall_y, constant_y", [
        ("wall:0:0:3", "constant:0"), ("wall:pi/50:pi/50:3", "pi/50")],
        ids=["theta_y-0", "theta_y-pi/50"])
    def test_cli_one_value_theta_y_wall_runs_as_its_constant(
            self, wall_y, constant_y, tmp_path):
        # the pipeline gates theta_y by its table, not by its kind: a wall
        # whose two media agree is the constant walk, enclosed states and
        # all
        from dtqw.cli import main
        runs = {}
        for theta_y in (wall_y, constant_y):
            out = tmp_path / str(len(runs))
            assert main(["fig2a", "--L", "21", "--theta-x",
                         "wall:pi/3:-pi/3:5", "--theta-y", theta_y,
                         "--outdir", str(out)]) == 0
            runs[theta_y] = {f.name: f.read_bytes() for f in out.iterdir()
                             if f.name != "meta.json"}
        assert runs[wall_y] == runs[constant_y]
        assert ("enclosed.csv" in runs[wall_y]) == (constant_y == "pi/50")

    def test_cli_convergence_error_exits_3(self, tmp_path, monkeypatch,
                                           capsys):
        import dtqw.presets
        from dtqw.cli import main
        from dtqw.spectral import ConvergenceError

        def no_convergence(op, count):
            raise ConvergenceError("eigensolver converged only 3/16 pairs")

        monkeypatch.setattr(dtqw.presets, "near_unity_states", no_convergence)
        assert main(["fig6", "--L", "11", "--theta-x", "wall:pi/3:-pi/3:3",
                     "--theta-y", "wall:pi/3:-pi/3:3", "--outdir",
                     str(tmp_path / "c")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_cli_tripped_guard_exits_3(self, tmp_path, monkeypatch, capsys):
        import dtqw.spectral
        from dtqw.cli import main

        monkeypatch.setattr(dtqw.spectral, "_RESIDUAL_TOL", 1e-30)
        assert main(["fig5", "--L", "21", "--theta-x", "wall:pi/3:-pi/3:5",
                     "--outdir", str(tmp_path / "g")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: eigenpair residual" in err
        assert "Traceback" not in err

    def test_cli_tripped_corner_guard_exits_3(self, tmp_path, monkeypatch,
                                              capsys):
        import dtqw.spectral
        from dtqw.cli import main

        monkeypatch.setattr(dtqw.spectral, "_RESIDUAL_TOL", 1e-30)
        assert main(["fig6", "--L", "11", "--theta-x", "wall:pi/3:-pi/3:3",
                     "--theta-y", "wall:pi/3:-pi/3:3",
                     "--outdir", str(tmp_path / "g")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: eigenpair residual" in err
        assert "Traceback" not in err

    def test_cli_corner_weight_at_unequal_walls(self, tmp_path):
        # the walls cross at (+-10, +-5), where every corner state sits
        from dtqw.cli import main
        out = tmp_path / "c"
        assert main(["fig6", "--L", "41", "--theta-x", "wall:pi/3:-pi/3:10",
                     "--theta-y", "wall:pi/3:-pi/3:5",
                     "--outdir", str(out)]) == 0
        with open(out / "states.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header[2] == "corner_weight_r5" and len(rows) == 8
        assert all(float(row[2]) >= 0.9 for row in rows)

    def test_dynamics_meta_records_outputs(self, tmp_path):
        out = str(tmp_path / "dyn")
        run_preset("fig1", {"T_max": "20", "L": "41"}, outdir=out)
        meta = json.load(open(os.path.join(out, "meta.json")))
        assert meta["kind"] == "dynamics"
        assert "dynamics.csv" in meta["outputs"]
        with open(os.path.join(out, "dynamics.csv"), newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["T", "mean_x", "mean_y", "std_x", "std_y"]
        assert len(rows) == 21
