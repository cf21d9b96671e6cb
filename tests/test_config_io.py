import json
import os

import numpy as np
import pytest

from dtqw.config import ConfigError, ExperimentConfig, parse_config
from dtqw.io import (format_number, read_csv, read_json, svg_polyline,
                     svg_scatter, write_csv, write_json)
from dtqw.presets import run_preset


class TestConfig:
    def test_flags_canonicalize(self):
        cfg = parse_config(["--theta-x", "wall:pi/3:-pi/3:25",
                            "--T", "1000", "--theta-y", "pi/50"])
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
        f = tmp_path / "a.ini"
        f.write_text(ExperimentConfig(
            {"L": "41", "T_max": "10"}).to_config_text())
        cfg = parse_config(["--T", "99"], file=str(f))
        assert cfg.get("T_max") == "99"
        assert cfg.get("L_x") == "41"

    def test_ini_round_trip(self, tmp_path):
        cfg = ExperimentConfig({
            "preset": "fig2a", "L": "101",
            "theta_x": "wall:pi/3:-pi/3:25+noise:0.25:11",
            "theta_y": "0", "emit": "csv,svg", "seed": "11"})
        f = tmp_path / "b.ini"
        f.write_text(cfg.to_config_text())
        assert parse_config(file=str(f)) == cfg

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

    def test_duplicate_ini_keys_rejected(self, tmp_path):
        f = tmp_path / "dup.ini"
        f.write_text("[run]\nT_max = 5\nT_max = 6\n")
        with pytest.raises(ConfigError):
            parse_config(file=str(f))


class TestNumbersAndCsv:
    @pytest.mark.parametrize("v,text", [
        (True, "1"), (False, "0"), (7, "7"), (1.0, "1"),
        (0.1, "0.10000000000000001"), (1 / 3, "0.33333333333333331"),
    ])
    def test_format_number(self, v, text):
        assert format_number(v) == text

    def test_csv_round_trips_doubles_exactly(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(1))
        rows = [(int(i), float(v)) for i, v in
                enumerate(rng.normal(size=50))]
        f = str(tmp_path / "t.csv")
        write_csv(f, ["i", "v"], rows)
        header, back = read_csv(f)
        assert header == ["i", "v"]
        assert all(b[1] == r[1] for b, r in zip(back, rows))

    def test_json_writer_sorts_keys(self, tmp_path):
        f = str(tmp_path / "t.json")
        write_json(f, {"b": 1, "a": 2})
        text = open(f).read()
        assert text.index('"a"') < text.index('"b"')
        assert read_json(f) == {"a": 2, "b": 1}


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

    def test_emit_flags_respected(self, tmp_path):
        out = str(tmp_path / "run2")
        run_preset("bandsB1", {"emit": "csv"}, outdir=out)
        names = set(os.listdir(out))
        assert "bands.csv" in names and "meta.json" in names
        assert not any(n.endswith(".svg") for n in names)
        # fig7c writes enclosed.csv only for a gapped bulk; emit=svg skips
        # it together with spectrum.csv
        out = str(tmp_path / "svg")
        meta = run_preset("fig7c", {"emit": "svg", "L": "11"}, outdir=out)
        assert sorted(os.listdir(out)) == ["meta.json", "spectrum.svg"]
        assert meta["outputs"] == ["spectrum.svg"]
        out = str(tmp_path / "json")
        meta = run_preset("trotter", {"emit": "json", "L": "7"}, outdir=out)
        assert os.listdir(out) == ["meta.json"]
        assert meta["outputs"] == []

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            run_preset("nosuch")

    def test_cli_exit_codes(self, tmp_path, capsys):
        from dtqw.cli import main
        assert main(["bandsB1", "--outdir", str(tmp_path / "c")]) == 0
        assert main(["nosuch"]) == 2
        assert main(["run", "--theta-x", "pi/banana"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv,key", [
        (["fig2a", "--theta-y", "linear:pi/20:2:pi/4"], "theta_y"),
        (["fig5", "--theta-y", "pi/6+noise:0.1:2"], "theta_y"),
        (["fig6", "--theta-x", "pi/3"], "theta_x"),
        (["bandsB1", "--theta-x", "wall:pi/3:-pi/3:3"], "theta_x"),
        (["symmetry", "--theta-x", "pi/3"], "theta_x"),
    ])
    def test_cli_profile_the_pipeline_cannot_run_exits_2(
            self, argv, key, tmp_path, capsys):
        from dtqw.cli import main
        assert main(argv + ["--outdir", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key} must be" in err
        assert "Traceback" not in err

    def test_cli_convergence_error_exits_3(self, tmp_path, monkeypatch,
                                           capsys):
        import dtqw.presets
        from dtqw.cli import main
        from dtqw.spectral import ConvergenceError

        def no_convergence(op, count):
            raise ConvergenceError("eigensolver converged only 3/16 pairs")

        monkeypatch.setattr(dtqw.presets, "near_unity_states", no_convergence)
        assert main(["fig6", "--L", "11", "--outdir",
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

    def test_dynamics_meta_records_outputs(self, tmp_path):
        out = str(tmp_path / "dyn")
        run_preset("fig1", {"T_max": "20", "L": "41"}, outdir=out)
        meta = json.load(open(os.path.join(out, "meta.json")))
        assert meta["kind"] == "dynamics"
        assert "dynamics.csv" in meta["outputs"]
        header, rows = read_csv(os.path.join(out, "dynamics.csv"))
        assert header == ["T", "mean_x", "mean_y", "std_x", "std_y"]
        assert len(rows) == 21
