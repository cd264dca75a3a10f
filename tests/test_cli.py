"""Command-line entry point: argument handling, outputs, exit codes."""

import json

import numpy as np
import pytest

from dicke2p import __version__, cli, scans
from dicke2p.cli import main


def read_csv_table(path):
    header = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        else:
            body.append(line)
    columns = body[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
    return header, columns, rows


class TestArgumentHandling:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit) as exc:
            main(["ghz", "--engine", "magic"])
        assert exc.value.code == 2

    def test_engine_names_match_the_library(self, tmp_path):
        out = tmp_path / "g.json"
        argv = ["ghz", "--nbar", "4", "--engine", "exact", "--format", "json"]
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["params"]["engine"] == "exact"
        with pytest.raises(SystemExit) as exc:
            main(["ghz", "--nbar", "4", "--engine", "effective"])
        assert exc.value.code == 2

    def test_rejects_nonpositive_nbar(self):
        with pytest.raises(SystemExit) as exc:
            main(["rabi", "--nbar", "0"])
        assert exc.value.code == 2


class TestCsvOutput:
    def test_rabi_writes_table_and_sidecar(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            ["rabi", "--nbar", "4", "--g", "-0.02", "--points", "9", "--out", str(out)]
        )
        assert code == 0
        header, columns, rows = read_csv_table(out)
        assert header["command"] == "rabi"
        assert header["version"] == __version__
        assert json.loads(header["params"])["nbar"] == 4.0
        assert columns == ["gt_over_pi", "see_numeric", "see_analytic"]
        assert rows.shape == (9, 3)

        sidecar = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert sidecar["command"] == "rabi"
        assert sidecar["rows_file"] == "r.csv"
        assert sidecar["columns"] == columns
        assert sidecar["wall_time_s"] >= 0.0

    def test_wigner_writes_one_table_per_time(self, tmp_path):
        out = tmp_path / "w.csv"
        with pytest.warns(UserWarning, match="fringe"):
            code = main(
                ["wigner", "--nbar", "4", "--grid-points", "41", "--out", str(out)]
            )
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("w_*.csv"))
        assert names == ["w_t0.csv", "w_tr2.csv", "w_tr4.csv"]


class TestJsonOutput:
    def test_payload_shape(self, tmp_path):
        out = tmp_path / "g.json"
        with pytest.warns(UserWarning, match="alpha"):
            code = main(
                ["ghz", "--nbar", "4,6", "--engine", "analytic",
                 "--format", "json", "--out", str(out)]
            )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "ghz"
        assert payload["version"] == __version__
        assert payload["columns"] == ["nbar", "fidelity_ghz"]
        assert payload["params"]["engine"] == "analytic"
        assert len(payload["rows"]) == 2
        assert "wall_time_s" in payload

    def test_params_of_seeded_runs_are_identical(self, tmp_path):
        """The wall time sits beside the params, never inside them."""
        argv = ["ghz", "--nbar", "10,12", "--engine", "analytic", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
        assert "wall_time_s" not in pa["params"]
        assert json.dumps(pa["params"]) == json.dumps(pb["params"])
        assert pa["wall_time_s"] >= 0.0

    def test_csv_params_exclude_wall_time(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["ghz", "--nbar", "10", "--engine", "analytic", "--out", str(out)]) == 0
        header, _, _ = read_csv_table(out)
        assert float(header["wall_time_s"]) >= 0.0
        assert "wall_time_s" not in json.loads(header["params"])
        sidecar = json.loads((tmp_path / "g.csv.meta.json").read_text())
        assert "wall_time_s" not in sidecar["params"]
        assert sidecar["wall_time_s"] >= 0.0

    def test_seeded_scan_reproducible(self, tmp_path):
        argv = ["fidelity-scan", "--nbar", "4", "--ensemble", "2",
                "--time-points", "3", "--seed", "9", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        rows_a = json.loads(a.read_text())["rows"]
        rows_b = json.loads(b.read_text())["rows"]
        assert rows_a == rows_b
        assert json.loads(a.read_text())["seed"] == 9


def fake_rabi(monkeypatch, columns, rows):
    result = scans.ScanResult(columns, rows, {})
    monkeypatch.setattr(scans, "rabi_curve", lambda *args: result)


class TestNanCells:
    @pytest.fixture(autouse=True)
    def nan_rabi(self, monkeypatch):
        rows = np.array([[0.0, 0.5, 0.25], [1.0, np.nan, 0.75]])
        fake_rabi(monkeypatch, ("gt_over_pi", "see_numeric", "see_analytic"), rows)

    def test_nan_reaches_json_as_null(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["rabi", "--g", "-0.02", "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rows"] == [[0.0, 0.5, 0.25], [1.0, None, 0.75]]

    def test_nan_reaches_csv_as_nan(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["rabi", "--g", "-0.02", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-2:] == ["0,0.5,0.25", "1,nan,0.75"]


class TestEmit:
    COLUMNS = ("gt_over_pi", "see_numeric", "see_analytic")
    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0 / 3.0, 1e16, 2.0]

    def test_csv_cells_are_17g_text_across_chunks(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        n = 2 * cli._CSV_CHUNK + 3
        rows = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
        for k, v in enumerate(self.SPECIAL):  # on both sides of each chunk edge
            for r in (k, cli._CSV_CHUNK - 1 - k, cli._CSV_CHUNK + k, n - 1 - k):
                rows[r, k % 3] = v
        fake_rabi(monkeypatch, self.COLUMNS, rows)
        out = tmp_path / "r.csv"
        assert main(["rabi", "--g", "-0.02", "--out", str(out)]) == 0
        body = out.read_text().splitlines()[6:]
        assert body == [",".join(format(v, ".17g") for v in row) for row in rows.tolist()]

    def test_infinite_values_are_null_in_json_and_inf_in_csv(self, tmp_path, monkeypatch):
        """RFC 8259 has no Infinity token: non-finite cells and params read
        back as null from strict JSON, while CSV cells keep inf and -inf."""
        result = scans.ScanResult(self.COLUMNS, np.array([[0.0, np.inf, -np.inf]]),
                                  {"span": np.inf, "low": -np.inf, "nbar": 4.0})
        monkeypatch.setattr(scans, "rabi_curve", lambda *args: result)

        def strict(token):
            raise ValueError(f"non-standard JSON token {token}")

        out = tmp_path / "r.json"
        assert main(["rabi", "--g", "-0.02", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text(), parse_constant=strict)
        assert payload["rows"] == [[0.0, None, None]]
        assert payload["params"] == {"span": None, "low": None, "nbar": 4.0}
        csv = tmp_path / "r.csv"
        assert main(["rabi", "--g", "-0.02", "--out", str(csv)]) == 0
        assert csv.read_text().splitlines()[-1] == "0,inf,-inf"
        json.loads((tmp_path / "r.csv.meta.json").read_text(), parse_constant=strict)
        params = [ln for ln in csv.read_text().splitlines() if ln.startswith("# params: ")]
        assert json.loads(params[0][len("# params: "):], parse_constant=strict)["span"] is None

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"extra": 1}, "unexpected keys"),
            ({"seed": True}, r"\$\.seed"),
            ({"columns": []}, "fewer than 1"),
        ],
    )
    def test_schema_rejects_header(self, change, match):
        header = {"command": "rabi", "version": __version__, "seed": None,
                  "params": {}, "columns": ["a"], "rows": [[0.0]]}
        cli._check_schema(header, cli._load_schema())
        with pytest.raises(ValueError, match=match):
            cli._check_schema({**header, **change}, cli._load_schema())

    @pytest.mark.parametrize(
        "columns, rows",
        [
            ((), np.zeros((2, 0))),
            (COLUMNS, np.array([[0.0, "x", 1.0]], dtype=object)),
        ],
    )
    def test_bad_table_exits_2_without_a_file(self, tmp_path, monkeypatch, capsys,
                                              columns, rows):
        fake_rabi(monkeypatch, columns, rows)
        out = tmp_path / "r.csv"
        assert main(["rabi", "--g", "-0.02", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore:grid spacing:UserWarning")
    def test_schema_checks_do_not_grow_with_the_table(self, tmp_path, monkeypatch):
        calls = []
        check = cli._check_schema

        def counting(*args):
            calls.append(1)
            return check(*args)

        monkeypatch.setattr(cli, "_check_schema", counting)
        counts = []
        for points in ("41", "81"):
            calls.clear()
            out = tmp_path / f"w{points}.csv"
            argv = ["wigner", "--nbar", "4", "--grid-points", points, "--out", str(out)]
            assert main(argv) == 0
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nbar = 4\ng = -0.02\npoints = 9\n")
        out = tmp_path / "r.csv"
        code = main(
            ["rabi", "--config", str(cfg), "--points", "5", "--out", str(out)]
        )
        assert code == 0
        _, _, rows = read_csv_table(out)
        assert rows.shape[0] == 5

    def test_missing_config_file(self, capsys):
        assert main(["rabi", "--config", "/nonexistent/run.cfg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("points 9\n")
        assert main(["rabi", "--config", str(cfg)]) == 2
        assert "expected key = value" in capsys.readouterr().err

    def test_config_cannot_nest(self, tmp_path, capsys):
        inner = tmp_path / "inner.cfg"
        inner.write_text("points = 9\n")
        outer = tmp_path / "outer.cfg"
        outer.write_text(f"config = {inner}\n")
        assert main(["rabi", "--config", str(outer)]) == 2
        assert "nest" in capsys.readouterr().err


    @staticmethod
    def exit_code(argv):
        """main's return value, or the code of the SystemExit argparse raises."""
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    @pytest.mark.parametrize("line", ["engine = foo", "bogus = 1"])
    def test_config_values_meet_the_flag_checks(self, tmp_path, line):
        """Config entries are parsed as flags: choices and unknown keys fail."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert self.exit_code(["ghz", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("where", ["before-subcommand", "equals-sign"])
    def test_config_found_in_any_form(self, tmp_path, where):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nbar = 4\ng = -0.02\npoints = 9\n")
        out = tmp_path / "r.csv"
        argv = {
            "before-subcommand": ["--config", str(cfg), "rabi"],
            "equals-sign": ["rabi", f"--config={cfg}"],
        }[where]
        assert main(argv + ["--out", str(out)]) == 0
        _, _, rows = read_csv_table(out)
        assert rows.shape[0] == 9

    def test_config_needs_a_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nbar = 4\n")
        assert self.exit_code(["--config", str(cfg)]) == 2
        assert "error: --config requires a subcommand" in capsys.readouterr().err


class TestValidityGate:
    def test_strict_escalates_unreachable_revival(self, capsys):
        code = main(["ghz", "--nbar", "50", "--strict"])
        assert code == 3
        assert "validity warning" in capsys.readouterr().err

    def test_warning_only_without_strict(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main(
            ["ghz", "--nbar", "50", "--engine", "analytic",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        assert "validity warning" in capsys.readouterr().err
        assert out.exists()

    def test_explicit_g_skips_gate(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            ["rabi", "--nbar", "50", "--g", "-0.002", "--points", "3",
             "--gt-max", "0.01", "--out", str(out)]
        )
        assert code == 0
        assert "validity warning" not in capsys.readouterr().err
