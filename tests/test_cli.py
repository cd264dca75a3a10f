"""Command-line entry point: argument handling, outputs, exit codes."""

import argparse
import inspect
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator, ValidationError

from conftest import traced_peak
from dicke2p import __version__, cli, models, protocols, scans
from dicke2p.cli import main
from dicke2p.hilbert import FockCutoff
from dicke2p.models import effective_coupling


# The coupling check's message for a g whose revival time pi/|g| overflows.
_TINY_G = "coupling g = 1e-310 is too small: its revival time pi/|g| overflows"


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

    @pytest.mark.parametrize("nbar", ["0", "nan", "inf", "1e400"])
    def test_rejects_nonpositive_nbar(self, nbar):
        with pytest.raises(SystemExit) as exc:
            main(["rabi", "--nbar", nbar])
        assert exc.value.code == 2

    @pytest.mark.parametrize("nbar", ["4,4", "4,6,4.0"])
    def test_rejects_repeated_nbar(self, tmp_path, capsys, nbar):
        """A repeated mean photon number would give two tables the same
        column names; it is refused before any file is written."""
        with pytest.raises(SystemExit) as exc:
            main(["fidelity-scan", "--nbar", nbar, "--ensemble", "1", "--out", str(tmp_path / "f.csv")])
        assert exc.value.code == 2
        assert "repeated nbar value" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("extra", [[], ["--nbar", "100", "--strict"]], ids=["ok", "strict"])
    def test_lo_phase_needs_efficiency(self, tmp_path, capsys, extra):
        """A local-oscillator phase without homodyne detection is refused,
        not dropped from an ideal run, and before any validity check."""
        argv = ["bell", "--nbar", "10", "--ensemble", "2", "--lo-phase", "0.3"]
        assert main(argv + extra + ["--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert "--lo-phase" in err and "--efficiency" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bell", "--nbar", "10", "--ensemble", "2", "--efficiency", "2"],
             "efficiency must lie in (0, 1]"),
            (["bell", "--nbar", "100", "--ensemble", "2", "--efficiency", "2", "--strict"],
             "efficiency must lie in (0, 1]"),
            (["rabi", "--nbar", "4", "--delta", "0", "--strict"], "delta must be positive"),
            (["rabi", "--nbar", "4", "--g", "0"], "coupling g must be nonzero"),
            (["bell-timing", "--nbar", "4", "--g", "0"], "coupling g must be nonzero"),
            (["fidelity-scan", "--nbar", "4", "--ensemble", "2", "--time-points", "3",
              "--gg", "1e-300", "--ge", "1e-300", "--strict"], "coupling g must be nonzero"),
            (["rabi", "--nbar", "4", "--gg", "1e200", "--ge", "1e200", "--points", "3"],
             "coupling g must be finite, got -inf"),
        ],
        ids=["efficiency", "efficiency-strict", "delta", "rabi-g0", "bell-timing-g0",
             "fidelity-scan-g-underflows-strict", "rabi-g-overflows"],
    )
    def test_out_of_range_values_exit_2(self, tmp_path, capsys, argv, message):
        """A value that a library constructor refuses exits 2 with its
        message, before and inside the validity check, so --strict cannot
        turn it into exit 3.  The coupling g that --gg, --ge and --delta
        give is checked before the validity report, which would otherwise
        read its under- or overflow as a validity failure."""
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "validity warning" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rabi", "--g", "1e-310", "--points", "3"], _TINY_G),
            (["ghz", "--g", "1e-310"], _TINY_G),
            (["bell", "--ensemble", "3", "--g", "1e-310"], _TINY_G),
            (["ghz", "--g", "0"], "coupling g must be nonzero"),
            (["bell", "--ensemble", "2", "--g", "0"], "coupling g must be nonzero"),
            (["fidelity-scan", "--ensemble", "2", "--time-points", "3", "--gg", "1e-300",
              "--ge", "1e-300"], "coupling g must be nonzero"),
            (["fidelity-scan", "--ensemble", "2", "--time-points", "3", "--delta", "1e308",
              "--gg", "1e-300"], "coupling g must be nonzero"),
            (["rabi", "--ge", "1e-120", "--points", "3"], None),
            (["ghz", "--ge", "1e-120"], None),
            (["bell-timing", "--ge", "1e-120", "--points", "3"], None),
            (["bell", "--ensemble", "3", "--phi", "1e308", "--efficiency", "0.5"], None),
            (["rabi", "--gt-max", "1e308", "--points", "3"],
             "gt_max_over_pi = 1e+308 puts the time grid past the float range"),
            (["bell-timing", "--half-width", "1e308", "--points", "3"],
             "half_width_gt = 1e+308 puts the time grid past the float range"),
        ],
        ids=["rabi-tiny-g", "ghz-tiny-g", "bell-tiny-g", "ghz-g0", "bell-g0",
             "fidelity-scan-g-underflows", "fidelity-scan-delta-squared-overflows",
             "rabi-tiny-ge", "ghz-tiny-ge", "bell-timing-tiny-ge", "bell-huge-lo-phase",
             "rabi-time-grid-overflows", "bell-timing-time-grid-overflows"],
    )
    def test_extreme_finite_values_exit_cleanly(self, tmp_path, capsys, argv, message):
        """Finite values at the ends of the float range neither raise nor
        write NaN: a coupling g that is zero, or whose revival time pi/|g|
        overflows, exits 2 with the coupling check's one error line and
        writes nothing; otherwise the run exits 0 (the validity report
        reads inf where its numbers overflow) with finite time,
        probability, rate and fidelity columns.  Only a postselected
        fidelity of an outcome that no shot reached is NaN."""
        out = tmp_path / "out.csv"
        code = main([argv[0], "--nbar", "4", *argv[1:], "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if message is not None:
            assert code == 2 and errors == [f"error: {message}"]
            assert not list(tmp_path.iterdir())
            return
        assert code == 0 and errors == []
        _, columns, rows = read_csv_table(out)
        kept = [j for j, c in enumerate(columns) if not c.startswith(("mean_F_", "stderr_F_"))]
        assert rows.size and np.all(np.isfinite(rows[:, kept]))

    @pytest.mark.parametrize(
        "argv",
        [
            ["bell", "--nbar", "4", "--ensemble", "0"],
            ["bell-timing", "--nbar", "4", "--points", "0"],
            ["fidelity-scan", "--nbar", "4", "--ensemble", "2", "--time-points", "0"],
            ["wigner", "--nbar", "4", "--grid-points", "0"],
            ["rabi", "--nbar", "4", "--points", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_rejects_sizes_below_one(self, tmp_path, capsys, argv):
        """A size of 0 exits 2 with a message that names its flag, and
        writes nothing."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["ghz", "--nbar", "4", "--phi", "nan"],
            ["wigner", "--nbar", "4", "--phi", "inf"],
            ["rabi", "--nbar", "4", "--g", "nan"],
            ["rabi", "--nbar", "4", "--gg", "inf"],
            ["rabi", "--nbar", "4", "--ge", "inf"],
            ["rabi", "--nbar", "4", "--delta", "nan"],
            ["rabi", "--nbar", "4", "--gt-max", "nan"],
            ["bell-timing", "--nbar", "4", "--half-width", "inf"],
            ["bell", "--nbar", "4", "--ensemble", "2", "--efficiency", "0.5", "--lo-phase", "nan"],
            ["bell", "--nbar", "4", "--ensemble", "2", "--efficiency", "nan"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_rejects_non_finite_floats(self, tmp_path, capsys, argv):
        """A nan or infinite value of a float flag exits 2 naming the flag,
        before any scan, and writes nothing."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: must be finite, got {argv[-1]!r}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ghz", "--nbar", "ten"], "argument --nbar: bad nbar list 'ten'"),
            (["ghz", "--nbar", "4", "--phi", "pi"], "argument --phi: expected a number, got 'pi'"),
            (["rabi", "--nbar", "4", "--points", "2.5"],
             "argument --points: expected an integer, got '2.5'"),
        ],
        ids=["nbar", "phi", "points"],
    )
    def test_rejects_non_numeric_text(self, tmp_path, capsys, argv, message):
        """Text that is not a number exits 2 with a message that names its
        flag and the text, and writes nothing."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_config_floats_meet_the_same_type(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("phi = nan\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["ghz", "--nbar", "4", "--config", str(config), "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert "argument --phi: must be finite, got 'nan'" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["rabi", "--nbar", "4,400", "--strict"],
            ["wigner", "--nbar", "4,7"],
            ["bell-timing", "--nbar", "4,7"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_single_nbar_commands_reject_a_list(self, tmp_path, capsys, argv):
        """These commands run at one mean photon number: a second value
        exits 2 naming --nbar, before any validity check or scan."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert "argument --nbar: takes one value, got 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_one_grid_point_writes_three_panels(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["wigner", "--nbar", "4", "--grid-points", "1", "--out", str(out)]) == 0
        for label in ("t0", "tr4", "tr2"):
            assert read_csv_table(tmp_path / f"w_{label}.csv")[2].shape == (1, 3)

    def test_wigner_runs_where_exp_of_minus_x2_underflows(self, tmp_path):
        """At nbar = 500 the lattice reaches |x| = 32, past the 26.6 where
        exp(-x^2) leaves the normal floats: the panels come out finite."""
        out = tmp_path / "w.csv"
        with pytest.warns(UserWarning, match="fringes"):  # 41 points are coarse here
            assert main(["wigner", "--nbar", "500", "--grid-points", "41", "--out", str(out)]) == 0
        for label in ("t0", "tr4", "tr2"):
            rows = read_csv_table(tmp_path / f"w_{label}.csv")[2]
            assert rows.shape == (41 * 41, 3) and np.isfinite(rows).all()

    def test_homodyne_bell_runs_where_exp_of_minus_x2_underflows(self, tmp_path):
        out = tmp_path / "b.csv"
        argv = ["bell", "--nbar", "500", "--ensemble", "2", "--efficiency", "0.5"]
        assert main(argv + ["--out", str(out)]) == 0
        assert read_csv_table(out)[2].shape[0] == 1


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestDispatch:
    """Each subcommand's flags are its scan's keyword arguments."""

    OWN = {"help", "out", "format", "config", "strict"}

    def test_every_dest_is_a_keyword_of_the_scan(self):
        assert set(cli._SCANS) == set(subparsers())
        for command, sp in subparsers().items():
            assert cli._SCANS[command] in scans.__all__
            params = inspect.signature(getattr(scans, cli._SCANS[command])).parameters
            dests = {a.dest for a in sp._actions} - self.OWN
            if "g" in dests:  # --gg, --ge and --delta give g unless --g is set
                dests -= {"g_g", "g_e", "delta"}
            if "efficiency" in dests:
                dests = dests - {"efficiency", "lo_phase"} | {"detection"}
            assert dests <= set(params), command
            assert all(params[d].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for d in dests)

    @pytest.mark.parametrize("command", list(cli._SCANS))
    def test_one_subcommand_parses_and_prints_as_all_six(self, command):
        """main builds only the running subcommand's arguments; that parser
        prints the same help and top-level usage as the full one, and
        parses the same line to the same namespace."""
        parser = cli.build_parser(command)
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(action.choices) == [command]
        assert action.choices[command].format_help() == subparsers()[command].format_help()
        assert parser.format_usage() == cli.build_parser().format_usage()
        line = [command, "--format", "json"]
        assert parser.parse_args(line) == cli.build_parser().parse_args(line)

    def test_usage_keeps_the_flag_metavars(self):
        shown = {"--nbar": "--nbar NBAR", "--gg": "--gg GG", "--ge": "--ge GE",
                 "--gt-max": "--gt-max GT_MAX", "--half-width": "--half-width HALF_WIDTH"}
        for command, sp in subparsers().items():
            usage = sp.format_usage()
            flags = {o for a in sp._actions for o in a.option_strings}
            for flag in flags & set(shown):
                assert shown[flag] in usage, (command, flag)


@pytest.mark.parametrize(
    "argv",
    [["ghz"], ["bell"], ["bell", "--efficiency", "0.5"], ["bell-timing"]],
    ids=["ghz", "bell", "bell-homodyne", "bell-timing"],
)
def test_exact_protocol_subcommands_run_no_eigh(argv, tmp_path, monkeypatch, eigh_calls, fresh_caches):
    """Every exact protocol subcommand, on empty caches, builds W's
    spectrum in closed form: neither eigh nor eigvalsh runs."""
    builds = []
    build = protocols.w_spectrum
    monkeypatch.setattr(protocols, "w_spectrum", lambda *p: builds.append(p) or build(*p))
    assert main([*argv, "--nbar", "20", "--out", str(tmp_path / "o.csv")]) == 0
    assert builds
    assert eigh_calls == []


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

    def test_multi_nbar_scan_names_its_shared_cutoff(self, tmp_path):
        """Every nbar of a fidelity scan evolves on the largest nbar's cutoff;
        the params line and the sidecar name it."""
        out = tmp_path / "f.csv"
        argv = ["fidelity-scan", "--nbar", "4,20", "--ensemble", "1", "--time-points", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        n_max = FockCutoff.for_mean_photon(20).n_max
        header, _, _ = read_csv_table(out)
        assert json.loads(header["params"])["n_max"] == n_max
        assert json.loads((tmp_path / "f.csv.meta.json").read_text())["params"]["n_max"] == n_max

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
    """rabi_curve replaced by a scan that builds its table inside main."""
    monkeypatch.setattr(scans, "rabi_curve", lambda **kwargs: scans.ScanResult(columns, rows, {}))


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

    @staticmethod
    def edge_table():
        """Three chunks and seven rows holding the repeats that a float-keyed
        lookup gets wrong: 0.0 beside -0.0, NaNs with three payloads (one
        negative, one signalling) beside +-inf, one value down a column and
        across columns over a chunk edge, the exact ties of '%.17g', a run
        of repeats cut by a chunk edge, and a middle chunk of one constant."""
        c = cli._CSV_CHUNK
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((3 * c + 7, 3))
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000002, 0x7FF0000000000003], np.uint64)
        nan_a, nan_b, nan_c = nans.view(np.float64)
        rows[c - 50 : c, 0] = 1.0 / 3.0  # repeated down a column ...
        rows[c - 50 : c, 2] = 1.0 / 3.0  # ... and across columns
        rows[c : 2 * c] = 7.25  # a whole chunk of one constant
        rows[2 * c : 2 * c + 50, 1] = 1.0 / 3.0
        rows[2 * c + 100 : 2 * c + 300] = TestEmit.TIES.reshape(-1, 3)
        rows[3 * c - 13 : 3 * c + 7, 1] = np.repeat(rng.standard_normal(4), 5)  # runs of 5
        for r in (0, c - 2, 2 * c + 1, 3 * c + 3):
            rows[r] = [0.0, -0.0, nan_a]
            rows[r + 1] = [-0.0, nan_b, 0.0]
            rows[r + 2] = [np.inf, nan_c, -np.inf]
        return rows

    @pytest.mark.parametrize(
        "layout",
        [
            lambda rows: rows,
            np.asfortranarray,
            lambda rows: rows[:, ::-1],
        ],
        ids=["c-order", "fortran", "reversed-columns"],
    )
    def test_repeated_cells_keep_their_own_text(self, tmp_path, monkeypatch, layout):
        rows = layout(self.edge_table())
        assert np.signbit(rows).any() and np.isnan(rows).sum() == 12
        fake_rabi(monkeypatch, self.COLUMNS, rows)
        out = tmp_path / "r.csv"
        assert main(["rabi", "--g", "-0.02", "--out", str(out)]) == 0
        body = out.read_text().splitlines()[6:]
        assert body == [",".join(format(v, ".17g") for v in row) for row in rows.tolist()]

    @pytest.mark.filterwarnings("ignore:grid spacing:UserWarning")
    def test_default_wigner_panels_are_their_rows_as_17g_text(self, tmp_path):
        """A default `wigner` run writes ten chunks a panel: every cell, on
        both sides of all 30 chunk edges, is its scan row's '.17g' text."""
        out = tmp_path / "w.csv"
        assert main(["wigner", "--out", str(out)]) == 0
        g = effective_coupling(cli._DEF_GG, cli._DEF_GE, cli._DEF_DELTA)
        for label, result in scans.wigner_panels(50.0, 2.0 * math.pi / 3.0, g, 201).items():
            assert len(result.rows) > 9 * cli._CSV_CHUNK
            body = (tmp_path / f"w_{label}.csv").read_text().splitlines()[6:]
            assert body == self.g17_lines(result.rows)

    def test_writer_memory_stays_per_chunk(self, tmp_path):
        """The peak of writing 12 chunks stays near that of one chunk, so
        no step holds the text or the lookup of the whole table."""
        rng = np.random.default_rng(3)
        header = {"command": "rabi", "version": __version__, "seed": None,
                  "params": {}, "columns": list(self.COLUMNS)}
        peaks = []
        for chunks in (1, 12):
            values = rng.standard_normal((chunks * cli._CSV_CHUNK, 3))
            with traced_peak() as mem:
                cli._write_csv(str(tmp_path / f"r{chunks}.csv"), header, values, 0.0)
            peaks.append(mem.peak)
        assert peaks[1] <= 1.5 * peaks[0]

    @pytest.mark.filterwarnings("ignore:grid spacing:UserWarning")
    def test_wigner_panels_are_their_rows_as_17g_text(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["wigner", "--nbar", "4", "--grid-points", "41", "--out", str(out)]) == 0
        g = effective_coupling(cli._DEF_GG, cli._DEF_GE, cli._DEF_DELTA)
        panels = scans.wigner_panels(4.0, 2.0 * math.pi / 3.0, g, 41)
        for label, result in panels.items():
            body = (tmp_path / f"w_{label}.csv").read_text().splitlines()[6:]
            rows = np.asarray(result.rows, dtype=np.float64).tolist()
            assert body == [",".join(format(v, ".17g") for v in row) for row in rows]

    @staticmethod
    def g17_lines(rows):
        return [",".join(format(v, ".17g") for v in row) for row in np.asarray(rows).tolist()]

    @staticmethod
    def as_rows(values):
        """values in rows of 3, padded with zeros."""
        return np.append(values, np.zeros(-len(values) % 3)).reshape(-1, 3)

    # Exact ties at 17 digits, which '%.17g' rounds half to even: quarters
    # in [2**50, 2**51) and eighths in [2**49, 1e15) have 18 significant
    # digits ending in 5.
    TIES = np.concatenate([
        (4 * np.arange(2**50, 2**50 + 200) + 1) / 4.0,
        (4 * np.arange(2**51 - 200, 2**51) + 3) / 4.0,
        (8 * np.arange(7 * 10**14, 7 * 10**14 + 200) + 1) / 8.0,
    ])
    # Doubles just under 10**k whose '.17g' significand carries to '1e-k'.
    CARRIES = np.array([1e-305, 1e-243, 1e-176, 1e-79, 1e-14])
    # Within 2 eps d of a tie, where an x87 extended product alone rounds
    # the 17th digit the wrong way.
    NEAR_TIES = np.array([8.959129978518228e-298, -7.0720813606911665e+106,
                          2.612739370971875e-121, 1.7229106732411994e-160,
                          -2.7717156422263804e-127, 6.041878509078511e-71])

    def test_edge_values_are_17g_text(self, tmp_path, monkeypatch):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate([
            powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0),
            np.ldexp(1.0, np.arange(-1074, 1024)),
            self.TIES, self.CARRIES, self.NEAR_TIES,
            [1e-5, 9.9999999999999999e-5, 1e-4, 1e16, 1e17],  # fixed/scientific switch
            [1.234e100, 5e-324, 1.7976931348623157e308, 2.2250738585072014e-308],
        ])
        assert {format(v, ".17g")[-1] for v in self.TIES} >= {"2", "8"}
        rows = self.as_rows(np.concatenate([values, -values]))
        fake_rabi(monkeypatch, self.COLUMNS, rows)
        out = tmp_path / "r.csv"
        assert main(["rabi", "--g", "-0.02", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[6:] == self.g17_lines(rows)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
    def test_float64_bit_patterns_are_17g_text(self, bits):
        rows = self.as_rows(np.array(bits, dtype=np.uint64).view(np.float64))
        assert cli._csv_bytes(rows).decode("ascii").splitlines() == self.g17_lines(rows)

    @pytest.mark.parametrize("case", ["every-cell-falls-back", "no-cell-falls-back", "mixed"])
    def test_fast_path_and_fallback_write_the_same_text(self, case):
        """The extended-precision path takes exact multiples of 1/4; ties,
        carries, zeros and non-finite cells fall back to '%.17g'. Where
        np.longdouble is float64, every cell falls back."""
        fall_back = np.concatenate([self.TIES, self.CARRIES, [0.0, -0.0, np.nan, np.inf, -np.inf]])
        fast = np.arange(1, 1000) / 4.0
        values = {"every-cell-falls-back": fall_back, "no-cell-falls-back": fast,
                  "mixed": np.concatenate([fast[:300], fall_back, self.NEAR_TIES, fast[300:]])}[case]
        rows = self.as_rows(np.concatenate([values, -values]))
        on_fast_path = cli._g17_significand(rows.ravel())[2]
        extended = np.finfo(np.longdouble).nmant in (63, 112)  # x87 extended or quad
        if case == "every-cell-falls-back" or not extended:
            assert not on_fast_path.any()
        elif case == "no-cell-falls-back":
            assert on_fast_path.all()
        else:
            assert 0 < on_fast_path.sum() < on_fast_path.size - 3
        assert cli._csv_bytes(rows).decode("ascii").splitlines() == self.g17_lines(rows)

    def test_powers_of_ten_are_correctly_rounded(self):
        pow10 = cli._g17_tables()[0]
        zero, inf = np.longdouble(0), np.longdouble(np.inf)
        for k, p in zip(range(cli._POW_LO, cli._POW_HI + 1), pow10, strict=True):
            exact = Fraction(10) ** k
            err = abs(Fraction(*p.as_integer_ratio()) - exact)
            for q in (np.nextafter(p, zero), np.nextafter(p, inf)):
                assert err <= abs(Fraction(*q.as_integer_ratio()) - exact)

    def test_import_builds_no_formatter_tables(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import dicke2p.cli as c; print(c._g17_tables.cache_info().currsize)"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.strip() == "0"

    def test_infinite_values_are_null_in_json_and_inf_in_csv(self, tmp_path, monkeypatch):
        """RFC 8259 has no Infinity token: non-finite cells and params read
        back as null from strict JSON, while CSV cells keep inf and -inf."""
        result = scans.ScanResult(self.COLUMNS, np.array([[0.0, np.inf, -np.inf]]),
                                  {"span": np.inf, "low": -np.inf, "nbar": 4.0})
        monkeypatch.setattr(scans, "rabi_curve", lambda **kwargs: result)

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
        "columns, rows",
        [
            ((), np.zeros((2, 0))),
            (COLUMNS, np.array([[0.0, "x", 1.0]], dtype=object)),
        ],
    )
    def test_bad_table_exits_2_without_a_file(self, tmp_path, monkeypatch, capsys,
                                              columns, rows):
        """A table that ScanResult or the float64 conversion refuses exits 2
        before any file is opened."""
        fake_rabi(monkeypatch, columns, rows)
        out = tmp_path / "r.csv"
        assert main(["rabi", "--g", "-0.02", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# Subcommands, at their defaults but for these flags, whose files must not
# depend on the BLAS thread count.
THREAD_INVARIANT_RUNS = {
    "fidelity_scan": ["fidelity-scan"],
    "rabi": ["rabi"],
    "ghz": ["ghz"],
    "ghz_analytic": ["ghz", "--engine", "analytic"],
    "bell": ["bell"],
    "bell_analytic": ["bell", "--engine", "analytic"],
    "bell_homodyne": ["bell", "--efficiency", "0.5"],
    "bell_analytic_homodyne": ["bell", "--engine", "analytic", "--efficiency", "0.5"],
    "bell_timing": ["bell-timing"],
}


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Every run of THREAD_INVARIANT_RUNS writes the same bytes, wall_time_s
    aside, under OPENBLAS_NUM_THREADS=1 and =2.  `wigner` is left out: its
    `analysis._wigner_pairs` gives cells that differ by up to 2.8e-17
    between those thread counts; so is `bell-timing` away from its default
    nbar = 50, whose bits move with the thread count at nbar = 10, 20, 100
    and 200.  A 2-thread fidelity-scan can take about 1 s on its first call
    (the OpenBLAS first-call stall), well inside the timeout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys; from dicke2p.cli import main; out = sys.argv[1]; "
        f"runs = {THREAD_INVARIANT_RUNS!r}; "
        "sys.exit(max(main(argv + ['--out', f'{out}/{name}.csv'])"
        "             for name, argv in runs.items()))"
    )
    runs = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        runs.append(subprocess.Popen([sys.executable, "-c", code, str(tmp_path / threads)],
                                     env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
    written = []
    for run, threads in zip(runs, ("1", "2")):
        assert run.wait(timeout=60) == 0, run.stderr.read()
        run.stderr.close()
        written.append({
            p.name: [line for line in p.read_text().splitlines() if "wall_time_s" not in line]
            for p in sorted((tmp_path / threads).iterdir())
        })
    assert len(written[0]) == 2 * len(THREAD_INVARIANT_RUNS)
    assert written[0] == written[1]


@pytest.fixture(scope="module")
def output_schema():
    """A validator for the published shape of a --format json payload."""
    text = resources.files("dicke2p").joinpath("data/output_schema.json").read_text("utf-8")
    schema = json.loads(text)
    Draft7Validator.check_schema(schema)
    return Draft7Validator(schema)


class TestOutputSchema:
    """data/output_schema.json, checked by a JSON Schema validator against
    what the CLI writes. The CSV sidecar has no rows and adds rows_file, so
    it has its own shape, definitions/sidecar."""

    RUNS = {
        "fidelity-scan": ["--nbar", "4,6", "--ensemble", "2", "--time-points", "3"],
        "rabi": ["--nbar", "4", "--points", "5"],
        "wigner": ["--nbar", "4", "--grid-points", "81"],
        "ghz": ["--nbar", "4,6"],
        "bell": ["--nbar", "4", "--ensemble", "2", "--efficiency", "0.5"],
        "bell-timing": ["--nbar", "4", "--points", "5"],
    }

    @pytest.mark.parametrize("command", list(subparsers()))
    def test_every_payload_meets_the_schema(self, tmp_path, output_schema, command):
        out = tmp_path / "out.json"
        assert main([command, *self.RUNS[command], "--format", "json", "--out", str(out)]) == 0
        paths = sorted(tmp_path.iterdir())
        assert len(paths) == (3 if command == "wigner" else 1)
        for path in paths:
            output_schema.validate(json.loads(path.read_text()))

    @pytest.mark.parametrize("command", list(subparsers()))
    def test_every_sidecar_meets_its_definition(self, tmp_path, output_schema, command):
        out = tmp_path / "out.csv"
        assert main([command, *self.RUNS[command], "--out", str(out)]) == 0
        sidecars = sorted(tmp_path.glob("*.meta.json"))
        assert len(sidecars) == (3 if command == "wigner" else 1)
        sidecar = output_schema.evolve(schema=output_schema.schema["definitions"]["sidecar"])
        for path in sidecars:
            meta = json.loads(path.read_text())
            sidecar.validate(meta)
            assert (tmp_path / meta["rows_file"]).is_file()

    @pytest.mark.parametrize(
        "change, keyword, where",
        [
            ({"extra": 1}, "additionalProperties", "$"),
            ({"seed": True}, "type", "$.seed"),
            ({"columns": []}, "minItems", "$.columns"),
        ],
        ids=["extra-key", "bool-seed", "no-columns"],
    )
    def test_schema_refuses_header(self, output_schema, change, keyword, where):
        header = {"command": "rabi", "version": __version__, "seed": None,
                  "params": {}, "columns": ["a"], "rows": [[0.0]]}
        output_schema.validate(header)
        with pytest.raises(ValidationError) as exc:
            output_schema.validate({**header, **change})
        assert (exc.value.validator, exc.value.json_path) == (keyword, where)


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

    def test_config_skips_blank_and_comment_lines(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# small field\n\nnbar = 4\n   \n  # g set\ng = -0.02\npoints = 3\n")
        out = tmp_path / "r.csv"
        assert main(["rabi", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_csv_table(out)[2].shape[0] == 3

    @pytest.mark.parametrize("value, code", [("yes", 3), ("True", 3), ("no", 0), ("0", 0)])
    def test_config_strict_is_a_boolean(self, tmp_path, capsys, value, code):
        """strict = yes escalates the nbar = 50 validity warning to exit 3;
        strict = no leaves it a warning."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"strict = {value}\n")
        argv = ["ghz", "--nbar", "50", "--engine", "analytic", "--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "g.csv")]) == code
        assert "validity warning" in capsys.readouterr().err
        assert (tmp_path / "g.csv").exists() == (code == 0)

    def test_config_strict_refuses_other_words(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strict = maybe\n")
        assert main(["ghz", "--nbar", "4", "--config", str(cfg)]) == 2
        assert f"{cfg}:1: strict must be boolean" in capsys.readouterr().err

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

    def test_printed_limit_is_the_reports(self, capsys, monkeypatch):
        """The warning prints the numbers that validity_report compared, so
        a different margin moves the printed limit with it."""
        monkeypatch.setattr(models, "VALIDITY_MARGIN", 0.2)
        assert main(["ghz", "--nbar", "50", "--strict"]) == 3
        err = capsys.readouterr().err
        assert "(ge*nbar*pi = 157.1 vs margin*delta = 100)" in err
        assert "Stark" not in err

    def test_stark_warning_prints_both_numbers(self, capsys):
        assert main(["ghz", "--nbar", "10", "--gg", "1", "--ge", "1.1", "--strict"]) == 3
        err = capsys.readouterr().err
        assert "Stark shift is not negligible (|ge^2-gg^2| = 0.21 vs ge^3/delta = 0.002662)" in err
        assert "revival" not in err

    def test_explicit_g_skips_gate(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            ["rabi", "--nbar", "50", "--g", "-0.002", "--points", "3",
             "--gt-max", "0.01", "--out", str(out)]
        )
        assert code == 0
        assert "validity warning" not in capsys.readouterr().err
