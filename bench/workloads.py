"""The benchmark's three workloads: inputs made from the seed, the timed
calls into dicke2p, and the checks on their outputs.

Each workload is a closed loop driven by one client: the next call starts
when the previous one has returned.  `run` times the calls only; `check`
runs afterwards and counts the operations that raised or failed a check.
Deterministic outputs are compared by columns and rows, never by file
bytes or by the `params` metadata (which carries a wall time).
"""

from __future__ import annotations

import cmath
import math
import time
from pathlib import Path

import numpy as np

G = -0.002
PHI = math.pi / 8.0
NBAR = 50.0

# Sizes chosen so one repetition of each workload takes about 10 s on a
# 2-core machine.  The grids, photon numbers and inputs are fixed.
HIERARCHY_ENSEMBLE = 10
HIERARCHY_NBARS = (20, 50, 100)
HIERARCHY_TIME_POINTS = 101
BELL_IDEAL_SHOTS = 1000
BELL_HOMODYNE_SHOTS = 300
BELL_TABLE_ENSEMBLE = 200
BELL_TIMING_POINTS = 321
WIGNER_GRID = 201
RABI_POINTS = 481

# Seeds with stored reference outputs: the default seed 0, the seeds a
# ten-run comparison usually takes, and the held-out seed 12345 kept for
# confirming a claim on inputs not used while a change was written.
REFERENCE_SEEDS = (*range(20), 12345)

ABS_TOL = 1e-9  # agreement with stored references, per element
FALSE_ALARM = 1e-4  # per-run false-alarm rate of every statistical check

REFS_PATH = Path(__file__).resolve().with_name("refs.npz")


class Checks:
    """Failure messages of one operation group."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return bool(ok)

    def close(self, label: str, got: np.ndarray, want: np.ndarray, tol: float = ABS_TOL) -> bool:
        if got.shape != want.shape:
            return self.expect(False, f"{label}: shape {got.shape} != {want.shape}")
        gap = float(np.max(np.abs(got - want))) if got.size else 0.0
        return self.expect(gap <= tol, f"{label}: max abs gap {gap:.3e} > {tol:.0e}")


class Result:
    """Timings, operation counts and failure messages of one repetition."""

    def __init__(self) -> None:
        self.timings: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counters: dict[str, float] = {}

    def tally(self, ops: int, failed: int, messages: list[str]) -> None:
        self.attempted += ops
        self.failed += failed
        self.failures += messages


def read_csv(path: Path) -> tuple[list[str], np.ndarray, int]:
    """Columns, rows and table-body bytes of a CLI CSV; '#' lines are
    metadata and skipped."""
    with open(path, "rb") as fh:
        body = [ln for ln in fh if not ln.startswith(b"#")]
    columns = body[0].decode().strip().split(",")
    rows = np.loadtxt(body[1:], delimiter=",", ndmin=2)
    return columns, rows, sum(len(ln) for ln in body)


def _refs() -> dict[str, np.ndarray]:
    with np.load(REFS_PATH) as z:
        return {k: z[k] for k in z.files}


def _binomial_outliers(counts: dict, probs: dict, n: int, alpha: float) -> list[str]:
    """Outcomes whose count fails an exact two-sided binomial test at
    level alpha / (number of outcomes), so the whole test errs with
    probability at most alpha."""
    from scipy.stats import binom

    level = alpha / len(probs)
    bad = []
    for o, p in probs.items():
        k = counts.get(o, 0)
        pval = 2.0 * min(binom.cdf(k, n, p), binom.sf(k - 1, n, p))
        if pval < level:
            bad.append(f"{o}: {k}/{n} vs p={p:.6f} (p-value {pval:.2e})")
    return bad


def _cli(dicke2p, argv: list[str]) -> int | str:
    """Exit code of one CLI command, or the exception it raised."""
    try:
        return dicke2p.cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - the loop records it and goes on
        return f"{type(exc).__name__}: {exc}"


# --------------------------------------------------------------------------
# hierarchy: reduced-vs-full fidelity scan

def hierarchy_columns() -> list[str]:
    cols = ["gt_over_pi"]
    for n in HIERARCHY_NBARS:
        cols += [f"mean_FW_nbar{n}", f"stderr_FW_nbar{n}", f"mean_F_nbar{n}", f"stderr_F_nbar{n}"]
    return cols


class Hierarchy:
    name = "hierarchy"
    ops_per_rep = 1

    def setup(self, dicke2p, seed: int, workdir: Path) -> dict:
        out = workdir / "fidelity_scan.csv"
        argv = [
            "fidelity-scan",
            "--nbar", ",".join(str(n) for n in HIERARCHY_NBARS),
            "--time-points", str(HIERARCHY_TIME_POINTS),
            "--ensemble", str(HIERARCHY_ENSEMBLE),
            "--seed", str(seed),
            "--out", str(out),
        ]
        return {"seed": seed, "argv": argv, "out": out}

    def run(self, dicke2p, inp: dict, tracer=None) -> dict:
        t0 = time.perf_counter()
        code = _cli(dicke2p, inp["argv"])
        return {"code": code, "scan_s": time.perf_counter() - t0}

    def check(self, inp: dict, raw: dict, res: Result) -> None:
        res.timings["scan_s"] = raw["scan_s"]
        chk = Checks()
        if chk.expect(raw["code"] == 0, f"fidelity-scan exited with {raw['code']!r}"):
            cols, rows, nbytes = read_csv(inp["out"])
            res.counters["cli.bytes_written"] = nbytes
            check_hierarchy(chk, inp["seed"], cols, rows)
        res.tally(1, int(bool(chk.failures)), chk.failures)


def check_hierarchy(chk: Checks, seed: int, cols: list[str], rows: np.ndarray) -> None:
    if not chk.expect(cols == hierarchy_columns(), f"columns {cols}"):
        return
    if not chk.expect(rows.shape == (HIERARCHY_TIME_POINTS, len(cols)), f"shape {rows.shape}"):
        return
    if seed in REFERENCE_SEEDS:
        chk.close(f"fidelity scan vs reference (seed {seed})", rows, _refs()[f"hierarchy_seed{seed}"])
    col = {c: i for i, c in enumerate(cols)}
    chk.close("time grid", rows[:, 0], np.linspace(0.0, 1.0, HIERARCHY_TIME_POINTS), 1e-12)
    means = rows[:, [i for c, i in col.items() if c.startswith("mean_")]]
    errs = rows[:, [i for c, i in col.items() if c.startswith("stderr_")]]
    chk.expect(np.all(np.isfinite(rows)), "non-finite values")
    chk.close("fidelities at t = 0", means[0], np.ones(means.shape[1]))
    chk.expect(np.all((means >= 0.0) & (means <= 1.0 + ABS_TOL)), "mean fidelity outside [0, 1]")
    chk.expect(np.all(errs >= 0.0), "negative standard error")
    # Criterion-4 window clause, min_t <F>(nbar=100) >= 0.9, as a one-sided
    # t-test per time point with a union bound over the grid.  The link
    # <F_W>(100) >= <F_W>(50) is an expected failure and is not checked.
    from scipy.stats import t as student

    k = student.ppf(1.0 - FALSE_ALARM / HIERARCHY_TIME_POINTS, HIERARCHY_ENSEMBLE - 1)
    top = rows[:, col["mean_F_nbar100"]] + k * rows[:, col["stderr_F_nbar100"]]
    chk.expect(np.all(top >= 0.9), f"window clause: min <F>(100) + {k:.2f} stderr below 0.9")


# --------------------------------------------------------------------------
# revival: collapse/revival curve and Wigner panels through the CLI

WIGNER_LABELS = ("t0", "tr4", "tr2")
WIGNER_STRIDE = 5  # reference keeps every 5th point of each axis
WIGNER_PROJECTIONS = 4


def wigner_axis() -> np.ndarray:
    span = math.sqrt(NBAR) + 5.0
    return np.linspace(-span, span, WIGNER_GRID)


def wigner_digest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subsampled grid, random projections of the full grid, and the
    worst-case projection change when every value moves by ABS_TOL."""
    grid = values.reshape(WIGNER_GRID, WIGNER_GRID)
    weights = np.random.default_rng(20261017).standard_normal((WIGNER_PROJECTIONS, grid.size))
    return (
        grid[::WIGNER_STRIDE, ::WIGNER_STRIDE],
        weights @ grid.ravel(),
        ABS_TOL * np.abs(weights).sum(axis=1),
    )


class Revival:
    name = "revival"
    ops_per_rep = 2

    def setup(self, dicke2p, seed: int, workdir: Path) -> dict:
        rabi, wig = workdir / "rabi.csv", workdir / "wigner.csv"
        return {
            "rabi": ["rabi", "--nbar", str(int(NBAR)), "--out", str(rabi)],
            "wigner": ["wigner", "--nbar", str(int(NBAR)), "--out", str(wig)],
            "rabi_out": rabi,
            "wigner_out": {lb: workdir / f"wigner_{lb}.csv" for lb in WIGNER_LABELS},
        }

    def run(self, dicke2p, inp: dict, tracer=None) -> dict:
        t0 = time.perf_counter()
        rabi = _cli(dicke2p, inp["rabi"])
        t1 = time.perf_counter()
        wig = _cli(dicke2p, inp["wigner"])
        t2 = time.perf_counter()
        return {"rabi": rabi, "wigner": wig, "rabi_s": t1 - t0, "wigner_s": t2 - t1}

    def check(self, inp: dict, raw: dict, res: Result) -> None:
        res.timings.update(scan_s=raw["rabi_s"] + raw["wigner_s"],
                           rabi_s=raw["rabi_s"], wigner_s=raw["wigner_s"])
        refs = _refs()
        nbytes = 0

        chk = Checks()
        if chk.expect(raw["rabi"] == 0, f"rabi exited with {raw['rabi']!r}"):
            cols, rows, n = read_csv(inp["rabi_out"])
            nbytes += n
            check_rabi(chk, cols, rows, refs)
        res.tally(1, int(bool(chk.failures)), chk.failures)

        chk = Checks()
        if chk.expect(raw["wigner"] == 0, f"wigner exited with {raw['wigner']!r}"):
            for label, path in inp["wigner_out"].items():
                cols, rows, n = read_csv(path)
                nbytes += n
                check_wigner(chk, label, cols, rows, refs)
        res.tally(1, int(bool(chk.failures)), chk.failures)
        res.counters["cli.bytes_written"] = nbytes


def check_rabi(chk: Checks, cols, rows, refs) -> None:
    if not chk.expect(cols == ["gt_over_pi", "see_numeric", "see_analytic"], f"rabi columns {cols}"):
        return
    if not chk.close("rabi curve vs reference", rows, refs["rabi"]):
        return
    # Criterion 3: closed form tracks the exact curve over gt in [0, pi],
    # and <S_ee> has collapsed back near zero at the revival time.
    window = rows[:, 0] <= 1.0 + 1e-12
    rms = float(np.sqrt(np.mean((rows[window, 1] - rows[window, 2]) ** 2)))
    chk.expect(rms < 0.02, f"criterion 3: RMS {rms:.4f} >= 0.02")
    at_tr = int(np.argmin(np.abs(rows[:, 0] - 1.0)))
    chk.expect(rows[at_tr, 1] < 0.05, f"criterion 3: <S_ee>(t_r) = {rows[at_tr, 1]:.4f}")


def check_wigner(chk: Checks, label: str, cols, rows, refs) -> None:
    if not chk.expect(cols == ["beta_re", "beta_im", "wigner"], f"wigner {label} columns {cols}"):
        return
    if not chk.expect(rows.shape == (WIGNER_GRID**2, 3), f"wigner {label} shape {rows.shape}"):
        return
    axis = wigner_axis()
    re_m, im_m = np.meshgrid(axis, axis)
    chk.close(f"wigner {label} beta_re", rows[:, 0], re_m.ravel(), 1e-12)
    chk.close(f"wigner {label} beta_im", rows[:, 1], im_m.ravel(), 1e-12)
    sub, proj, proj_tol = wigner_digest(rows[:, 2])
    chk.close(f"wigner {label} subgrid vs reference", sub, refs[f"wigner_{label}_sub"])
    gap = np.abs(proj - refs[f"wigner_{label}_proj"])
    chk.expect(np.all(gap <= proj_tol), f"wigner {label} projections off by {gap.max():.3e}")
    # Criterion 9: each panel integrates to one.
    step = float(axis[1] - axis[0])
    integral = float(rows[:, 2].sum()) * step * step
    chk.expect(abs(integral - 1.0) < 1e-4, f"criterion 9: wigner {label} integral {integral:.6f}")


# --------------------------------------------------------------------------
# bell: protocol shots, Haar-ensemble table and timing sweep

OUTCOME_NAMES = ("(+,+)", "(+,-)", "(-,+)", "(-,-)")


class Bell:
    name = "bell"
    ops_per_rep = BELL_IDEAL_SHOTS + BELL_HOMODYNE_SHOTS + BELL_TABLE_ENSEMBLE + BELL_TIMING_POINTS

    def setup(self, dicke2p, seed: int, workdir: Path) -> dict:
        hilbert, protocols = dicke2p.hilbert, dicke2p.protocols
        return {
            "seed": seed,
            "coeffs": hilbert.AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3),
            "alpha": math.sqrt(NBAR) * cmath.exp(1j * PHI),
            "cutoff": hilbert.FockCutoff.for_mean_photon(NBAR),
            "homodyne": protocols.HomodyneConfig(lo_phase=PHI, efficiency=0.5),
        }

    def _shots(self, dicke2p, inp, n, detection, tracer, label):
        run = dicke2p.protocols.run_bell_protocol
        coeffs, alpha, cutoff, seed = inp["coeffs"], inp["alpha"], inp["cutoff"], inp["seed"]
        clock = time.perf_counter
        out, lat = [], np.empty(n)
        mark = tracer.mark() if tracer else 0
        t0 = clock()
        for i in range(n):
            ts = clock()
            try:
                r = run(coeffs, alpha, G, cutoff, detection=detection, rng_seed=seed, shot_index=i)
                out.append((str(r.outcome), r.probability, r.fidelity, r.record_x))
            except Exception as exc:  # noqa: BLE001 - counted as a failed shot
                out.append(f"{type(exc).__name__}: {exc}")
            lat[i] = clock() - ts
        wall = clock() - t0
        if tracer:
            tracer.slices[label] = (mark, tracer.mark(), n)
        return out, lat, wall

    def run(self, dicke2p, inp: dict, tracer=None) -> dict:
        scans = dicke2p.scans
        raw = {}
        raw["ideal"], raw["ideal_lat"], raw["ideal_s"] = self._shots(
            dicke2p, inp, BELL_IDEAL_SHOTS, "ideal", tracer, "ideal")
        raw["homodyne"], _, raw["homodyne_s"] = self._shots(
            dicke2p, inp, BELL_HOMODYNE_SHOTS, inp["homodyne"], tracer, "homodyne")
        for key, call in (
            ("table", lambda: scans.bell_ensemble(
                nbars=(int(NBAR),), ensemble=BELL_TABLE_ENSEMBLE, seed=inp["seed"])),
            ("timing", lambda: scans.bell_timing(points=BELL_TIMING_POINTS)),
        ):
            t0 = time.perf_counter()
            try:
                raw[key] = call()
            except Exception as exc:  # noqa: BLE001 - counted as failed operations
                raw[key] = f"{type(exc).__name__}: {exc}"
            raw[f"{key}_s"] = time.perf_counter() - t0
        return raw

    def check(self, inp: dict, raw: dict, res: Result) -> None:
        t = {k: raw[f"{k}_s"] for k in ("ideal", "homodyne", "table", "timing")}
        res.timings.update(
            scan_s=sum(t.values()),
            ideal_shots_per_s=BELL_IDEAL_SHOTS / t["ideal"],
            homodyne_shots_per_s=BELL_HOMODYNE_SHOTS / t["homodyne"],
            tables_per_s=BELL_TABLE_ENSEMBLE / t["table"],
            timing_points_per_s=BELL_TIMING_POINTS / t["timing"],
            shot_ms_p50=1e3 * float(np.median(raw["ideal_lat"])),
            shot_ms_p99=1e3 * float(np.quantile(raw["ideal_lat"], 0.99)),
        )
        refs = _refs()
        res.tally(BELL_IDEAL_SHOTS, *check_ideal_shots(raw["ideal"], refs["bell_ideal_table"]))
        res.tally(BELL_HOMODYNE_SHOTS,
                  *check_homodyne_shots(raw["homodyne"], refs["bell_homodyne_table"]))
        chk = Checks()
        check_table(chk, inp["seed"], raw["table"], refs)
        res.tally(BELL_TABLE_ENSEMBLE, BELL_TABLE_ENSEMBLE if chk.failures else 0, chk.failures)
        res.tally(BELL_TIMING_POINTS, *check_timing(raw["timing"], refs["bell_timing"]))


def _shot_counts(shots) -> tuple[dict, list[str], set[int], list[int]]:
    """Outcome counts, messages and indices of the shots that raised, and
    the indices of the shots that returned."""
    counts: dict[str, int] = {}
    errors, raised, ok = [], set(), []
    for i, s in enumerate(shots):
        if isinstance(s, str):
            errors.append(f"shot {i}: {s}")
            raised.add(i)
        else:
            counts[s[0]] = counts.get(s[0], 0) + 1
            ok.append(i)
    return counts, errors, raised, ok


def check_ideal_shots(shots, table: np.ndarray) -> tuple[int, list[str]]:
    """Each shot realizes its outcome's Born probability and post-state
    fidelity (reference table rows: probability, fidelity); the outcome
    frequencies pass the Born test against the same table."""
    row = {o: table[k] for k, o in enumerate(OUTCOME_NAMES)}
    counts, errors, bad, ok = _shot_counts(shots)
    for i in ok:
        outcome, prob, fid, _ = shots[i]
        if outcome not in row or abs(prob - row[outcome][0]) > ABS_TOL \
                or abs(fid - row[outcome][1]) > ABS_TOL:
            bad.add(i)
            errors.append(f"ideal shot {i}: {outcome} p={prob!r} F={fid!r} off the table")
    born = _binomial_outliers(counts, {o: row[o][0] for o in OUTCOME_NAMES},
                              len(shots), FALSE_ALARM)
    if born:
        return len(shots), errors[:5] + ["ideal Born test: " + "; ".join(born)]
    return len(bad), errors[:5]


def check_homodyne_shots(shots, table: np.ndarray) -> tuple[int, list[str]]:
    """Homodyne shots: finite records and fidelities in [0, 1]; outcome
    frequencies pass the binomial test against the homodyne outcome table;
    the mean post-state fidelity stays above 0.95."""
    counts, errors, bad, ok = _shot_counts(shots)
    for i in ok:
        outcome, prob, fid, x = shots[i]
        if outcome not in OUTCOME_NAMES or x is None or not math.isfinite(x) \
                or not 0.0 <= fid <= 1.0 + ABS_TOL or not 0.0 <= prob <= 1.0:
            bad.add(i)
            errors.append(f"homodyne shot {i}: {outcome} p={prob!r} F={fid!r} x={x!r}")
    stats = _binomial_outliers(counts, {o: table[k][0] for k, o in enumerate(OUTCOME_NAMES)},
                               len(shots), FALSE_ALARM)
    fids = [shots[i][2] for i in ok if i not in bad]
    if fids and float(np.mean(fids)) < 0.95:
        stats.append(f"mean fidelity {np.mean(fids):.4f} < 0.95")
    if stats:
        return len(shots), errors[:5] + ["homodyne: " + "; ".join(stats)]
    return len(bad), errors[:5]


def table_columns(with_nbar: bool, kinds: tuple[str, ...]) -> list[str]:
    cols = ["nbar" if with_nbar else "gt_over_pi"]
    for s in ("pp", "pm", "mp", "mm"):
        cols += [f"{k}_{s}" for k in kinds]
    return cols


def check_table(chk: Checks, seed: int, table, refs) -> None:
    if not chk.expect(not isinstance(table, str), f"bell_ensemble raised {table}"):
        return
    cols = list(table.columns)
    if not chk.expect(cols == table_columns(True, ("mean_F", "stderr_F", "rate")),
                      f"bell_ensemble columns {cols}"):
        return
    rows = np.asarray(table.rows)
    if not chk.expect(rows.shape == (1, 13), f"bell_ensemble shape {rows.shape}"):
        return
    if seed in REFERENCE_SEEDS:
        chk.close(f"bell_ensemble vs reference (seed {seed})", rows, refs[f"bell_ensemble_seed{seed}"])
    rates, means, errs = rows[0, 3::3], rows[0, 1::3], rows[0, 2::3]
    chk.expect(abs(rates.sum() - 1.0) <= ABS_TOL, f"outcome rates sum to {rates.sum()!r}")
    # Criterion 6: per-outcome Haar-mean fidelity >= 0.95.
    chk.expect(np.all(means >= 0.95), f"criterion 6: per-outcome mean fidelity {means}")
    chk.expect(np.all(errs >= 0.0), "negative standard error")


def check_timing(curves, ref: np.ndarray) -> tuple[int, list[str]]:
    """Per timing point: the row matches the reference and its outcome
    probabilities sum to one."""
    if isinstance(curves, str):
        return BELL_TIMING_POINTS, [f"bell_timing raised {curves}"]
    cols = list(curves.columns)
    rows = np.asarray(curves.rows)
    if cols != table_columns(False, ("fidelity", "probability")) or rows.shape != ref.shape:
        return BELL_TIMING_POINTS, [f"bell_timing columns {cols}, shape {rows.shape}"]
    gap = np.max(np.abs(rows - ref), axis=1)
    prob_gap = np.abs(rows[:, 2::2].sum(axis=1) - 1.0)
    bad = (gap > ABS_TOL) | (prob_gap > ABS_TOL) | ~np.all(np.isfinite(rows), axis=1)
    errors = [f"timing point {i}: gap {gap[i]:.3e}, probability sum off by {prob_gap[i]:.3e}"
              for i in np.flatnonzero(bad)[:5]]
    return int(bad.sum()), errors


WORKLOADS = {w.name: w for w in (Hierarchy(), Revival(), Bell())}
