"""Command-line harness: deterministic data files for each figure-style scan.

Subcommands: fidelity-scan, rabi, wigner, ghz, bell, bell-timing.
Output is CSV with '#' metadata header lines plus a JSON sidecar
(<out>.meta.json), or a single JSON payload per table with --format json.
CSV cells are '.17g' text, so every float64 reads back exactly; NaN and
+-inf cells are written 'nan', 'inf' and '-inf' in CSV, and every
non-finite cell or parameter is null in JSON, which stays RFC 8259 valid.
The '.17g' text is written by an exact array formatter: a cell whose
rounding the extended-precision bound cannot prove falls back to CPython's
formatter, and where np.longdouble is float64 every cell does, so the bytes
are the same on every platform; only the speed differs.
Each subcommand's flags are its scan's keyword arguments (--gg is g_g):
main calls the scan by keyword, once --gg/--ge/--delta have given g (unless
--g is set) and --efficiency/--lo-phase the detection.
Every table is converted to float64 before any file is opened, so a
non-numeric cell exits 2 and writes nothing. data/output_schema.json is the
published shape of a --format json payload, checked by the tests and not at
run time.
Flag precedence: explicit flags > --config file > built-in defaults.
Exit codes: 0 success, 2 configuration error, 3 validity warning under
--strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, scans
from .hilbert import FockCutoff
from .models import FullModelParams, effective_coupling, validity_report
from .protocols import HomodyneConfig

_DEF_GG = 1.0
_DEF_GE = 1.0
_DEF_DELTA = 500.0
# Rows per CSV write: _csv_bytes builds a chunk's '.17g' text as one array,
# exact to the byte, with CPython's formatter only for the cells whose
# rounding the extended-precision bound cannot prove, so the text and the
# memory stay per chunk, never per table.
_CSV_CHUNK = 4096
# Powers of ten 10**k for k in _POW_LO.._POW_HI: 10**(16 - e) over the
# float64 decimal exponents e from 308 down to -324.
_POW_LO, _POW_HI = -292, 340


def _num(text: str) -> float | int:
    v = float(text)
    return int(v) if v.is_integer() else v


def _nbar_list(text: str) -> tuple[float | int, ...]:
    try:
        vals = tuple(_num(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad nbar list {text!r}") from exc
    if not vals or not all(0 < v < math.inf for v in vals):
        raise argparse.ArgumentTypeError("nbar values must be positive and finite")
    if len(set(vals)) < len(vals):
        raise argparse.ArgumentTypeError(f"repeated nbar value in {text!r}")
    return vals


def _one_nbar(text: str) -> float:
    vals = _nbar_list(text)
    if len(vals) > 1:
        raise argparse.ArgumentTypeError(f"takes one value, got {len(vals)}")
    return float(vals[0])


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke2p",
        description="Two-atom two-photon cavity model: scans and protocols.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, *, seeded: bool = False) -> None:
        sp.add_argument("--out", default=None, help="output path (default <command>.<fmt>)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--config", default=None, help="flat key=value config file")
        sp.add_argument("--strict", action="store_true",
                        help="escalate validity warnings to exit code 3")
        if seeded:
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--ensemble", type=_positive_int, default=100)

    def couplings(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--gg", dest="g_g", metavar="GG", type=_finite, default=_DEF_GG)
        sp.add_argument("--ge", dest="g_e", metavar="GE", type=_finite, default=_DEF_GE)
        sp.add_argument("--delta", type=_finite, default=_DEF_DELTA)

    def coupling(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--g", type=_finite, default=None,
                        help="effective two-photon coupling "
                             "(default -gg*ge/delta; passing it skips validity checks)")
        couplings(sp)

    def nbars(sp: argparse.ArgumentParser, default: tuple[int, ...]) -> None:
        sp.add_argument("--nbar", dest="nbars", metavar="NBAR", type=_nbar_list, default=default)

    sp = sub.add_parser("fidelity-scan",
                        help="Haar-ensemble fidelity of reduced models vs the full one")
    nbars(sp, (20, 50, 100))
    couplings(sp)
    sp.add_argument("--time-points", type=_positive_int, default=101)
    common(sp, seeded=True)

    sp = sub.add_parser("rabi", help="collapse and revival of <S_ee> for |ee>|alpha>")
    sp.add_argument("--nbar", type=_one_nbar, default=50.0)
    sp.add_argument("--gt-max", dest="gt_max_over_pi", metavar="GT_MAX", type=_finite,
                    default=1.2, help="window end in units of pi")
    sp.add_argument("--points", type=_positive_int, default=481)
    coupling(sp)
    common(sp)

    sp = sub.add_parser("wigner", help="field Wigner function at t=0, tr/4, tr/2")
    sp.add_argument("--nbar", type=_one_nbar, default=50.0)
    sp.add_argument("--phi", type=_finite, default=2.0 * math.pi / 3.0)
    sp.add_argument("--grid-points", type=_positive_int, default=201)
    coupling(sp)
    common(sp)

    sp = sub.add_parser("ghz", help="GHZ fidelity at half revival vs mean photon number")
    nbars(sp, (10, 20, 50, 100))
    sp.add_argument("--phi", type=_finite, default=math.pi / 4.0)
    sp.add_argument("--engine", choices=("exact", "analytic"), default="exact")
    coupling(sp)
    common(sp)

    sp = sub.add_parser("bell", help="Bell-protocol fidelity per outcome, Haar ensemble")
    nbars(sp, (10, 20, 50))
    sp.add_argument("--phi", type=_finite, default=math.pi / 8.0)
    sp.add_argument("--engine", choices=("exact", "analytic"), default="exact")
    sp.add_argument("--efficiency", type=_finite, default=None,
                    help="homodyne efficiency in (0,1]; omit for ideal detection")
    sp.add_argument("--lo-phase", type=_finite, default=None,
                    help="local-oscillator phase (default: the field phase phi)")
    coupling(sp)
    common(sp, seeded=True)

    sp = sub.add_parser("bell-timing", help="protocol fidelity around the optimal gt = pi/2")
    sp.add_argument("--nbar", type=_one_nbar, default=50.0)
    sp.add_argument("--phi", type=_finite, default=math.pi / 8.0)
    sp.add_argument("--half-width", dest="half_width_gt", metavar="HALF_WIDTH", type=_finite,
                    default=0.08, help="half width of the gt window")
    sp.add_argument("--points", type=_positive_int, default=321)
    coupling(sp)
    common(sp)

    return parser


def _load_config_tokens(path: str) -> list[str]:
    """Translate a flat key=value file into CLI tokens; inserted before the
    explicit flags so explicit flags win."""
    tokens: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            value = value.strip()
            if key == "config":
                raise ValueError(f"{path}:{ln}: config cannot nest")
            if key == "strict":
                if value.lower() in ("1", "true", "yes"):
                    tokens.append("--strict")
                elif value.lower() not in ("0", "false", "no"):
                    raise ValueError(f"{path}:{ln}: strict must be boolean")
                continue
            tokens += [f"--{key}", value]
    return tokens


def _scan_kwargs(args: argparse.Namespace) -> dict:
    """The keyword arguments of the command's scan: the parsed flags less the
    CLI's own, with --efficiency and --lo-phase made into detection and,
    where the command has --g, --gg, --ge and --delta into g."""
    kwargs = vars(args).copy()
    for key in ("command", "out", "format", "config", "strict"):
        del kwargs[key]
    if "efficiency" in kwargs:
        efficiency, lo_phase = kwargs.pop("efficiency"), kwargs.pop("lo_phase")
        if efficiency is None and lo_phase is not None:
            raise ValueError("--lo-phase needs --efficiency: it sets the homodyne detector")
        lo = kwargs["phi"] if lo_phase is None else lo_phase
        kwargs["detection"] = "ideal" if efficiency is None else HomodyneConfig(lo, efficiency)
    if "g" in kwargs:
        g_g, g_e, delta = kwargs.pop("g_g"), kwargs.pop("g_e"), kwargs.pop("delta")
        if kwargs["g"] is None:
            kwargs["g"] = effective_coupling(g_g, g_e, delta)
    return kwargs


def _check_validity(args: argparse.Namespace, nbar_max: float) -> int:
    """0 if fine, 3 when a failed validity report is escalated by --strict."""
    if getattr(args, "g", None) is not None:
        return 0
    params = FullModelParams(
        omega=0.0,
        delta=args.delta,
        g_g=args.g_g,
        g_e=args.g_e,
        cutoff=FockCutoff.for_mean_photon(float(nbar_max)),
    )
    report = validity_report(params, float(nbar_max))
    if report.ok:
        return 0
    parts = []
    if not report.stark_closeness_ok:
        parts.append("photon-dependent Stark shift is not negligible (|ge^2-gg^2| >= ge^3/delta)")
    if not report.revival_reachable_ok:
        parts.append(
            f"revival time exceeds the adiabatic horizon (ge*nbar*pi = "
            f"{args.g_e * nbar_max * math.pi:.4g} vs 0.1*delta = {0.1 * args.delta:.4g})"
        )
    print("validity warning: " + "; ".join(parts), file=sys.stderr)
    return 3 if args.strict else 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _header(command: str, seed, result: scans.ScanResult) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": None if seed is None else int(seed),
        "params": _jsonable(result.meta),
        "columns": list(result.columns),
    }


def _write_csv(path: str, header: dict, values: np.ndarray, wall_time: float) -> None:
    meta_line = json.dumps(header["params"], separators=(",", ":"), sort_keys=True, allow_nan=False)
    lines = [
        f"# command: {header['command']}",
        f"# version: {header['version']}",
        f"# seed: {header['seed']}",
        f"# wall_time_s: {wall_time:.3f}",
        f"# params: {meta_line}",
        ",".join(header["columns"]),
    ]
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in lines).encode("utf-8"))
        for lo in range(0, len(values), _CSV_CHUNK):
            fh.write(_csv_bytes(values[lo : lo + _CSV_CHUNK]))


@functools.cache
def _g17_tables() -> tuple:
    """The '.17g' formatter's tables, built on first use, not at import:
    - pow10: 10**k for k in _POW_LO.._POW_HI, correctly rounded np.longdouble;
    - wide[q], q < 10**4: the 4 digits of q in ASCII, one per 16-bit lane;
    - zeros[q]: trailing zeros of q as 4 digits (4 for q = 0);
    - head[5 * negative + lead]: the sign, then for lead = -e in 1..4 the
      '0.' and lead - 1 zeros of fixed notation below 1;
    - tail[2 * (e + 324) + last]: a free byte for digit 17, then 'e+XX' or
      'e-XXX' outside fixed notation (-4 <= e <= 16), then ',' or, for the
      last cell of a row, '\n';
    - lanes[k]: the mask of the first k 16-bit lanes;
    - point[lane + 1]: '.' in the high byte of lane 0..3, and 0 for lane
      -1 or 4, outside the word;
    - tol: 2 eps of np.longdouble, or infinite where np.longdouble is no
      IEEE binary format with one rounding per multiply (x87 extended or
      quad), which sends every cell to the fallback."""
    ld = np.longdouble
    ks = range(_POW_LO, _POW_HI + 1)
    pow10 = np.fromstring("1e%d " * len(ks) % tuple(ks), dtype=ld, sep=" ")
    ascii_digits = np.arange(48, 58, dtype=np.uint64)
    pairs = (ascii_digits[:, None] | ascii_digits << np.uint64(16)).ravel()
    wide = (pairs[:, None] | pairs << np.uint64(32)).ravel()
    ones_zero = (np.arange(10) == 0).astype(np.uint8)
    pair_zeros = (ones_zero * (1 + ones_zero[:, None])).ravel()
    zeros = np.where(np.arange(100) == 0, 2 + pair_zeros[:, None], pair_zeros).ravel()
    heads = [sign + ("0." + "0" * (lead - 1) if lead else "") for sign in ("", "-") for lead in range(5)]
    head = np.array(heads, dtype="S8").view(np.uint64)
    e = np.repeat(np.arange(-324, 309), 2)
    m = np.abs(e)
    sci = (e < -4) | (e > 16)
    tail = np.zeros((e.size, 8), np.uint8)
    tail[:, 1] = sci * ord("e")
    tail[:, 2] = sci * np.where(e < 0, ord("-"), ord("+"))
    tail[:, 3] = sci * (m >= 100) * (m // 100 + 48)
    tail[:, 4] = sci * (m // 10 % 10 + 48)
    tail[:, 5] = sci * (m % 10 + 48)
    tail[:, 6] = np.tile([ord(","), ord("\n")], e.size // 2)
    lanes = np.array([(1 << 16 * k) - 1 for k in range(5)], dtype=np.uint64)
    point = np.array([0, *(ord(".") << 8 + 16 * k for k in range(4)), 0], dtype=np.uint64)
    info = np.finfo(ld)
    tol = 2.0 * float(info.eps) if info.nmant in (63, 112) else math.inf
    return pow10, wide, zeros, head, tail.view(np.uint64).ravel(), lanes, point, tol


def _g17_significand(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, e, fast) for the flat float64 array x.

    Where fast, digits is the 17-digit significand of |x| that '%.17g'
    prints, correctly rounded, and e its decimal exponent. With e =
    floor(log10|x|) and w = |x| 10**(16 - e) in np.longdouble, split as
    d = trunc(w) and f = w - d, a cell is fast iff it is finite and nonzero,
    10**16 <= d < 10**17 - 1 and |f - 1/2| > 2 eps d. The table entry and
    the product each round by at most eps/2 of w, so then d + (f > 1/2) is
    the rounding of the exact |x| 10**(16 - e), and it stays below 10**17.
    Exact ties never pass, so round-half-even is never decided here; nor
    are zeros, NaN, infinities, or an e that log10 set one off near a power
    of ten. Elsewhere digits is 10**16."""
    pow10, *_, tol = _g17_tables()
    ok = np.isfinite(x) & (x != 0)
    a = np.where(ok, np.abs(x), 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    w = a.astype(np.longdouble) * pow10[16 - _POW_LO - e]
    d = w.astype(np.int64)
    f = (w - d).astype(np.float64) - 0.5
    fast = ok & (d >= 10**16) & (d < 10**17 - 1) & (np.abs(f) > tol * d)
    return np.where(fast, d + (f > 0), 10**16), e, fast


def _csv_bytes(chunk: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float64 array as ASCII: each cell byte for byte
    '%.17g' % v, cells joined by ',' and each row ended by '\n'. Cells off
    the fast path of _g17_significand are '%.17g' % v as text."""
    cols = chunk.shape[1]
    x = np.ascontiguousarray(chunk).ravel()
    last = np.arange(x.size) % cols == cols - 1
    words, fast = _g17_words(x, last)
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = zip(x[slow].tolist(), np.where(last[slow], "\n", ",").tolist())
        text = np.array(["%.17g%s" % cell for cell in cells], dtype="S48")
        words[:, slow] = text.view(np.uint64).reshape(-1, 6).T
    return words.T.tobytes().translate(None, b"\0")


def _g17_words(x: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(words, fast): the '.17g' text of each cell of x on the fast path,
    and its separator (',' or, where last, '\n'), laid out in six 64-bit
    words, words[:, i] for cell i, padded with zero bytes:
    - word 0: the sign and the '0.000' lead of fixed notation below 1;
    - words 1-4: significand digits 1-16 in the low bytes of 16-bit lanes,
      the decimal point in the high byte of the lane of the digit before it,
      and trailing zeros after the point masked away;
    - word 5: digit 17, the exponent in scientific notation, the separator."""
    _, wide, zeros, head, tail, lanes, point, _ = _g17_tables()
    digits, e, fast = _g17_significand(x)
    groups = np.empty((5, x.size), np.intp)  # digits 1-4, .., 13-16, then 17
    groups[4] = digits
    for j, p in enumerate((10**13, 10**9, 10**5, 10)):
        groups[j] = groups[4] // p
        groups[4] -= groups[j] * p
    z = zeros[groups[:4]]
    nz = groups != 0
    trailing = ~nz[4] * (1 + z[3] + ~nz[3] * (z[2] + ~nz[2] * (z[1] + ~nz[1] * z[0])))
    sci = (e < -4) | (e > 16)
    ints = np.where(sci, 1, np.maximum(e + 1, 0))  # digits before the point
    kept = np.maximum(17 - trailing, ints)
    after = np.where((kept > ints) & (ints > 0), ints - 1, -1)  # digit before the point
    words = np.empty((6, x.size), np.uint64)
    words[0] = head[np.where(sci | (e >= 0), 0, -e) + 5 * (x < 0)]
    for j in range(4):  # word 1 + j holds digits 4j + 1 to 4j + 4
        words[1 + j] = wide[groups[j]] & lanes[np.clip(kept - 4 * j, 0, 4)]
        words[1 + j] |= point[np.clip(after - 4 * j, -1, 4) + 1]
    words[5] = tail[2 * (e + 324) + last] | np.where(kept == 17, groups[4] + 48, 0).astype(np.uint64)
    return words, fast


def _emit(
    args: argparse.Namespace,
    command: str,
    results: dict[str, scans.ScanResult],
    wall: float,
) -> None:
    """Write each named table; an empty name means no suffix on the path.
    Every table is converted to float64 before any file is opened, so a
    non-numeric cell writes no file. data/output_schema.json is the shape
    of a --format json payload, checked by the tests and not here.
    wall is the run's wall time, reported beside the parameters, never in
    them, so seeded runs keep identical params."""
    fmt = args.format
    base = args.out or f"{command.replace('-', '_')}.{fmt}"
    seed = getattr(args, "seed", None)
    tables = []
    for name, result in results.items():
        stem, ext = os.path.splitext(base)
        path = base if not name else f"{stem}_{name}{ext or '.' + fmt}"
        values = np.asarray(result.rows, dtype=np.float64)
        tables.append((path, _header(command, seed, result), values))
    for path, header, values in tables:
        if fmt == "json":
            rows = values.tolist()
            for i, j in zip(*np.nonzero(~np.isfinite(values))):
                rows[i][j] = None
            with open(path, "w", encoding="utf-8") as fh:
                payload = {**header, "rows": rows, "wall_time_s": wall}
                json.dump(payload, fh, indent=1, allow_nan=False)
                fh.write("\n")
        else:
            _write_csv(path, header, values, wall)
            sidecar = {**header, "wall_time_s": wall, "rows_file": os.path.basename(path)}
            with open(path + ".meta.json", "w", encoding="utf-8") as fh:
                json.dump(sidecar, fh, indent=1, allow_nan=False)
                fh.write("\n")
        print(path)


# Each subcommand's scan by name, looked up in scans at call time, so that a
# function replaced on the module (a test's fake, a tracer) is the one that runs.
_SCANS = {
    "fidelity-scan": "fidelity_scan",
    "rabi": "rabi_curve",
    "wigner": "wigner_panels",
    "ghz": "ghz_sweep",
    "bell": "bell_ensemble",
    "bell-timing": "bell_timing",
}


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    # --config may stand anywhere; its tokens go right after the subcommand,
    # so explicit flags win and config values meet each flag's type and choices
    pre = argparse.ArgumentParser(prog="dicke2p", add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(raw)
    if known.config is not None:
        if not rest or rest[0] not in _SCANS:
            print("error: --config requires a subcommand", file=sys.stderr)
            return 2
        try:
            rest = rest[:1] + _load_config_tokens(known.config) + rest[1:]
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    args = build_parser().parse_args(rest)
    try:
        # before the validity check, so --strict cannot exit 3 on a bad input
        kwargs = _scan_kwargs(args)
        if code := _check_validity(args, max(kwargs.get("nbars") or [kwargs["nbar"]])):
            return code
        t0 = time.perf_counter()
        results = getattr(scans, _SCANS[args.command])(**kwargs)
        if isinstance(results, scans.ScanResult):
            results = {"": results}
        _emit(args, args.command, results, time.perf_counter() - t0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
