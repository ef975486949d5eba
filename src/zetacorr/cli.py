"""Command-line surface.

Subcommands: constants, kfun, hsum, dips, validate-zeros.
Exit codes: 0 success, 1 invariant violation (routes disagree, or a
certificate is vacuous), 2 input error, 3 numeric domain error, 4
resource/budget exceeded.  All numbers print with 17 significant
digits so output round-trips to the same floats.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys

from .combinatorics import balanced_coefficient, sinc_product_digits
from .config import default_zeros_path, load_config
from .correlation import build_report, leading_constant, parse_tuple_text, routes_agree
from .dips import (
    deep_minima,
    match_to_zeros,
    records_json,
    scan_grid,
    scan_minima,
    t_grid,
    write_profile_csv,
)
from .errors import BudgetError, DataError, DomainError, ResourceError
from .arithmetic import SIEVE_LIMIT_CAP, sieve_mangoldt
from .series import kernel_profile_evaluator, sieve_limit, transform_truncation
from .weights import gaussian_triplet
from .zeros import load_zeros, validate_zero_table, zeros_up_to

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4
MAX_TABLE_R = 716  # the table to row 716 takes about 29 s on a 2-CPU Xeon
GRID_FLAGS = {"--t-lo": 10.0, "--t-hi": 40.0, "--step": 0.02, "--tolerance": 1e-3}  # kfun, dips


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _name(x: float) -> str:
    """x in the fewest significant digits, at least the 6 of :g, that read back as x."""
    return next(s for p in range(6, 18) if float(s := f"{x:.{p}g}") == x)


def _sieve_for(tuples, tol: float, h=None):
    """Mangoldt table for the tuples' certified series at tolerance tol.

    Sieved to their largest `sieve_limit`, or, given the weight h, to
    their largest closed-form main-term cut, which is far smaller.
    """
    def need(t):
        sigma = float(t.positive_sum)
        if h is None:
            return sieve_limit(sigma, t.m, tol)
        return transform_truncation(h, sigma, t.m, tol, SIEVE_LIMIT_CAP)[0]

    return sieve_mangoldt(max(map(need, tuples)))


def _profiles(tuples, tol: float, t_max: float) -> list:
    """The tuples' `kernel_profile_evaluator`s for |t| <= t_max, from one `_sieve_for` table.

    The table is this call's local, so it is freed on return, before any
    profile is evaluated.
    """
    table = _sieve_for(tuples, tol)
    return [kernel_profile_evaluator(tup, table, tol, t_max) for tup in tuples]


def _cmd_constants(args) -> int:
    if args.tuple is None and args.r_max is None:
        raise ValueError("constants: provide --r-max or --tuple")
    # the exact fractions must print: Python converts no int of more than
    # sys.get_int_max_str_digits() digits to text (0: no limit)
    limit = sys.get_int_max_str_digits() or math.inf
    over = f"may have more than {limit} digits, Python's int-to-str limit"
    if args.r_max is not None:
        r = args.r_max
        if r < 1:
            raise ValueError("--r-max must be at least 1")
        if r > MAX_TABLE_R:
            raise BudgetError(f"--r-max {r} exceeds the budget of {MAX_TABLE_R}")
        # the last row, the longest, is C / 4^r for the balanced tuple
        if sinc_product_digits((1,) * r + (-1,) * r) + r * math.log10(4) > limit:
            raise BudgetError(f"row {r} {over}")
    if args.tuple is not None:
        tup = parse_tuple_text(args.tuple)
        if sinc_product_digits(tup.entries) > limit:
            raise BudgetError(f"the exact C of {tup.m} entries {over}")
        d, c = leading_constant(tup)
    if args.r_max is not None:
        print("r  c_pi_power  value")
        for r in range(1, args.r_max + 1):
            c_r = balanced_coefficient(r)
            print(f"{r}  {c_r.numerator}/{c_r.denominator}  {_fmt(float(c_r))}")
    if args.tuple is not None:
        print(f"tuple {tup}  m={tup.m}  S={tup.positive_sum}")
        print(f"C  {_fmt(float(c))}  (exact {c.numerator}/{c.denominator})")
        print(f"D  {_fmt(d)}")
    return EXIT_OK


DEFAULT_CURVE_TUPLES = ("1,1,-2", "1,1,-1,-1", "1,2,-3")


def _cmd_kfun(args) -> int:
    chosen = args.tuple if args.tuple else list(DEFAULT_CURVE_TUPLES)
    tuples = [parse_tuple_text(text) for text in chosen]
    for i, tup in enumerate(tuples):
        if tup in tuples[:i]:
            raise ValueError(f"tuple {tup} given more than once")
    ts, t_max = t_grid(args.t_lo, args.t_hi, args.step)
    profiles = _profiles(tuples, args.tolerance, t_max)
    columns = {f"y_{tup.compact}": profile(ts) for tup, profile in zip(tuples, profiles)}
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            write_profile_csv(fh, ts, columns)
    else:
        write_profile_csv(sys.stdout, ts, columns)
    return EXIT_OK


def _vacuous_claims(report) -> list[str]:
    """The report's certificates that are at least what they certify.

    The routes' claims count as their sum, as in route agreement; below
    the first ordinate that sum is 0 with H = 0 exactly, which is not
    vacuous.
    """
    found = []
    claimed = report.diagnostics["main_term_claimed_error"]
    if not claimed < abs(report.main_term):
        found.append(f"main term {_fmt(report.main_term)}, claimed error {_fmt(claimed)}")
    routes = report.diagnostics["claimed_errors"]
    claimed = routes["direct"] + routes["spectral"]
    if claimed > 0.0 and not claimed < max(abs(report.h_direct), abs(report.h_spectral)):
        found.append(
            f"H_direct {_fmt(report.h_direct)}, H_spectral {_fmt(report.h_spectral)}, "
            f"claimed errors {_fmt(routes['direct'])} + {_fmt(routes['spectral'])}"
        )
    return found


def _cmd_hsum(args) -> int:
    cfg = load_config(args.config)
    report_name = lambda tup, t_max: f"report_{tup.compact}_{_name(t_max)}.json"
    for tup in cfg.tuples:  # refused before any work: no report could be written
        size = max(len(report_name(tup, t_max).encode()) for t_max in cfg.t_list)
        if size > 255:  # the usual file-name limit (NAME_MAX)
            raise ValueError(f"the report name of tuple {tup} has {size} bytes, above 255")
    zeros = load_zeros(cfg.zeros_path)
    h = gaussian_triplet(cfg.h_center, cfg.h_width)
    table = _sieve_for(cfg.tuples, cfg.quadrature_tolerance, h)
    # build every report first, so that an error (exit 3 or 4) writes nothing
    runs = [
        (tup, t_max, build_report(h, tup, t_max, zeros, table, tol=cfg.quadrature_tolerance))
        for tup in cfg.tuples
        for t_max in cfg.t_list
    ]
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    vacuous = []
    for tup, t_max, report in runs:
        out = cfg.output_dir / report_name(tup, t_max)
        out.write_text(report.to_json(), encoding="utf-8")
        print(out)
        vacuous.extend(f"{tup} at T={_name(t_max)}: {v}" for v in _vacuous_claims(report))
    csv_path = cfg.output_dir / "reports.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(runs[0][2].csv_row().keys()))
        writer.writeheader()
        writer.writerows(report.csv_row() for _, _, report in runs)
    print(csv_path)
    for line in vacuous:
        print(f"vacuous certificate: {line}", file=sys.stderr)
    agree = all(routes_agree(report) for _, _, report in runs)
    if not agree:
        print("route agreement violated", file=sys.stderr)
    return EXIT_VIOLATION if vacuous or not agree else EXIT_OK


def _cmd_dips(args) -> int:
    tup = parse_tuple_text(args.tuple)
    zeros = load_zeros(args.zeros or default_zeros_path())
    ts, t_max = scan_grid(args.t_lo, args.t_hi, args.step, args.window)
    zeros_up_to(zeros, float(ts[-1]) + args.window)  # the table must cover every match
    records = scan_minima(tup, ts, *_profiles([tup], args.tolerance, t_max))
    if args.deep_only:
        records = deep_minima(records)
    records = match_to_zeros(records, zeros, window=args.window)
    print(records_json(records))
    return EXIT_OK


def _cmd_validate_zeros(args) -> int:
    table = load_zeros(args.path or default_zeros_path())
    report = validate_zero_table(table)
    print(report.to_json())
    return EXIT_OK if report.all_ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetacorr",
        description="Correlation sums over zeta zero ordinates and their constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="exact coefficient table / tuple constants")
    p.add_argument("--r-max", type=int, default=None)
    p.add_argument("--tuple", type=str, default=None)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("kfun", help="emit profile curves y(t) as CSV")
    p.add_argument("--tuple", action="append", default=None)
    for flag, default in GRID_FLAGS.items():
        p.add_argument(flag, type=float, default=default)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_kfun)

    p = sub.add_parser("hsum", help="run the correlation pipeline from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_hsum)

    p = sub.add_parser("dips", help="scan profile minima and match to ordinates")
    p.add_argument("--tuple", required=True)
    for flag, default in GRID_FLAGS.items():
        p.add_argument(flag, type=float, default=default)
    p.add_argument("--window", type=float, default=0.5)
    p.add_argument("--zeros", type=str, default=None)
    p.add_argument("--deep-only", action="store_true")
    p.set_defaults(func=_cmd_dips)

    p = sub.add_parser("validate-zeros", help="zero-count checkpoints vs asymptotic")
    p.add_argument("path", nargs="?", default=None)
    p.set_defaults(func=_cmd_validate_zeros)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse (Python 3.11) gives --flag=-- the value [], and skips the flag's type
        if any(v == [] or isinstance(v, list) and [] in v for v in vars(args).values()):
            raise ValueError("'--' is not a flag's value")
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetError, ResourceError) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
