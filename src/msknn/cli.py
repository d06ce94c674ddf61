"""Command-line interface: benchmark runs, weight profiles, theory checks.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bench import METHODS, BenchConfig, bundled_path, run_benchmark
from .errors import DataError, NumericalError
from .theory import (
    EXPERIMENT_METHODS,
    analytic_b1,
    excess_risk_experiment,
    fit_bias_expansion,
    load_experiment_config,
    profile_scales,
    quadratic_problem_1d,
    quadratic_problem_2d,
    save_experiment_config,
    smooth_problem_2d,
    weight_profile_report,
)

PROBLEMS = {
    "quadratic-1d": quadratic_problem_1d,
    "quadratic-2d": quadratic_problem_2d,
    "smooth-2d": smooth_problem_2d,
}


# rates parameters when neither a flag nor a --config line sets them
RATES_DEFAULTS = dict(
    problem="smooth-2d", methods="unweighted,msknn_radius", n_grid="256,512,1024,2048",
    reps=50, n_test=128, seed=0, V=5, C=1, lam=1e-4, k_rule="arithmetic", ell=None,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="msknn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    b = sub.add_parser("bench", help="run the benchmark protocol over CSV datasets")
    b.add_argument("--data", action="append", required=True,
                   help="CSV path or bundled name (iris, banknote); repeatable")
    b.add_argument("--label-col", default="-1",
                   help="label column index or header name (default: last)")
    b.add_argument("--methods", default=",".join(METHODS),
                   help=f"comma list from {','.join(METHODS)}")
    b.add_argument("--V", type=int, default=5)
    b.add_argument("--C", type=int, default=1)
    b.add_argument("--lambda", dest="lam", type=float, default=1e-4)
    b.add_argument("--repeats", type=int, default=10)
    b.add_argument("--frac", type=float, default=0.7)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--norm", choices=("zscore", "minmax"), default="zscore")
    b.add_argument("--out", default=None, help="report CSV path (default: stdout)")
    b.add_argument("--verbose", action="store_true")

    w = sub.add_parser("weights", help="emit weight profiles as CSV (scheme,i,weight)")
    w.add_argument("--n", type=int, default=1000)
    w.add_argument("--d", type=int, default=10)
    w.add_argument("--k-star", type=int, default=100)
    w.add_argument("--V", type=int, default=5)
    w.add_argument("--C", type=int, default=2)
    w.add_argument("--out", default=None)

    t = sub.add_parser("theory", help="verify the ball-average bias expansion numerically")
    t.add_argument("--problem", choices=sorted(PROBLEMS), action="append",
                   help="synthetic problem (repeatable; default: quadratic-1d, quadratic-2d)")
    t.add_argument("--r-min", type=float, default=0.05)
    t.add_argument("--r-max", type=float, default=0.3)
    t.add_argument("--grid", type=int, default=8, help="number of radii")
    t.add_argument("--C", type=int, default=1)
    t.add_argument("--budget", type=int, default=10_000, help="quadrature nodes per ball")
    t.add_argument("--out", default=None)

    # a parameter flag sets its dest only when given, so it can override --config
    r = sub.add_parser("rates", help="Monte-Carlo excess-risk decay experiment",
                       argument_default=argparse.SUPPRESS)
    r.add_argument("--problem", choices=sorted(PROBLEMS))
    r.add_argument("--methods", help=f"comma list from {','.join(EXPERIMENT_METHODS)}")
    r.add_argument("--n-grid", help="comma list of training sizes")
    r.add_argument("--reps", type=int)
    r.add_argument("--n-test", type=int)
    r.add_argument("--seed", type=int)
    r.add_argument("--V", type=int)
    r.add_argument("--C", type=int)
    r.add_argument("--lambda", dest="lam", type=float)
    r.add_argument("--k-rule", choices=("arithmetic", "ratio"))
    r.add_argument("--ell", help="comma list of radius ratios for --k-rule ratio")
    r.add_argument("--config", default=None,
                   help="key=value file of experiment parameters (flags override)")
    r.add_argument("--save-config", default=None,
                   help="write the resolved parameters as a key=value file")
    r.add_argument("--out", default=None)
    return parser


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _resolve_data(arg: str) -> tuple[str, str]:
    p = Path(arg)
    if p.is_file():
        return p.stem, str(p)
    return arg, str(bundled_path(arg))


def _cmd_bench(args) -> int:
    try:
        label_col: int | str = int(args.label_col)
    except ValueError:
        label_col = args.label_col
    datasets = tuple(_resolve_data(a) for a in args.data)
    cfg = BenchConfig(
        datasets=datasets,
        label_col=label_col,
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        V=args.V,
        C=args.C,
        lam=args.lam,
        repeats=args.repeats,
        train_fraction=args.frac,
        base_seed=args.seed,
        norm=args.norm,
    )
    report = run_benchmark(cfg, verbose=args.verbose)
    for diag in report.diagnostics:
        print(f"# {diag}", file=sys.stderr)
    if not report.rows:
        print("no dataset produced results", file=sys.stderr)
        return 2
    _write(report.csv(), args.out)
    return 0


def _cmd_weights(args) -> int:
    rows = weight_profile_report(args.n, args.d, args.k_star, args.V, args.C)
    ks = profile_scales(args.k_star, args.V)
    if len(ks) < args.V:
        print(f"# k_star={args.k_star} rounds the V={args.V} scales to ks={ks}; "
              f"msknn_implicit uses these {len(ks)}", file=sys.stderr)
    lines = ["scheme,i,weight"]
    lines += [f"{scheme},{i},{w!r}" for scheme, i, w in rows]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_theory(args) -> int:
    if args.C < 1:
        raise ValueError(f"--C must be at least 1 to fit the b_1 it checks, got {args.C}")
    names = args.problem or ["quadratic-1d", "quadratic-2d"]
    r_grid = np.linspace(args.r_min, args.r_max, args.grid)
    lines = ["problem,d,b0_fitted,eta_at_center,b1_fitted,b1_analytic,rel_err"]
    failed = []
    for name in names:
        problem = PROBLEMS[name]()
        x0 = np.zeros(problem.d)
        coef = fit_bias_expansion(problem, x0, r_grid, C=args.C, budget=args.budget)
        b1 = analytic_b1(problem, x0)
        eta0 = float(problem.eta.value(x0[None, :])[0])
        rel = abs(coef[1] - b1) / abs(b1) if b1 != 0 else abs(coef[1])
        if rel > 0.05:
            failed.append(f"{name}: rel_err {rel:.6f} exceeds 0.05 "
                          f"(b1_fitted {coef[1]:.8f}, b1_analytic {b1:.8f})")
        lines.append(
            f"{name},{problem.d},{coef[0]:.8f},{eta0:.8f},{coef[1]:.8f},{b1:.8f},{rel:.6f}"
        )
    _write("\n".join(lines) + "\n", args.out)
    for message in failed:
        print(f"numerical failure: {message}", file=sys.stderr)
    return 3 if failed else 0


def _sizes(text) -> list[int]:
    try:
        sizes = [int(v) for v in str(text).split(",")]
    except ValueError:
        raise ValueError(f"--n-grid must be a comma list of integers, got {text!r}") from None
    if min(sizes) < 1:
        raise ValueError(f"--n-grid sizes must be at least 1, got {min(sizes)}")
    return sizes


def _cmd_rates(args) -> int:
    given = {key: value for key, value in vars(args).items() if key in RATES_DEFAULTS}
    loaded = load_experiment_config(args.config) if args.config else {}
    params = {**RATES_DEFAULTS, **loaded, **given}
    n_grid = _sizes(params["n_grid"])
    if args.save_config:
        save_experiment_config(args.save_config, **params)
    ell = None
    if params["ell"]:
        ell = tuple(float(v) for v in str(params["ell"]).split(","))
    table = excess_risk_experiment(
        PROBLEMS[params["problem"]](),
        [m.strip() for m in params["methods"].split(",") if m.strip()],
        n_grid,
        reps=params["reps"],
        n_test=params["n_test"],
        seed=params["seed"],
        V=params["V"],
        C=params["C"],
        lam=params["lam"],
        k_rule=params["k_rule"],
        ell=ell,
    )
    for meth, count in table.rank_deficient.items():
        print(
            f"# {meth}: {count} of {table.n_queries} queries had a rank-deficient design",
            file=sys.stderr,
        )
    _write("\n".join(table.csv_rows()) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "weights":
            return _cmd_weights(args)
        if args.command == "theory":
            return _cmd_theory(args)
        if args.command == "rates":
            return _cmd_rates(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
