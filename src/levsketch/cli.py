"""Command-line interface.

Subcommands
-----------
solve     one-shot sketched least squares on two matrix files
leverage  leverage scores and coherence of a matrix file
bench     Monte Carlo experiment from a config file and/or flags, CSV out
validate  run built-in validation presets; nonzero exit on failure

Exit codes: 0 success, 1 usage or parameter error, 2 I/O or parse error,
3 validation-suite failure.
"""

from __future__ import annotations

import argparse
import sys

from .exceptions import (
    ConfigParseError,
    LevSketchError,
    MatrixMarketParseError,
)
from .experiment import (
    PRESETS,
    TrialConfig,
    build_distribution,
    parse_distribution_spec,
    parse_sample_rule,
    run_experiment,
    sample_count,
    write_report,
)
from .leverage import leverage_scores, profile_from_basis
from .linalg import exact_lstsq
from .mmio import read_matrix, write_matrix
from .problems import ProblemSpec
from .sketch import RngStream, build_sketch
from .solver import AccuracyTarget, accuracy_ratio, solve_with_plan

#: Every config key, with its default; config files may set no other key.
_DEFAULTS = {
    "kind": "gaussian-incoherent",
    "n_rows": "2000",
    "n_cols": "5",
    "rhs_cols": "2",
    "noise_scale": "1.0",
    "coherence_target": "0.0",
    "problem_seed": "0",
    "a_file": "",
    "b_file": "",
    "dist": "leverage",
    "samples": "auto",
    "cap_samples": "0",
    "epsilon": "0.1",
    "delta": "0.1",
    "trials": "100",
    "seed": "0",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise _UsageError(message)


def read_config(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` config file; ``#`` starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigParseError(f"expected 'key = value', got {raw.rstrip()!r}", lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ConfigParseError(f"unknown key {key!r}", lineno)
            out[key] = value
    return out


def _trial_config(values: dict[str, str]) -> TrialConfig:
    kind = values["kind"]
    spec = ProblemSpec(
        kind=kind,
        n_rows=int(values["n_rows"]),
        n_cols=int(values["n_cols"]),
        rhs_cols=int(values["rhs_cols"]),
        noise_scale=float(values["noise_scale"]),
        coherence_target=float(values["coherence_target"]),
        seed=int(values["problem_seed"]),
        a_path=values["a_file"] or None,
        b_path=values["b_file"] or None,
    )
    return TrialConfig(
        problem=spec,
        distribution=values["dist"],
        sample_rule=values["samples"],
        target=AccuracyTarget(float(values["epsilon"]), float(values["delta"])),
        n_trials=int(values["trials"]),
        master_seed=int(values["seed"]),
        cap_samples=int(values["cap_samples"]),
    )


def _cmd_solve(args) -> int:
    # Reject bad flags before the files are read and A is factored.
    parse_distribution_spec(args.dist)
    parse_sample_rule(args.samples)
    target = AccuracyTarget(args.epsilon, args.delta)
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    exact = exact_lstsq(a, b)
    profile = profile_from_basis(exact.basis)
    dist, beta = build_distribution(args.dist, profile)
    s = sample_count(args.samples, profile.rank, beta, target)
    plan = build_sketch(dist, s, RngStream(args.seed, stream_index=1))
    sol = solve_with_plan(a, b, plan)
    print(
        f"rows={a.rows} cols={a.cols} rhs={b.cols} dist={args.dist} "
        f"beta={beta:.6g} s={s} sketched_residual_sq={sol.sketched_residual_sq:.17g}"
    )
    if args.exact:
        ratio = accuracy_ratio(a, b, sol.x_tilde, exact)
        print(
            f"exact_residual_sq={exact.residual_sq:.17g} "
            f"accuracy_ratio={ratio:.17g}"
        )
    if args.out:
        write_matrix(args.out, sol.x_tilde)
    return 0


def _cmd_leverage(args) -> int:
    a = read_matrix(args.a)
    profile = leverage_scores(a)
    print(f"rows={profile.n_rows} rank={profile.rank} coherence={profile.coherence:.17g}")
    lines = [format(v, ".17g") for v in profile.scores]
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_bench(args) -> int:
    values = dict(_DEFAULTS)
    if args.config:
        values.update(read_config(args.config))
    for key, flag in (
        ("seed", args.seed),
        ("trials", args.trials),
        ("epsilon", args.epsilon),
        ("delta", args.delta),
        ("dist", args.dist),
        ("samples", args.samples),
        ("cap_samples", args.cap_samples),
    ):
        if flag is not None:
            values[key] = str(flag)
    try:
        cfg = _trial_config(values)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    report = run_experiment(cfg)
    write_report(report, args.out)
    print(
        f"trials={cfg.n_trials} s={report.s} beta={report.beta:.6g} "
        f"success_rate={report.success_rate:.4f} sc1_rate={report.sc1_rate:.4f} "
        f"sc2_rate={report.sc2_rate:.4f} "
        f"implication_violations={report.implication_violations} out={args.out}"
    )
    return 0


def _cmd_validate(args) -> int:
    names = args.preset or sorted(PRESETS)
    unknown = [n for n in names if n not in PRESETS]
    if unknown:
        raise _UsageError(
            f"unknown preset(s) {unknown}; available: {sorted(PRESETS)}"
        )
    failures = 0
    for name in names:
        preset = PRESETS[name]
        reports = preset.run()
        for check_name, ok, detail in preset.evaluate(reports):
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {name}/{check_name}: {detail}")
            failures += 0 if ok else 1
    if failures:
        print(f"{failures} validation check(s) failed", file=sys.stderr)
        return 3
    return 0


_THREADS_HELP = "accepted for compatibility (N >= 1); trials always run serially"


def _thread_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"need an integer N >= 1, got {text!r}")
    return n


def _build_parser() -> _Parser:
    parser = _Parser(prog="levsketch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="sketched solve on matrix files")
    p_solve.add_argument("a", help="design matrix file (Matrix Market array)")
    p_solve.add_argument("b", help="right-hand-side matrix file")
    p_solve.add_argument("--dist", default="leverage",
                         help="leverage | uniform | blended:ALPHA")
    p_solve.add_argument("--samples", default="auto",
                         help="auto | INT | xR:INT")
    p_solve.add_argument("--epsilon", type=float, default=0.1)
    p_solve.add_argument("--delta", type=float, default=0.1)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", default=None, help="write the solution here")
    p_solve.add_argument("--exact", action="store_true",
                         help="also run the exact solve and print the ratio")
    p_solve.set_defaults(func=_cmd_solve)

    p_lev = sub.add_parser("leverage", help="leverage scores of a matrix file")
    p_lev.add_argument("a", help="matrix file (Matrix Market array)")
    p_lev.add_argument("--out", default=None, help="write scores here instead of stdout")
    p_lev.set_defaults(func=_cmd_leverage)

    p_bench = sub.add_parser("bench", help="Monte Carlo experiment, CSV report")
    p_bench.add_argument("--config", default=None, help="key = value config file")
    p_bench.add_argument("--seed", type=int, default=None, help="master seed")
    p_bench.add_argument("--trials", type=int, default=None)
    p_bench.add_argument("--epsilon", type=float, default=None)
    p_bench.add_argument("--delta", type=float, default=None)
    p_bench.add_argument("--dist", default=None,
                         help="leverage | uniform | blended:ALPHA")
    p_bench.add_argument("--samples", default=None, help="auto | INT | xR:INT")
    p_bench.add_argument("--cap-samples", dest="cap_samples", type=int, default=None,
                         help="cap the sample count (0 = no cap)")
    p_bench.add_argument("--out", default="report.csv", help="CSV report path")
    p_bench.add_argument("--threads", type=_thread_count, default=1,
                         metavar="N", help=_THREADS_HELP)
    p_bench.set_defaults(func=_cmd_bench)

    p_val = sub.add_parser("validate", help="run built-in validation presets")
    p_val.add_argument("--preset", action="append", default=None,
                       help=f"preset name (repeatable); default: all of {sorted(PRESETS)}")
    p_val.add_argument("--threads", type=_thread_count, default=1,
                         metavar="N", help=_THREADS_HELP)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # -h/--help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MatrixMarketParseError, ConfigParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LevSketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
