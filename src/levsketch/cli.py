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
import functools
import io
import os
import sys
from dataclasses import replace

from .exceptions import ConfigParseError, InvalidParameterError, LevSketchError, _LineParseError
from .experiment import PRESETS, TrialConfig, run_experiment, set_up_run, write_report
from .leverage import leverage_scores
from .mmio import read_matrix, read_text, write_lines, write_matrix
from .problems import ProblemSpec
from .sketch import RngStream
from .solver import AccuracyTarget, accuracy_ratio, sketched_lstsq

#: Every config key, with its default; config files may set no other key.
#: The run flags of ``solve`` and ``bench`` set the key of their name.
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise InvalidParameterError(message)


def read_config(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` config file; ``#`` starts a comment, and
    each key may appear once."""
    out: dict[str, str] = {}
    first_lines: dict[str, int] = {}
    # Decode once as UTF-8, then split at universal newlines as a text-mode
    # read would.
    with io.StringIO(read_text(path, ConfigParseError), newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigParseError(f"expected 'key = value', got {raw.rstrip()!r}", lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ConfigParseError(f"unknown key {key!r}", lineno)
            if key in first_lines:
                raise ConfigParseError(
                    f"repeated key {key!r}, first given at line {first_lines[key]}", lineno)
            out[key], first_lines[key] = value, lineno
    return out


def _check_out_path(path: str | None) -> None:
    """Fail before any work when ``path`` cannot be written: its directory
    must exist and be writable, and ``path`` must be neither empty nor a
    directory.  The file itself is not created here."""
    if path is None:
        return
    if not path:
        raise FileNotFoundError("cannot write to an empty path")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"cannot write {path}: no directory {directory}")
    if os.path.isdir(path):
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    target = path if os.path.exists(path) else directory
    if not os.access(target, os.W_OK):
        raise PermissionError(f"cannot write {path}: permission denied")


#: The config keys of a generated problem; a custom-file problem reads none.
_GENERATED_KEYS = ("n_rows", "n_cols", "rhs_cols", "noise_scale", "coherence_target",
                   "problem_seed")


def _trial_config(values: dict[str, str], given=()) -> TrialConfig:
    """The run of a full table of config ``values``, of which a config file
    set the keys in ``given``."""
    def number(key: str, kind: type):
        try:
            return kind(values[key])
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise InvalidParameterError(f"{key} must be {what}, got {values[key]!r}") from None

    paths = {"a_path": values["a_file"] or None, "b_path": values["b_file"] or None}
    if values["kind"] == "custom-file":
        for key in _GENERATED_KEYS:
            if key in given:
                raise InvalidParameterError(
                    f"a custom-file problem reads only a_file and b_file, "
                    f"got {key} = {values[key]!r}")
        spec = ProblemSpec("custom-file", **paths)
    else:
        spec = ProblemSpec(
            kind=values["kind"],
            n_rows=number("n_rows", int),
            n_cols=number("n_cols", int),
            rhs_cols=number("rhs_cols", int),
            noise_scale=number("noise_scale", float),
            coherence_target=number("coherence_target", float),
            seed=number("problem_seed", int),
            **paths,
        )
    return TrialConfig(
        problem=spec,
        distribution=values["dist"],
        sample_rule=values["samples"],
        target=AccuracyTarget(number("epsilon", float), number("delta", float)),
        n_trials=number("trials", int),
        master_seed=number("seed", int),
        cap_samples=number("cap_samples", int),
    )


def _run_config(args, table: dict[str, str], given=()) -> TrialConfig:
    """The run of ``_DEFAULTS``, updated by ``table`` and then by each run
    flag given in ``args``; a config file set the keys in ``given``."""
    values = dict(_DEFAULTS, **table)
    values.update((key, flag) for key, flag in vars(args).items()
                  if key in _DEFAULTS and flag is not None)
    return _trial_config(values, given)


def _cmd_solve(args) -> int:
    # The flags are checked before --out is checked and the files read.  The
    # paths are kept as given: an empty one fails when read.
    cfg = replace(_run_config(args, {"trials": "1"}),
                  problem=ProblemSpec("custom-file", a_path=args.a, b_path=args.b))
    _check_out_path(args.out)
    a, b, exact, dist, beta, s = set_up_run(cfg)
    # The sketch of bench's trial 0 on the same config.
    sol = sketched_lstsq(a, b, dist, s, RngStream(cfg.master_seed, 1))
    print(
        f"rows={a.shape[0]} cols={a.shape[1]} rhs={b.shape[1]} dist={cfg.distribution} "
        f"beta={beta:.6g} s={s} sketched_residual_sq={sol.sketched_residual_sq:.17g}"
    )
    if args.exact:
        ratio = accuracy_ratio(a, b, sol.x_tilde, exact)
        print(
            f"exact_residual_sq={exact.residual_sq:.17g} "
            f"accuracy_ratio={ratio:.17g}"
        )
    if args.out is not None:
        write_matrix(args.out, sol.x_tilde)
    return 0


def _cmd_leverage(args) -> int:
    _check_out_path(args.out)
    a = read_matrix(args.a)
    profile = leverage_scores(a)
    print(f"rows={profile.n_rows} rank={profile.rank} coherence={profile.coherence:.17g}")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write_lines(fh, profile.scores)
    else:
        write_lines(sys.stdout, profile.scores)
    return 0


def _cmd_bench(args) -> int:
    given = read_config(args.config) if args.config else {}
    # A flag given on the command line beats the config file's value.
    cfg = _run_config(args, given, given)
    _check_out_path(args.out)
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
        raise InvalidParameterError(
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


_THREADS_HELP = ("accepted for compatibility (N >= 1) and changes nothing: trials are "
                 "scored in order, with the next chunk drawn on one worker thread")


def _thread_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"need an integer N >= 1, got {text!r}")
    return n


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first call and kept for the
    process: parsing leaves no state in it."""
    parser = _Parser(prog="levsketch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="sketched solve on matrix files")
    p_solve.add_argument("a", help="design matrix file (Matrix Market array)")
    p_solve.add_argument("b", help="right-hand-side matrix file")
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
    p_bench.add_argument("--trials")
    p_bench.add_argument("--cap-samples", dest="cap_samples",
                         help="cap the sample count (0 = no cap)")
    p_bench.add_argument("--out", default="report.csv", help="CSV report path")
    p_bench.add_argument("--threads", type=_thread_count, default=1,
                         metavar="N", help=_THREADS_HELP)
    p_bench.set_defaults(func=_cmd_bench)

    # Run flags: text, read with the config file's keys by _trial_config; a
    # flag left out is None and keeps the key's value.
    for p_run in (p_solve, p_bench):
        p_run.add_argument("--dist", help="leverage | uniform | blended:ALPHA")
        p_run.add_argument("--samples", help="auto | INT | xr:K")
        p_run.add_argument("--epsilon")
        p_run.add_argument("--delta")
        p_run.add_argument("--seed", help="master seed")

    p_val = sub.add_parser("validate", help="run built-in validation presets")
    p_val.add_argument("--preset", action="append", default=None,
                       help=f"preset name (repeatable); default: all of {sorted(PRESETS)}")
    p_val.add_argument("--threads", type=_thread_count, default=1,
                         metavar="N", help=_THREADS_HELP)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # -h/--help
        return int(exc.code or 0)
    except (_LineParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LevSketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
