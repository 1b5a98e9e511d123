"""Command-line front end.

Exit codes: 0 success, 1 negative verdict (invalid function, oracle
disagreement, non-convergence, non-homogeneity), 2 input error (such as a
`converge` window outside the spec's indices), 3 numeric error.  Each
subcommand takes only the options it reads.  Output is CSV or a single
JSON object {"command", "config", "result"}, whose `config` lists the
options the command read; it is written atomically (temp file + rename)
when --out is given.  Numbers are formatted with 17 significant
digits so CSV round-trips 64-bit floats exactly; the YM_SEED environment
variable overrides the --seed of `verify`.  JSON output is strict: a
non-finite number, such as a singular density value, is written as one of
the strings "inf", "-inf" and "nan".
"""
from __future__ import annotations

import gc

# what the imports below make lives as long as the process: the collector
# stays off until the end of this module freezes it
_collecting = gc.isenabled()
gc.disable()

import argparse
import atexit
import json
import math
import os
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path

# OpenBLAS's workers spin, and the CLI's only BLAS calls are 15-point dot products
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

from . import convergence, families, measures, relaxation, sampling
from .domain import Domain1D, MOscillatingFunction, validate
from .errors import OscymError, PreconditionError, SpecError
from .funcspec import SequenceSpec, parse_spec

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def fmt(x) -> str:
    return f"{float(x):.17g}"


def write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    out, tmp = Path(out_path), None
    try:
        fd, tmp = tempfile.mkstemp(dir=out.parent, prefix=out.name)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # name the path given, not the temp file
            exc.filename, exc.filename2 = out_path, None
        raise


def emit(args, result: dict, csv_rows, csv_header):
    if args.format == "json":
        config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
        payload = {"command": args.command, "config": config, "result": result}
        write_output(json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n",
                     args.out)
    else:
        lines = [",".join(csv_header)]
        for row in csv_rows:
            lines.append(",".join(
                str(v) if isinstance(v, bool) or not isinstance(v, (int, float))
                else fmt(v)
                for v in row))
        write_output("\n".join(lines) + "\n", args.out)


def _jsonable(obj):
    """Plain JSON value of obj, made of Python values; non-finite floats become
    "inf", "-inf" or "nan" (json.dumps passes floats straight through)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def load_spec(path: str, wanted: type):
    """The spec in the file at path: a `wanted`, MOscillatingFunction or SequenceSpec."""
    try:
        parsed = parse_spec(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path} is not UTF-8 text: {exc}") from None
    if not isinstance(parsed, wanted):
        kinds = ("function", "sequence") if wanted is SequenceSpec else ("sequence", "function")
        raise SpecError(f"{path} holds a {kinds[0]} spec; a {kinds[1]} spec is needed")
    return parsed


def cmd_validate(args) -> int:
    f = load_spec(args.input, MOscillatingFunction)
    report = validate(f)
    rows = [(v.code, "" if v.piece_index is None else v.piece_index,
             v.message, fmt(v.measured)) for v in report.violations]
    emit(args, {"valid": report.valid,
                "violations": [{"code": v.code, "piece": v.piece_index,
                                "message": v.message, "measured": v.measured}
                               for v in report.violations]},
         csv_rows=rows, csv_header=("code", "piece", "message", "measured"))
    return EXIT_OK if report.valid else EXIT_NEGATIVE


def grid_rows(f, values_fn, interval, n: int) -> list:
    """(y, value) rows at n points of interval, from one call of values_fn(f, ys)."""
    ys = np.linspace(*interval, n)
    return list(zip(ys.tolist(), values_fn(f, ys).tolist()))


def cmd_grid(args, values_fn, column: str) -> int:
    """(y, value) rows at `--grid` points of range_K of a valid function:
    the density (column g) or the total slope (Jt)."""
    f = measures.validated(load_spec(args.input, MOscillatingFunction))
    rows = grid_rows(f, values_fn, f.range_K, args.grid)
    emit(args, {"grid": rows}, csv_rows=rows, csv_header=("y", column))
    return EXIT_OK


def cmd_measure(args) -> int:
    f = load_spec(args.input, MOscillatingFunction)
    m = measures.young_measure(f)
    density_grid = [] if m.density is None else grid_rows(
        f, measures.young_density, m.density.support, args.grid)
    result = {
        "density_grid": density_grid,
        "atoms": [[a.location, a.weight] for a in m.atoms],
        "range": list(m.range_K),
    }
    rows = density_grid + [("atom", a.location, a.weight) for a in m.atoms]
    emit(args, result, csv_rows=rows, csv_header=("y", "g"))
    return EXIT_OK


def cmd_verify(args) -> int:
    f = load_spec(args.input, MOscillatingFunction)
    m = measures.young_measure(f)
    h = sampling.pushforward_empirical(f, args.samples, args.seed, args.bins)
    rep = sampling.oracle_report(m, h)
    rows = [(b.lo, b.hi, b.model_mass, b.empirical_mass, b.threshold)
            for b in rep.bins]
    rows += [("atom", a.location, a.model_weight, a.empirical_mass, a.threshold)
             for a in rep.atoms]
    emit(args, {"discrepancy": rep.discrepancy,
                "within_threshold": rep.within_threshold,
                "threshold_sigma": rep.n_sigma,
                "bins": [b._asdict() for b in rep.bins],
                "atoms": [a._asdict() for a in rep.atoms]},
         csv_rows=rows,
         csv_header=("bin_lo", "bin_hi", "model_mass", "empirical_mass", "threshold"))
    return EXIT_OK if rep.within_threshold else EXIT_NEGATIVE


def _verdict_output(args, verdict, extra=None):
    rows = [(r.level, r.index, r.lo, r.hi, r.limit, r.residual)
            for r in verdict.per_set]
    result = {
        "converged": verdict.converged,
        "worst_residual": verdict.worst_residual,
        "tail_window": list(verdict.tail_window),
        "tol": verdict.tol,
        "per_set": [r._asdict() for r in verdict.per_set],
    }
    if extra:
        result.update(extra)
    emit(args, result, csv_rows=rows,
         csv_header=("level", "k", "lo", "hi", "limit", "residual"))


def cmd_converge(args) -> int:
    seq = load_spec(args.input, SequenceSpec)
    n_min, n_max = args.window
    if n_min < seq.indices[0] or n_max > seq.indices[1]:
        raise SpecError(f"window [{n_min}, {n_max}] lies outside the spec's "
                        f"indices {list(seq.indices)}")
    fs = seq.functions(range(1, n_max + 1))
    lo = min(f.range_K[0] for f in fs)
    hi = max(f.range_K[1] for f in fs)
    fam = convergence.BorelTestFamily((lo, hi), args.depth)
    verdict, limit = convergence.converge_young(
        fs, fam, tol=args.tol, n_min=n_min, n_max=n_max)
    extra = None if limit is None else {
        "limit_atoms": [[a.location, a.weight] for a in limit.atoms]}
    _verdict_output(args, verdict, extra)
    return EXIT_OK if verdict.converged else EXIT_NEGATIVE


def _builtin_family(name: str) -> convergence.NonhomogeneousDensityFamily:
    """The family x -> Young density of the triangular quantile map Q_x on
    range [0, 2], or of the identity, the same uniform slice at every x."""
    if name == "triangular":
        slice_at, range_K = families.triangular_quantile, (0.0, 2.0)
    elif name == "uniform":
        u = families.identity_map()
        slice_at, range_K = (lambda x: u), (0.0, 1.0)
    else:
        raise SpecError(f"unknown density family {name!r}")
    return convergence.NonhomogeneousDensityFamily(
        domain=Domain1D(0.0, 1.0), range_K=range_K,
        evaluator=lambda x: measures.young_density_function(slice_at(x)))


def cmd_weak_cont(args) -> int:
    if args.n_start > args.n_stop:
        raise PreconditionError(f"--n-start {args.n_start} exceeds --n-stop {args.n_stop}")
    fam = _builtin_family(args.family)
    xs = [args.x0 + 1.0 / n for n in range(args.n_start, args.n_stop + 1)]
    test = convergence.BorelTestFamily(fam.range_K, args.depth)
    verdict = convergence.weak_continuity_check(
        fam, xs, args.x0, test, tol=args.tol)
    _verdict_output(args, verdict)
    return EXIT_OK if verdict.converged else EXIT_NEGATIVE


def cmd_homog(args) -> int:
    fam = _builtin_family(args.family)
    homogeneous = convergence.homogeneity_check(fam, args.x_samples, args.tol)
    emit(args, {"homogeneous": homogeneous},
         csv_rows=[(args.family, homogeneous)], csv_header=("family", "homogeneous"))
    return EXIT_OK if homogeneous else EXIT_NEGATIVE


def cmd_bolza(args) -> int:
    if args.gradient_ym:
        g = relaxation.gradient_young_measure(relaxation.sawtooth(args.n))
        emit(args, {"n": args.n, "atoms": [[a.location, a.weight] for a in g.atoms]},
             csv_rows=[(a.location, a.weight) for a in g.atoms],
             csv_header=("slope", "weight"))
        return EXIT_OK
    ns = [int(v) for v in args.n_list.split(",")]
    rows = []
    for n in ns:
        J = relaxation.bolza_functional(relaxation.sawtooth(n))
        predicted = 1.0 / (48.0 * n * n)
        rows.append((n, J, predicted, abs(J - predicted)))
    emit(args, {"values": [{"n": n, "J_value": J, "predicted": p, "abs_error": e}
                           for n, J, p, e in rows]},
         csv_rows=rows, csv_header=("n", "J_value", "predicted", "abs_error"))
    return EXIT_OK


def _at_least(low, value, kind: str = "an integer", below=math.inf):
    """value if low <= value < below, which no NaN is; else an argparse error."""
    if not low <= value < below:
        upper = "" if below == math.inf else f" and < {below}"
        raise argparse.ArgumentTypeError(f"expected {kind} >= {low}{upper}, got {value}")
    return value


def _count(text: str) -> int:
    """argparse type: an integer >= 0."""
    return _at_least(0, int(text))


def _positive(text: str) -> int:
    """argparse type: an integer >= 1."""
    return _at_least(1, int(text))


def _seed(text: str) -> int:
    """argparse type: an integer in [0, 2**128), the seed of `verify`'s
    SplitMix64 stream (`sampling._uniform`); reads YM_SEED too."""
    return _at_least(0, int(text), below=2 ** 128)


def _tol(text: str) -> float:
    """argparse type: a finite number >= 0."""
    return _at_least(0.0, float(text), "a finite number")


def _n_list(text: str) -> str:
    """argparse type: comma-separated integers >= 1, kept as written, the
    form the JSON config echoes."""
    for part in text.split(","):
        _positive(part)
    return text


def _window(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("window must be n_min,n_max")
    a, b = int(parts[0]), int(parts[1])
    if not a < b:
        raise argparse.ArgumentTypeError("window must be increasing")
    return a, b


# the add_argument keywords of each option, whichever subcommands take it
_OPTIONS = {
    "--input": dict(required=True, help="spec file (JSON)"),
    "--out": dict(help="output path (atomic write)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--grid": dict(type=_count, default=measures.GRID_SIZE),
    "--seed": dict(type=_seed, default=42),
    "--samples": dict(type=int, default=1_000_000),
    "--bins": dict(type=int, default=16),
    "--tol": dict(type=_tol, default=measures.DEFAULT_TOL),
    "--window": dict(type=_window, default=measures.DEFAULT_WINDOW),
    "--depth": dict(type=_count, default=measures.DEFAULT_DEPTH),
    "--family": dict(default="triangular"),
    "--x0": dict(type=float, default=0.5),
    "--n-start": dict(type=_positive, default=3),
    "--n-stop": dict(type=_positive, default=256),
    "--x-samples": dict(type=int, default=5),
    "--n-list": dict(type=_n_list, default="1,2,4,8,16"),
    "--gradient-ym": dict(action="store_true"),
    "--n": dict(type=_positive, default=4),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The `oscym` parser.  When argv[0] names a subcommand, only that
    subcommand's parser is built, the only one parse_args(argv) can reach;
    otherwise (no argv, --help, an unknown name) every subcommand's is."""
    # argparse reads the terminal size for every formatter it makes, one per
    # argument; the width argparse would read (columns less 2), read once
    formatter = partial(argparse.HelpFormatter,
                        width=shutil.get_terminal_size().columns - 2)
    # name: (handler, help line, options in help order); made per call, so a
    # handler binds the measures function the module holds at that time
    commands = {
        "validate": (cmd_validate, "check the structural invariants",
                     "--input --out --format"),
        "density": (partial(cmd_grid, values_fn=measures.young_density, column="g"),
                    "tabulate the Young-measure density", "--input --out --format --grid"),
        "slope": (partial(cmd_grid, values_fn=measures.total_slope, column="Jt"),
                  "tabulate the total slope", "--input --out --format --grid"),
        "measure": (cmd_measure, "export the Young measure", "--input --out --format --grid"),
        "verify": (cmd_verify, "compare against the Monte-Carlo oracle",
                   "--input --out --format --seed --samples --bins"),
        "converge": (cmd_converge, "monotone-slope convergence check",
                     "--input --out --format --tol --window --depth"),
        "weak-cont": (cmd_weak_cont, "weak continuity of x -> h_x",
                      "--out --format --tol --family --x0 --n-start --n-stop --depth"),
        "homog": (cmd_homog, "homogeneity of a density family",
                  "--out --format --tol --family --x-samples"),
        "bolza": (cmd_bolza, "Bolza functional on the sawtooth sequence",
                  "--out --format --n-list --gradient-ym --n"),
    }
    named = argv[0] if argv and argv[0] in commands else None
    ap = argparse.ArgumentParser(
        prog="oscym",
        description="Young measures of oscillating functions: densities, "
                    "pushforward verification, weak-convergence checks",
        formatter_class=formatter,
    )
    # with one subcommand built, the metavar keeps every name in the usage
    # line; unset otherwise, since it would also rename `command` in errors
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar=named and "{%s}" % ",".join(commands))
    for name, (func, help_line, options) in commands.items():
        if named in (None, name):
            p = sub.add_parser(name, help=help_line, formatter_class=formatter)
            for option in options.split():
                p.add_argument(option, **_OPTIONS[option])
            p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    if "YM_SEED" in os.environ and hasattr(args, "seed"):
        try:
            args.seed = _seed(os.environ["YM_SEED"])
        except (argparse.ArgumentTypeError, ValueError) as exc:
            parser.error(f"YM_SEED: {exc}")
    try:
        return args.func(args)
    except (SpecError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OscymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


# a call's collections scan only its own objects, and at exit finalization
# skips a full collection and the teardown of numpy's objects
gc.freeze()
atexit.register(gc.freeze)
if _collecting:
    gc.enable()

if __name__ == "__main__":
    sys.exit(main())
