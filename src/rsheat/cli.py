"""Command-line interface: trace curves, spectra, kernel values, verification.

    rsheat trace  --theta 0 --t-min 1e-4 --t-max 1e-2 --points 20
    rsheat eigen  --theta friedrichs --lambda-max 300
    rsheat ktheta --theta 0 --t 1.0
    rsheat verify --quick

CSV goes to --output (default stdout), one header row, LF line endings,
every numeric cell with 17 significant digits so doubles round-trip
exactly.  Identical configuration produces byte-identical CSV; run
metadata (timings, versions) goes to a ``<output>.meta.json`` sidecar,
never into the data file.  Exit codes: 0 success, 1 usage error,
2 numerical failure.  Diagnostics go to stderr.

Trace rows are computed in one thread (the work is pure Python, so
threads would only take turns on the interpreter lock), through
``trace_curve``: the rows up to t = 0.1 share their integrals.
``--workers`` (and the ``workers`` config key) is still accepted so that
existing scripts keep running, and is ignored.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import re
import sys
import time

from .errors import ConvergenceError, DomainError, InsufficientSpectrumError
from .kernels import BoundaryParam
from .ktheta import KernelOptions, k_theta
from .oracle import eigenvalues
from .quadrature import QuadSpec
from .trace import full_trace, trace_curve
from .verify import run_acceptance
from . import __version__

_USAGE_EXIT = 1
_NUMERICAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # take "-1e-12" for a value too, not only the "-1" and "-.5" argparse knows
        self._negative_number_matcher = re.compile(r"^-\d*\.?\d+(?:[eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


_PI_FORM = re.compile(r"^\s*(\d+\.?\d*|\.\d+)?\s*pi\s*(?:/\s*(\d+\.?\d*))?\s*$",
                      re.IGNORECASE)


def parse_theta(text):
    """Angle in radians; 'friedrichs' and 'pi/4'-style fractions accepted."""
    s = str(text).strip().lower()
    if s == "friedrichs":
        return BoundaryParam.friedrichs()
    m = _PI_FORM.match(s)
    if m:
        coef = float(m.group(1)) if m.group(1) else 1.0
        div = float(m.group(2)) if m.group(2) else 1.0
        return BoundaryParam(coef * math.pi / div)
    try:
        val = float(s)
    except ValueError as exc:
        raise DomainError(f"cannot parse theta {text!r}") from exc
    return BoundaryParam(val)


def _fmt(x):
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def _load_config(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"config line without '=': {raw.rstrip()!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _add_common(p, grid=True):
    p.add_argument("--theta", default=None,
                   help="boundary angle in radians, a 'pi/4'-style fraction, "
                        "or 'friedrichs'")
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--abs-tol", type=float, default=1e-12)
    p.add_argument("--max-subdivisions", type=int, default=4000)
    p.add_argument("--no-residue", action="store_true",
                   help="drop the bound-state pole term from the kernel")
    p.add_argument("--output", default="-", help="output path ('-' = stdout)")
    p.add_argument("--config", default=None,
                   help="plain key=value file; command-line flags override it")
    if grid:
        p.add_argument("--t-min", type=float, default=1e-4)
        p.add_argument("--t-max", type=float, default=1e-2)
        p.add_argument("--points", type=int, default=20)
        p.add_argument("--spacing", choices=("log", "linear"), default="log")
        p.add_argument("--workers", type=int, default=None,
                       help="ignored: rows run serially, since threads only "
                            "contend for the interpreter lock on this "
                            "pure-Python work")


@functools.cache
def _build_parser():
    """The argparse tree, built once per process; parse_args leaves it as is."""
    parser = _Parser(prog="rsheat",
                     description="heat kernel and heat trace of the half-line "
                                 "operator -d2/dx2 - 1/(4x2)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # no prefix abbreviations: _apply_config matches whole flag names
    p_trace = sub.add_parser("trace", allow_abbrev=False,
                             help="heat-trace curve over a t-grid")
    _add_common(p_trace)

    p_eigen = sub.add_parser("eigen", allow_abbrev=False,
                             help="interval spectrum as CSV")
    _add_common(p_eigen, grid=False)
    p_eigen.add_argument("--lambda-max", type=float, default=4000.0)
    p_eigen.add_argument("--tol", type=float, default=1e-10)

    p_kt = sub.add_parser("ktheta", allow_abbrev=False,
                          help="convolution kernel values")
    _add_common(p_kt)
    p_kt.add_argument("--t", type=float, default=None,
                      help="single evaluation time (overrides the grid)")

    p_ver = sub.add_parser("verify", allow_abbrev=False,
                           help="run the acceptance suite")
    p_ver.add_argument("--quick", action="store_true",
                       help="trim the slow grids; same criteria")
    p_ver.add_argument("--output", default="-")
    return parser


def _apply_config(args, argv):
    if getattr(args, "config", None):
        cfg = _load_config(args.config)
        casts = {"rel_tol": float, "abs_tol": float, "max_subdivisions": int,
                 "t_min": float, "t_max": float, "points": int,
                 "workers": int, "lambda_max": float, "tol": float, "t": float,
                 "no_residue": lambda s: s.lower() in ("1", "true", "yes", "on")}
        argv_given = {a.lstrip("-").replace("-", "_").split("=")[0]
                      for a in argv if a.startswith("--")}
        for key, val in cfg.items():
            if not hasattr(args, key):
                raise DomainError(f"unknown config key {key!r}")
            if key in argv_given:
                continue  # explicit flag wins
            setattr(args, key, casts.get(key, str)(val))
    return args


def _grid(args):
    if args.points < 1:
        raise DomainError("need points >= 1")
    if args.t_min <= 0.0 or args.t_max < args.t_min:
        raise DomainError("need 0 < t-min <= t-max")
    if args.points == 1:
        return [args.t_min]
    if args.spacing == "log":
        ratio = (args.t_max / args.t_min) ** (1.0 / (args.points - 1))
        return [args.t_min * ratio ** k for k in range(args.points)]
    step = (args.t_max - args.t_min) / (args.points - 1)
    return [args.t_min + step * k for k in range(args.points)]


def _spec(args):
    return QuadSpec(rel_tol=args.rel_tol, abs_tol=args.abs_tol,
                    max_subdivisions=args.max_subdivisions)


def _emit(args, text, meta):
    if args.output == "-":
        sys.stdout.write(text)
        return
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    with open(args.output + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _meta(args, started, command):
    shown = {k: v for k, v in vars(args).items() if k not in ("config",)}
    return {
        "command": command,
        "config": {k: repr(v) for k, v in sorted(shown.items())},
        "version": __version__,
        "runtime_seconds": round(time.time() - started, 3),
        "written_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _cmd_trace(args):
    started = time.time()
    bp = parse_theta(args.theta if args.theta is not None else "friedrichs")
    spec = _spec(args)
    opts = KernelOptions(include_residue=not args.no_residue, spec=spec)
    ts = _grid(args)

    def row(s):
        status = "ok"
        if not math.isfinite(s.value):
            print(f"rsheat trace: total overflows at t={s.t:g}", file=sys.stderr)
            status = "overflow"
        return (s.t, s.parts.friedrichs, s.parts.correction, s.value,
                s.parts.exotic_ref, s.est_error, status)

    def one(t):
        try:
            return row(full_trace(t, bp, opts, spec))
        except ConvergenceError as exc:
            print(f"rsheat trace: convergence failure at t={t:g}: {exc}",
                  file=sys.stderr)
            return (t, math.nan, math.nan, math.nan, math.nan, math.nan,
                    "convergence-failure")

    try:
        rows = [row(s) for s in trace_curve(bp, ts, opts, spec)]
    except ConvergenceError:
        # rows share integrals in trace_curve: redo them one by one, so
        # that only the rows that fail on their own are flagged
        rows = [one(t) for t in ts]

    buf = io.StringIO()
    buf.write("t,theta,friedrichs,correction,total,exotic_ref,est_error,status\n")
    for t, fr, corr, tot, ex, err, status in rows:
        buf.write(",".join([_fmt(t), _fmt(bp.theta), _fmt(fr), _fmt(corr),
                            _fmt(tot), _fmt(ex), _fmt(err), status]) + "\n")
    _emit(args, buf.getvalue(), _meta(args, started, "trace"))
    return 0 if all(r[-1] == "ok" for r in rows) else _NUMERICAL_EXIT


def _cmd_eigen(args):
    started = time.time()
    bp = parse_theta(args.theta if args.theta is not None else "friedrichs")
    spectrum = eigenvalues(bp, lambda_max=args.lambda_max, tol=args.tol)
    buf = io.StringIO()
    spectrum.to_csv(buf)
    _emit(args, buf.getvalue(), _meta(args, started, "eigen"))
    return 0


def _cmd_ktheta(args):
    started = time.time()
    bp = parse_theta(args.theta if args.theta is not None else "0")
    spec = _spec(args)
    opts = KernelOptions(include_residue=not args.no_residue, spec=spec)
    ts = [args.t] if args.t is not None else _grid(args)
    buf = io.StringIO()
    buf.write("t,theta,main,smooth,residue,total\n")
    for t in ts:
        v = k_theta(t, bp, opts)
        buf.write(",".join([_fmt(t), _fmt(bp.theta), _fmt(v.main_part),
                            _fmt(v.smooth_part), _fmt(v.residue_part),
                            _fmt(v.total)]) + "\n")
    _emit(args, buf.getvalue(), _meta(args, started, "ktheta"))
    return 0


def _cmd_verify(args):
    started = time.time()
    results = run_acceptance(quick=args.quick)
    lines = [res.render() for res in results]
    ok = all(res.passed for res in results)
    lines.append(f"{'ALL CRITERIA PASS' if ok else 'FAILURES PRESENT'} "
                 f"({1e3 * (time.time() - started):.0f} ms total)")
    text = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0 if ok else _NUMERICAL_EXIT


def main(argv=None):
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, argv)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "eigen":
            return _cmd_eigen(args)
        if args.command == "ktheta":
            return _cmd_ktheta(args)
        return _cmd_verify(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _USAGE_EXIT
    except (DomainError, OSError) as exc:
        print(f"rsheat: error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (ConvergenceError, InsufficientSpectrumError) as exc:
        print(f"rsheat: numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
