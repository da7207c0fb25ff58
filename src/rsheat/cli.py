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
``trace_curve``, whose integrals are all fixed rules with a stated bound:
no row runs an adaptive integral, so none can fail to converge.
``rsheat trace --workers``, ``--rel-tol`` and ``--abs-tol`` (and their
config keys) are still accepted so that existing scripts keep running,
and are ignored.  Each subcommand takes only the options it reads, and a
``--config`` file's keys are parsed as the same flags.
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

from .errors import ConvergenceError, DomainError, InsufficientSpectrumError, check_real
from .kernels import BoundaryParam
from .ktheta import k_theta
from .oracle import LAMBDA_MAX_LIMIT, eigenvalues
from .trace import trace_curve
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
        if div == 0.0:
            raise DomainError(f"cannot parse theta {text!r}: zero divisor")
        return BoundaryParam(coef * math.pi / div)
    try:
        val = float(s)
    except ValueError as exc:
        raise DomainError(f"cannot parse theta {text!r}") from exc
    return BoundaryParam(val)


def _fmt(x):
    return f"{x:.17g}"  # "nan" for every NaN


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


def _add_common(p):
    p.add_argument("--theta", default=None,
                   help="boundary angle in radians, a 'pi/4'-style fraction, "
                        "or 'friedrichs'")
    p.add_argument("--output", default="-", help="output path ('-' = stdout)")
    p.add_argument("--config", default=None,
                   help="plain key=value file; command-line flags override it")


def _add_curve(p):
    """The residue option and the t-grid of trace and ktheta."""
    p.add_argument("--no-residue", action="store_true",
                   help="drop the bound-state pole term from the kernel")
    p.add_argument("--t-min", type=float, default=1e-4)
    p.add_argument("--t-max", type=float, default=1e-2)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")


@functools.cache
def _build_parser():
    """The argparse tree, built once per process; parse_args leaves it as is.
    Each subcommand takes only the options it reads."""
    parser = _Parser(prog="rsheat",
                     description="heat kernel and heat trace of the half-line "
                                 "operator -d2/dx2 - 1/(4x2)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # no prefix abbreviations: every flag is spelled in full, as config keys are
    p_trace = sub.add_parser("trace", allow_abbrev=False,
                             help="heat-trace curve over a t-grid")
    _add_common(p_trace)
    _add_curve(p_trace)
    for flag, default in (("--rel-tol", 1e-10), ("--abs-tol", 1e-12)):
        p_trace.add_argument(flag, type=float, default=default,
                             help="ignored: every integral of a trace row is a "
                                  "fixed rule with a stated bound")
    p_trace.add_argument("--workers", type=int, default=None,
                         help="ignored: rows run serially, since threads only "
                              "contend for the interpreter lock on this "
                              "pure-Python work")
    p_trace.set_defaults(run=_cmd_trace)

    p_eigen = sub.add_parser("eigen", allow_abbrev=False,
                             help="interval spectrum as CSV")
    _add_common(p_eigen)
    p_eigen.add_argument("--lambda-max", type=float, default=4000.0,
                         help="largest eigenvalue computed, from 100 to "
                              f"{LAMBDA_MAX_LIMIT:g}")
    p_eigen.set_defaults(run=_cmd_eigen)

    p_kt = sub.add_parser("ktheta", allow_abbrev=False,
                          help="convolution kernel values")
    _add_common(p_kt)
    _add_curve(p_kt)
    p_kt.add_argument("--t", type=float, default=None,
                      help="single evaluation time (overrides the grid)")
    p_kt.set_defaults(run=_cmd_ktheta)

    p_ver = sub.add_parser("verify", allow_abbrev=False,
                           help="run the acceptance suite")
    p_ver.add_argument("--quick", action="store_true",
                       help="trim the slow grids; same criteria")
    p_ver.add_argument("--output", default="-")
    p_ver.set_defaults(run=_cmd_verify)
    return parser


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _config_flags(args):
    """The --config file's lines as flags, for argparse to check like any
    other: ``key = value`` is ``--key=value``, and an on/off option's key
    is its bare flag when true."""
    flags = []
    for key, val in _load_config(args.config).items():
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(args, key, None), bool):
            flags.append(f"{flag}={val}")
        elif val.lower() in _TRUE:
            flags.append(flag)
        elif val.lower() not in _FALSE:
            raise DomainError(f"config key {key!r} takes true or false, got {val!r}")
    return flags


def _grid(args):
    if args.points < 1:
        raise DomainError("need points >= 1")
    for arg in ("t_min", "t_max"):
        check_real(getattr(args, arg), args.command, arg.replace("_", "-"))
    if args.t_min <= 0.0 or args.t_max < args.t_min:
        raise DomainError("need 0 < t-min <= t-max")
    if args.points == 1:
        return [args.t_min]
    if args.spacing == "log":
        ratio = (args.t_max / args.t_min) ** (1.0 / (args.points - 1))
        return [args.t_min * ratio ** k for k in range(args.points)]
    step = (args.t_max - args.t_min) / (args.points - 1)
    return [args.t_min + step * k for k in range(args.points)]


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
    shown = {k: v for k, v in vars(args).items() if k not in ("config", "run")}
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
    ts = _grid(args)

    def row(s):
        status = "ok"
        if not math.isfinite(s.value):
            print(f"rsheat trace: total overflows at t={s.t:g}", file=sys.stderr)
            status = "overflow"
        return (s.t, s.parts.friedrichs, s.parts.correction, s.value,
                s.parts.exotic_ref, s.est_error, status)

    rows = [row(s) for s in trace_curve(bp, ts, include_residue=not args.no_residue)]
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
    spectrum = eigenvalues(bp, lambda_max=args.lambda_max)
    buf = io.StringIO()
    spectrum.to_csv(buf)
    _emit(args, buf.getvalue(), _meta(args, started, "eigen"))
    return 0


def _cmd_ktheta(args):
    started = time.time()
    bp = parse_theta(args.theta if args.theta is not None else "0")
    ts = [args.t] if args.t is not None else _grid(args)
    buf = io.StringIO()
    buf.write("t,theta,main,smooth,residue,total\n")
    finite = True
    for t in ts:
        v = k_theta(t, bp, include_residue=not args.no_residue)
        if not math.isfinite(v.total):
            print(f"rsheat ktheta: total overflows at t={t:g}", file=sys.stderr)
            finite = False
        buf.write(",".join([_fmt(t), _fmt(bp.theta), _fmt(v.main_part),
                            _fmt(v.smooth_part), _fmt(v.residue_part),
                            _fmt(v.total)]) + "\n")
    _emit(args, buf.getvalue(), _meta(args, started, "ktheta"))
    return 0 if finite else _NUMERICAL_EXIT


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
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags go right after the subcommand, so that a
            # flag given on the command line comes later and wins
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_flags(args), *argv[at:]])
        return args.run(args)
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
