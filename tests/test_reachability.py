"""Every public function is reached by a command or a criterion, and every
option it has is set by one.

The ``rsheat`` commands run in this process under ``sys.setprofile``:
``trace``, ``eigen`` and ``ktheta`` at their default grids and ``verify
--quick``, which runs every criterion.  A public module-level function of
any ``rsheat`` module that none of them calls leaves the package, or is
listed in ``NOT_REACHED`` with the reason it stays.  Every defaulted
argument of a reached function in ``rsheat.__all__`` is set by a command,
a criterion or another ``src`` function; one that none sets becomes a
constant.  The number of settable values is pinned, so a new option is a
deliberate change of that pin.  ``ADAPTIVE_CALLERS`` lists, with a reason,
each ``src`` function whose code names the adaptive engine ``integrate``.
"""

import argparse
import importlib
import inspect
import pkgutil
import sys

import rsheat
from rsheat.cli import _build_parser, main

NOT_REACHED = {
    "signaling": "the driven solution, whose c_minus is its boundary data: "
                 "what the boundary condition means for the heat kernel",
    "extract_coeffs": "reads (c_plus, c_minus) off a solution, the pair the "
                      "boundary condition is stated in",
    "friedrichs_kernel": "the theta = pi/2 heat kernel that every trace corrects; "
                         "the trace integrates it in closed form",
    "nprime": "the boundary limit of the Friedrichs kernel, signaling's kernel",
    "friedrichs_trace": "the theta = pi/2 trace alone; full_trace takes its "
                        "value with the error estimate",
}

ADAPTIVE_CALLERS = {
    "t1_y_outer": "R's part P of criterion 4's independent nested T1 and of the "
                  "nested route's T1 part, which bench/run.py times; the 1/2 part "
                  "is J's fixed rule",
    "t2_part": "the nested route's T2 part, which bench/run.py times",
    "residue_trace_part": "the nested route's residue part, which bench/run.py times",
    "signaling": "the driven solution, listed in NOT_REACHED",
}

# settable values: defaulted arguments of the functions in rsheat.__all__,
# and the subcommands' flags (--help and --version aside); 34 in all
SETTABLE_VALUES = (8, 26)

COMMANDS = (
    ["trace", "--theta", "0"],
    ["eigen", "--theta", "0", "--lambda-max", "300"],
    ["ktheta", "--theta", "0"],
    ["verify", "--quick"],
)
# the flags that set the trace and kernel options away from their defaults
OPTION_COMMANDS = COMMANDS + (
    ["trace", "--theta", "0", "--no-residue"],
    ["ktheta", "--theta", "0", "--no-residue"],
)


def _public_functions():
    return {name: getattr(rsheat, name) for name in rsheat.__all__
            if callable(getattr(rsheat, name)) and name[0].islower()}


def _module_functions():
    """Every function defined at module level in an rsheat module, by name."""
    out = {}
    for info in pkgutil.iter_modules(rsheat.__path__):
        module = importlib.import_module(f"rsheat.{info.name}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ \
                    and not name.startswith("_"):
                assert name not in out, name
                out[name] = fn
    return out


def _names(code):
    """The global and attribute names a code object and its nested ones use."""
    out = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            out |= _names(const)
    return out


def _run_profiled(commands, profile, tmp_path, capsys):
    sys.setprofile(profile)
    try:
        codes = [main([*argv, "--output", str(tmp_path / f"{k}.csv")])
                 for k, argv in enumerate(commands)]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(commands)


def test_every_public_function_is_reached_or_listed(tmp_path, capsys):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    _run_profiled(COMMANDS, profile, tmp_path, capsys)
    unreached = {name for name, fn in _module_functions().items()
                 if fn.__code__ not in called}
    assert unreached == set(NOT_REACHED)


def test_every_option_is_set_or_listed(tmp_path, capsys):
    # by code object: argument name -> default, for each defaulted argument
    defaults = {}
    names = {}
    for name, fn in _public_functions().items():
        names[fn.__code__] = name
        defaults[fn.__code__] = {p.name: p.default
                                 for p in inspect.signature(fn).parameters.values()
                                 if p.default is not p.empty}
    reached = set()
    set_away = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in defaults:
            reached.add(frame.f_code)
            for arg_name, default in defaults[frame.f_code].items():
                if frame.f_locals[arg_name] is not default:
                    set_away.add(f"{names[frame.f_code]}.{arg_name}")

    _run_profiled(OPTION_COMMANDS, profile, tmp_path, capsys)
    options = {f"{names[code]}.{arg_name}" for code in reached for arg_name in defaults[code]}
    assert options - set_away == set()


def test_settable_values_are_pinned():
    defaulted = sum(p.default is not p.empty for fn in _public_functions().values()
                    for p in inspect.signature(fn).parameters.values())
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
                for p in sub.choices.values() for a in p._actions)
    assert (defaulted, flags) == SETTABLE_VALUES


def test_adaptive_callers_are_listed():
    callers = set()
    for info in pkgutil.iter_modules(rsheat.__path__):
        module = importlib.import_module(f"rsheat.{info.name}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ \
                    and "integrate" in _names(fn.__code__):
                callers.add(name)
    assert callers == set(ADAPTIVE_CALLERS)
