"""Every public function is reached by a command or a criterion.

The ``rsheat`` commands run in this process under ``sys.setprofile``:
``trace``, ``eigen`` and ``ktheta`` at their default grids and ``verify
--quick``, which runs every criterion.  A function in ``rsheat.__all__``
that none of them calls leaves the package, or is listed in
``NOT_REACHED`` with the reason it stays.
"""

import sys

import rsheat
from rsheat.cli import main

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

COMMANDS = (
    ["trace", "--theta", "0"],
    ["eigen", "--theta", "0", "--lambda-max", "300"],
    ["ktheta", "--theta", "0"],
    ["verify", "--quick"],
)


def test_every_public_function_is_reached_or_listed(tmp_path, capsys):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main([*argv, "--output", str(tmp_path / f"{argv[0]}.csv")])
                 for argv in COMMANDS]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0, 0, 0, 0]

    functions = {name for name in rsheat.__all__
                 if callable(getattr(rsheat, name)) and name[0].islower()}
    unreached = {name for name in functions
                 if getattr(rsheat, name).__code__ not in called}
    assert unreached == set(NOT_REACHED)
