"""Every subcommand, fed option values argparse accepts, ends in one JSON report or one typed error line.

Each case runs `cli.main` in-process, once as given and once with `--budget 10`.  No exception may escape: a run
either exits 0 with one JSON object on stdout, or exits 1 with one JSON line on stderr whose `error` names a
`QuarticError` subclass.
"""

import json

import pytest

from quartic import errors
from quartic.cli import main

FLOATS = ["nan", "inf", "-inf", "0", "-1", "1e300"]
INTS = ["0", "-1", str(2 ** 40)]
PRIMES = ["4", "1", "0", "-7", str(2 ** 40)]  # not primes, and a power of two

# a run that argparse accepts for each subcommand, and the options fuzzed in it with the values each takes
BASE = {
    "count": ["count", "--form-text", "x1^4-x2^4", "--P", "4"],
    "expsum": ["expsum", "--form-text", "x1^4+x2^4", "--q", "5"],
    "series": ["series", "--form-text", "x1^4-x2^4", "--R", "4"],
    "integral": ["integral", "--form-text", "x1^4-x2^4", "--weight", "bump", "--center", "0.5,0.5", "--R", "2"],
    "arcs": ["arcs", "--delta", "0.5", "--P", "8"],
    "poisson": ["poisson", "--form-text", "x1^3", "--weight", "bump", "--P", "8"],
    "pipeline": ["pipeline", "--form-text", "x1^4-x2^4", "--P", "4", "--R-series", "4", "--R-integral", "4"],
    "hasse": ["hasse", "--form-text", "x1^4-2*x2^4", "--p-max", "7"],
    "geometry": ["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "sing-dim", "--p", "7"],
    "verify": ["verify", "filter", "--trials", "1"],
}
FLAGS = {
    "count": {"--P": FLOATS, "--rho": FLOATS, "--center": ["", "nan,0", "1e300,0"]},
    "expsum": {"--q": INTS, "--a": INTS, "--v": ["", "0,1", "1"]},
    "series": {"--R": FLOATS},
    "integral": {"--R": FLOATS, "--rho": FLOATS, "--center": ["", "inf,0.5"]},
    "arcs": {"--delta": FLOATS, "--P": FLOATS, "--alpha": ["", "0", "-1/3", "1/0"]},
    "poisson": {"--P": FLOATS, "--z": FLOATS + ["1e308"], "--a": INTS, "--q": INTS, "--v-cut": INTS},
    "pipeline": {"--P": FLOATS, "--R-series": FLOATS, "--R-integral": FLOATS},
    "hasse": {"--p-max": INTS, "--k-max": INTS, "--seed": INTS},
    "geometry": {"--p": PRIMES},
    "verify": {"--trials": INTS[:2], "--seed": INTS},  # 2^40 trials is a valid request that runs for days
}
GEOMETRY = [  # each op with its own options, and with the ones it does not read
    ["--op", "rank-profile", "--p", "7", "--r", "-1"],
    ["--op", "rank-profile", "--p", "7", "--r", str(2 ** 40)],
    ["--op", "b-set", "--p", "7", "--s", "-1"],
    ["--op", "b-set", "--p", "4"],
    ["--op", "hyperplane", "--primes", ""],
    ["--op", "hyperplane", "--primes", "4,9"],
    ["--op", "hyperplane", "--primes", "7", "--M-max", "0"],
    ["--op", "hyperplane", "--primes", "7", "--M-max", "-1"],
    ["--op", "hyperplane", "--p", "7"],
    ["--op", "sing-dim", "--r", "2", "--primes", "5"],
    ["--op", "sing-dim", "--s", "0"],
    ["--op", "rank-profile", "--p", "7", "--M-max", "5"],
]


def _with(argv, flag, value):
    """argv with `flag` set to `value`, as one `flag=value` word, so that argparse takes "-inf" for a value."""
    if flag in argv:
        i = argv.index(flag)
        argv = argv[:i] + argv[i + 2:]
    return argv + [f"{flag}={value}"]


CASES = [_with(BASE[cmd], flag, value) for cmd, flags in FLAGS.items() for flag, values in flags.items()
         for value in values]
CASES += [BASE["geometry"][:3] + ops for ops in GEOMETRY]
CASES += [["expsum", "--form-text", "x1^4", "--q", "5", "--units", "--v", v] for v in ("1,2", "")]
CASES += [["verify", lemma, "--trials", "1"] for lemma in ("davenport", "vdc", "weyl", "deligne", "cubic-sum")]
REFUSED = [_with(BASE["expsum"], "--v", ""), BASE["expsum"] + ["--v", ""]]  # an empty --v is refused, not dropped
CASES += REFUSED[1:]


@pytest.mark.parametrize("budget", [[], ["--budget", "10"]], ids=["default-budget", "budget-10"])
@pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv) for argv in CASES])
def test_one_report_or_one_typed_error(argv, budget, capsys):
    rc = main(argv + budget)
    captured = capsys.readouterr()
    assert rc == 1 or argv not in REFUSED
    if rc == 0:
        assert captured.out.count("\n") == 1 and isinstance(json.loads(captured.out), dict)
    else:
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        error = getattr(errors, json.loads(lines[0])["error"], None)
        assert isinstance(error, type) and issubclass(error, errors.QuarticError)
