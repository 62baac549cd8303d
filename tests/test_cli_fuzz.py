"""CLI fuzz gate: every argv of the six one-shot commands ends with its
documented exit code and output.

Hypothesis draws argvs for ``analyze``, ``certify``, ``modulus``,
``worst-sum``, ``check-lemma1`` and ``check-glue``: every function kind,
malformed specs, extreme and subnormal coefficients, knots and window
ends, infinite and open ends, odd table files, and options at and past
their bounds, with grids of at most 401 points: over 9000 draws no
example took 0.06 s on a 2-core host, so each gets a 2 s deadline.  Each argv runs
through ``report_cli.main`` in this process, and the rules are:

* the exit code is never 4 (an internal error);
* exits 2 and 5 print nothing on stdout and one ``parse error:`` or
  ``I/O error:`` line on stderr;
* ``analyze`` and ``certify`` print their JSON report on exits 0, 1 and 3,
  with stderr empty, and exit 3 names its ``certificate_error``; the
  other commands print nothing on stderr on exits 0 and 1;
* no output holds ``Traceback`` or ``Warning``, and no warning is issued;
* every exit-0 certificate of a ``pwl`` (``table@`` included) or ``sqrt``
  function is proved in rationals, independently of the program's Phi:
  Phi(delta_1) < epsilon on the report's window.
"""

import contextlib
import io
import json
import warnings
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from contana.report_cli import (
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNACHIEVABLE,
    EXIT_VIOLATED,
    main,
)
from rational import rational_phi

#: good tables and their knots; TABLES adds the odd ones
GOOD_TABLES = {
    "plain.csv": ("0,0\n0.3,0.6\n0.7,0.2\n1,0.5\n",
                  [(0, 0), (0.3, 0.6), (0.7, 0.2), (1, 0.5)]),
    "header.csv": ("x,y\n0,0\n1,1\n", [(0, 0), (1, 1)]),
    "crlf.csv": ("0,0\r\n0.5,1\r\n1,0\r\n", [(0, 0), (0.5, 1), (1, 0)]),
    "quoted.csv": ('"x","y"\n0,0\n1,2\n', [(0, 0), (1, 2)]),
    "subnormal.csv": ("0,0\n1e-310,1\n", [(0, 0), (1e-310, 1)]),
    "huge.csv": ("0,0\n1,1e308\n2,-1e308\n",
                 [(0, 0), (1, 1e308), (2, -1e308)]),
    "packed.csv.gz": ("0,0\n1,1\n", [(0, 0), (1, 1)]),
}
TABLES = {name: text for name, (text, _) in GOOD_TABLES.items()} | {
    "nan.csv": "x,y\n0,0\n1,nan\n2,1\n",
    "repeated.csv": "0,0\n1,1\n1,2\n",
    "empty.csv": "",
    "one.csv": "0,0\n",
    "words.csv": "a,b\nc,d\n",
    "short.csv": "0,0\n1\n",
    "binary.csv": "\udcff\udcfe\x00,1\n",
}
#: names of table@ paths under the tables directory: the files, the
#: directory itself and a missing file (both I/O errors)
TABLE_NAMES = sorted(TABLES) + [".", "missing.csv"]

NUMBERS = ["0", "1", "-1", "0.5", "0.3", "2", "-2.5", "10", "1e-310",
           "5e-324", "-5e-324", "1e-198", "1e-13", "1e15", "1e17", "1e150",
           "-1e150", "1e300", "1.7e308", "1e308", "-1e308"]


@st.composite
def mostly(draw, good, bad, odds=9):
    """A draw of good, except one time in odds + 1 a draw of bad."""
    return draw(bad if draw(st.integers(0, odds)) == odds else good)


def numbers():
    return st.one_of(st.sampled_from(NUMBERS), st.floats(-1e3, 1e3).map(repr))


def bad_numbers():
    return st.sampled_from(["", "nan", "inf", "-inf", "1e999", "x", "1,2"])


def positives():
    """Options that must be positive and finite: values near, at and past
    their bounds."""
    return mostly(
        st.one_of(st.floats(1e-6, 10).map(repr), st.sampled_from(
            ["0.1", "0.5", "1", "0.25", "0.05", "1e-3", "3", "1e-160",
             "1e-250", "1e-309", "1e-311", "5e-324", "1e300", "1.7e308"])),
        st.sampled_from(["0", "-1", "-0.0", "nan", "inf", "x", ""]))


def grids(low):
    """--grid: low to 401 points, and values below low."""
    return mostly(st.integers(low, 401).map(str),
                  st.sampled_from([str(low - 1), "0", "-3", "2.5", "x"]))


@st.composite
def pwl_specs(draw):
    n = draw(st.integers(2, 6))
    xs = draw(st.one_of(
        st.lists(st.sampled_from(["0", "0.1", "0.3", "0.5", "0.7", "1"]),
                 min_size=n, max_size=n, unique=True).map(
            lambda xs: sorted(xs, key=float)),
        mostly(st.lists(numbers(), min_size=n, max_size=n, unique_by=float)
               .map(lambda xs: sorted(xs, key=float)),
               st.lists(numbers(), min_size=n, max_size=n))))
    ys = draw(st.lists(mostly(numbers(), bad_numbers(), 29),
                       min_size=n, max_size=n))
    return "pwl:" + ",".join(f"{x}:{y}" for x, y in zip(xs, ys))


def specs():
    coefficient = mostly(numbers(), bad_numbers(), 29)
    return mostly(
        st.one_of(
            st.sampled_from(["sqrt", "x2sininv", "cantor"]),
            st.lists(coefficient, min_size=1, max_size=4).map(
                lambda cs: "poly:" + ",".join(cs)),
            st.tuples(coefficient, coefficient).map(
                lambda ab: "affine:" + ",".join(ab)),
            pwl_specs(),
            st.sampled_from(TABLE_NAMES).map(
                lambda name: "table@{tables}/" + name)),
        st.sampled_from(["", " ", "poly:", "affine:1", "pwl:0:0", "pwl:0",
                         "pwl:0:0,0:1", "pwl:1:0,0:1", "foo", "table@",
                         "poly:1,,x", "SQRT"]))


def intervals():
    ends = st.one_of(numbers(), st.sampled_from(["inf", "-inf"]))
    random = st.tuples(st.sampled_from("[("), st.lists(
        ends, min_size=2, max_size=2, unique_by=float).map(
            lambda e: sorted(e, key=float)),
        st.sampled_from("])")).map(lambda t: f"{t[0]}{','.join(t[1])}{t[2]}")
    return mostly(
        st.one_of(
            st.sampled_from(["[0,1]", "[-1,1]", "(0,1]", "[0,inf)",
                             "(-inf,inf)", "[1e17,inf)", "[0.05,1]", "[0,5]",
                             "[-1e308,1e308]", "[1000,1000.001]", "(0,1e-13)",
                             "[1e300,inf)", "[0,1e-198]"]),
            # subnormal grid steps
            st.sampled_from(["[0,1e-310]", "[-1e-310,1e-310]", "(0,1e-309]",
                             "[0,5e-324]", "[1e-320,1e-310]", "[0,1e-308]"]),
            random),
        st.sampled_from(["[0,1", "0,1", "[1,0]", "[0,0]", "[nan,1]", ""]))


def pairs():
    """--pairs: sorted ends in [0, 1] or anywhere, paired in order, and
    malformed lists."""
    def paired(ends):
        ends = sorted(ends, key=float)
        return ",".join(f"{x}:{y}" for x, y in zip(ends[::2], ends[1::2]))
    ends = st.one_of(
        st.lists(st.sampled_from(["0", "0.1", "0.2", "0.3", "0.45", "0.5",
                                  "0.7", "0.9", "1"]),
                 min_size=2, max_size=6, unique=True),
        st.lists(numbers(), min_size=2, max_size=6, unique_by=float))
    return mostly(ends.map(paired),
                  st.sampled_from(["", "0", "0:1:2", "x:1", "0:nan",
                                   "0.5:0.1", "0:0.5,0.4:0.6"]))


def options(draw, name, values, required=True):
    """[name, value], or nothing: one time in 20 for a required option,
    one in 3 for an optional one."""
    last = 19 if required else 2
    if draw(st.integers(0, last)) == last:
        return []
    return [name, draw(values)]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["analyze", "certify", "modulus",
                                    "worst-sum", "check-lemma1",
                                    "check-glue"]))
    argv = [command, "--fn", draw(specs()), "--interval", draw(intervals())]
    if command == "analyze":
        argv += options(draw, "--epsilon", positives(), required=False)
        argv += options(draw, "--seed", mostly(
            st.sampled_from(["0", "7"]), st.sampled_from(["-1", "1.5"])),
            required=False)
        argv += options(draw, "--json", mostly(
            st.just("{tables}/report.json"),
            st.just("{tables}/missing/report.json")), required=False)
    elif command == "certify":
        argv += options(draw, "--epsilon", positives())
    elif command == "modulus":
        argv += options(draw, "--deltas", st.one_of(
            st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4,
                     unique=True).map(lambda ds: ",".join(map(repr, sorted(ds)))),
            st.lists(positives(), min_size=1, max_size=4).map(",".join)))
    elif command == "worst-sum":
        argv += options(draw, "--delta", positives())
        argv += options(draw, "--max-intervals", mostly(
            st.sampled_from(["1", "2", "32"]),
            st.sampled_from(["0", "-1", "x"])), required=False)
    elif command == "check-lemma1":
        argv += options(draw, "--sigma", positives())
    else:
        argv += options(draw, "--pairs", pairs())
    low = 2 if command in ("modulus", "worst-sum") else 3
    return argv + ["--grid", draw(grids(low))]


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tables")
    for name, text in TABLES.items():
        (directory / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    return directory


def run(argv):
    """(exit code, stdout, stderr, warnings issued) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as issued, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), issued


def sqrt_phi_below(lo, hi, d, epsilon):
    """Whether sqrt(lo + d) - sqrt(lo) < epsilon, with d capped at the
    window, in rationals: d - epsilon**2 < 2 epsilon sqrt(lo)."""
    t = min(d, hi - lo) - epsilon * epsilon
    return t < 0 or t * t < 4 * epsilon * epsilon * lo


def knots_of(fn):
    """The knots of a pwl or table@ spec, as rationals."""
    if fn.startswith("pwl:"):
        rows = [pair.split(":") for pair in fn[len("pwl:"):].split(",")]
    else:  # only a good table gives a certificate
        rows = GOOD_TABLES[fn.rsplit("/", 1)[1]][1]
    return [(Fraction(float(x)), Fraction(float(y))) for x, y in rows]


def assert_proved(fn, report):
    """An exit-0 certificate of a pwl or sqrt function: Phi(delta_1) <
    epsilon by the rational reference."""
    cert = report["certificate"]
    if cert is None or not (fn == "sqrt" or fn.startswith(("pwl:", "table@"))):
        return
    lo, hi = (Fraction(float(e)) for e in report["window"][1:-1].split(","))
    delta1, epsilon = Fraction(cert["delta1"]), Fraction(cert["epsilon"])
    if fn == "sqrt":
        assert sqrt_phi_below(lo, hi, delta1, epsilon), report
    else:
        assert rational_phi(knots_of(fn), lo, hi, delta1) < epsilon, report


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(argv=argvs())
# the two faults that random argvs found before this gate, both mended
@example(argv=["worst-sum", "--fn", "sqrt", "--interval", "[0,1e-310]",
               "--delta", "1", "--grid", "101"])
@example(argv=["certify", "--fn", "affine:2.5,0.5", "--interval",
               "[-1e308,1e308]", "--epsilon", "0.1", "--grid", "11"])
def test_every_argv_ends_in_its_documented_exit(tables, argv):
    argv = [arg.replace("{tables}", str(tables)) for arg in argv]
    code, out, err, issued = run(argv)
    assert code != EXIT_INTERNAL, (argv, err)
    assert "Traceback" not in out + err and "Warning" not in out + err
    assert issued == []
    if code in (EXIT_PARSE, EXIT_IO):
        prefix = "parse error: " if code == EXIT_PARSE else "I/O error: "
        assert out == ""
        assert err.startswith(prefix) and err.count("\n") == 1, (argv, err)
        return
    assert code in (EXIT_OK, EXIT_VIOLATED, EXIT_UNACHIEVABLE), (argv, code)
    assert err == ""
    if argv[0] not in ("analyze", "certify"):
        assert code != EXIT_UNACHIEVABLE and out.endswith("\n"), (argv, out)
        return
    if "--json" in argv:
        assert out == ""
        with open(argv[argv.index("--json") + 1]) as fh:
            out = fh.read()
    report = json.loads(out)
    assert (report["certificate_error"] is not None) == (
        code == EXIT_UNACHIEVABLE), (argv, report)
    if code == EXIT_OK:
        assert_proved(argv[2], report)
