"""Command-line front door: analysis reports, curves and the demo suite.

Reports are deterministic: every number they contain can be recomputed
from the function, the window and the embedded settings, floats are
serialized with full round-trip precision, and files are written
atomically.

Exit codes: 0 success, 1 property violated or certificate refused or not
proved, 2 parse error, 3 unachievable certificate, 4 internal error, 5 I/O
error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
import tempfile
import traceback
from dataclasses import dataclass

from . import catalog, suite_checks
from .convexity import (
    DEFAULT_MAX_PIECES,
    GSIGMA_SAMPLES,
    check_gsigma_monotone,
    gsigma_curve,
    monotone_partition,
)
from .continuity import (
    DEFAULT_MAX_INTERVALS,
    ac_certificate,
    gluing_bound_check,
    modulus_on_grid,
    split_collection_at_partition,
    verify_certificate,
    worst_ac_sum_oracle,
)
from .errors import (
    BudgetError,
    ContanaError,
    DomainError,
    GeometryError,
    InsufficientData,
    KindError,
    ParseError,
    Unachievable,
)
from .function_model import (
    CANTOR_DEPTH,
    IntervalCollection,
    clip_window,
    exact_phi,
    parse_function,
    parse_interval,
    parse_pairs,
    sample,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_PARSE = 2
EXIT_UNACHIEVABLE = 3
EXIT_INTERNAL = 4
EXIT_IO = 5

SCHEMA_VERSION = 5

#: deltas per tabulated modulus curve
MODULUS_POINTS = 33

#: points of ``analyze``'s worst-sum search grid
ORACLE_POINTS = 2001


@dataclass(frozen=True)
class AnalysisSettings:
    epsilon: float = 0.1
    grid_m: int = 4001


# ---------------------------------------------------------------------------
# Analysis pipeline
# ---------------------------------------------------------------------------

def analyze(fn_text: str, interval_text: str,
            settings: AnalysisSettings = AnalysisSettings()) -> dict:
    """Full pipeline: clip, detect, refine, certify, verify; returns a report.

    Detection and its verdict are ``monotone_partition``'s, at base
    resolution ``settings.grid_m``.  The report is ``_verdict``'s, with
    three tables added, and their two sizes under ``settings``: the modulus
    curve of the base grid, the increment-curve check of each piece
    (``gsigma``) and ``worst_sums``.
    ``worst_sums`` is a worst-sum search at budget span/20 on an
    ORACLE_POINTS grid, sampled and run only where no certificate exists;
    a certificate's worst collection is Phi's witness, in ``verification``.
    """
    window = parse_interval(interval_text)
    f = parse_function(fn_text, window)  # its domain lies in the window
    result = monotone_partition(f, settings.grid_m)  # checks its own grids
    report = _verdict(fn_text, f, result, settings)
    report["settings"].update(gsigma_samples=GSIGMA_SAMPLES,
                              modulus_points=MODULUS_POINTS)

    base_grid = result.grids[0]
    report["modulus"] = [[d, w] for d, w in _modulus_curve(base_grid)]
    report["gsigma"] = []
    for i, piece in enumerate(result.pieces):  # empty unless stable
        sigma = (piece.interval.hi - piece.interval.lo) / 4.0
        rep = check_gsigma_monotone(f, piece, sigma)
        report["gsigma"].append({
            "piece": i,
            "sigma": sigma,
            "direction": rep.direction.value,
            "max_violation": rep.max_violation,
            "ok": rep.ok,
        })
    report["worst_sums"] = []
    if report["certificate"] is None:
        oracle_grid = sample(f, f.domain, ORACLE_POINTS)  # clipped by sample
        rep = worst_ac_sum_oracle(oracle_grid, base_grid.span / 20.0)
        report["worst_sums"].append({
            "delta": float(rep.delta),
            "best_sum": rep.best_sum,
            "method": rep.method,
            "grid_spacing": rep.grid_spacing,
            "witness_intervals": len(rep.witness),
            "witness_total_length": float(rep.witness.total_length),
        })
    return report


def _verdict(fn_text: str, f, result, settings: AnalysisSettings) -> dict:
    """The report of f without its tables, from ``monotone_partition``'s
    result: detection, the partition and its pieces, the certificate and
    its verification, and the verdicts.

    ``certify`` prints it as it is and ``analyze`` adds its tables.  It is
    the one place that builds and verifies a certificate: where the
    partition is stable, ``ac_certificate`` gives the certificate, or an
    Unachievable whose message becomes ``certificate_error``, and
    ``verify_certificate`` checks it with one Phi.  ``delta1_opt`` is the
    largest budget that Phi proves on the certificate's window (None where
    Phi is unknown).
    """
    report = {
        "schema": SCHEMA_VERSION,
        "tool": "contana",
        "function": fn_text.strip(),
        "window": str(clip_window(f.domain)),
        "settings": {
            "epsilon": settings.epsilon,
            "grid": settings.grid_m,
            "max_pieces": DEFAULT_MAX_PIECES,
            "cantor_depth": CANTOR_DEPTH,
        },
        "detection": {
            "resolutions": [len(grid) for grid in result.grids],
            "sign_change_counts": result.sign_change_counts,
        },
        "partition": None,
        "pieces": [],
        "certificate": None,
        "certificate_error": None,
        "verification": None,
    }
    verification = None
    if result.stable:
        report["partition"] = list(result.partition.points)
        report["pieces"] = [
            {"interval": [p.interval.lo, p.interval.hi],
             "shape": p.shape.value,
             "monotonicity": p.monotonicity.value,
             "tolerance": p.tolerance}
            for p in result.pieces
        ]
        try:
            cert = ac_certificate(f, result.partition, settings.epsilon)
        except Unachievable as exc:
            report["certificate_error"] = str(exc)
        else:
            verification = verify_certificate(f, cert)
            report["certificate"] = {
                "epsilon": cert.epsilon,
                "delta1": cert.delta1,
                "delta1_opt": verification.delta1_opt,
                "per_piece_budget": cert.per_piece_budget,
            }
            report["verification"] = {
                "passed": verification.passed,
                "method": verification.method,
                "sup": verification.sup,
                "worst_sum": verification.worst_sum,
                "worst_collection": [[float(x), float(y)] for x, y in
                                     verification.worst_collection.pairs],
            }
    report["verdicts"] = {
        "piecewise_convex": result.stable,
        # every kind is continuous and every window compact (clip_window),
        # so Heine-Cantor proves it for every input analyze accepts
        "uniformly_continuous": True,
        "uniformly_continuous_reason": "continuous on a compact window",
        "certificate_verified": (
            "n/a" if verification is None
            else "undecided" if verification.passed is None
            else verification.passed),
    }
    return report


def _exit_code(report: dict) -> int:
    """3 for an unachievable certificate, 1 for one that Phi refused or
    could not decide, else 0."""
    if report["certificate_error"]:
        return EXIT_UNACHIEVABLE
    verification = report["verification"]
    if verification is not None and verification["passed"] is not True:
        return EXIT_VIOLATED
    return EXIT_OK


def _modulus_curve(grid):
    """The modulus on MODULUS_POINTS geometric deltas (duplicates dropped)
    from two grid steps (``SampleGrid.step``), or the span if shorter, up
    to the span."""
    hi = grid.span
    lo = min(2.0 * grid.step, hi)  # the span at m = 3: one delta
    ratio = (hi / lo) ** (1.0 / (MODULUS_POINTS - 1))
    ladder = [lo * ratio ** i for i in range(MODULUS_POINTS - 1)] + [hi]
    return modulus_on_grid(grid, sorted(set(ladder)))


def _gsigma_table(f, lo: float, hi: float, sigma: float):
    return list(zip(*gsigma_curve(f, lo, hi, sigma)))


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _dump_json(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _dump_csv(header: str, rows) -> bytes:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(cell)) for cell in row))
    return ("\n".join(lines) + "\n").encode()


@contextlib.contextmanager
def _temp_beside(path: str):
    """(fd, name) of a new temporary file in path's directory, removed if
    the block fails; an OSError names path, not the temporary file."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=".contana-")
        try:
            yield fd, tmp
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _atomic_write(path: str, data: bytes) -> None:
    """Write data to path through a temporary file beside it."""
    with _temp_beside(path) as (fd, tmp):
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)


def _probe(path: str) -> None:
    """Check, before any work, that ``_atomic_write`` can make its
    temporary file for path; the directory is not created."""
    with _temp_beside(path) as (fd, tmp):
        os.close(fd)
        os.unlink(tmp)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    # --seed is accepted and checked, but no number depends on it
    settings = AnalysisSettings(epsilon=args.epsilon, grid_m=args.grid)
    if args.json:
        _probe(args.json)  # an unwritable --json fails before any work
    report = analyze(args.fn, args.interval, settings)
    payload = _dump_json(report)
    if args.json:
        _atomic_write(args.json, payload)
    else:
        sys.stdout.write(payload.decode())
    return _exit_code(report)


def cmd_modulus(args) -> int:
    f = parse_function(args.fn, parse_interval(args.interval))
    grid = sample(f, f.domain, args.grid)
    curve = modulus_on_grid(grid, args.deltas)
    sys.stdout.write(_dump_csv("delta,omega", curve).decode())
    return EXIT_OK


def cmd_worst_sum(args) -> int:
    f = parse_function(args.fn, parse_interval(args.interval))
    grid = sample(f, f.domain, args.grid)
    try:
        rep = worst_ac_sum_oracle(grid, args.delta, args.max_intervals)
    except BudgetError as exc:  # name Phi(delta), which bounds every answer
        xs = grid.abscissae
        phi = exact_phi(f, float(xs[0]), float(xs[-1]))
        sup = None if phi is None else phi.sup(args.delta)
        if sup is None:
            raise
        raise BudgetError(f"{exc}; Phi(delta) <= "
                          f"{sup.value + sup.rounding!r}") from None
    payload = {
        "delta": float(rep.delta),
        "best_sum": rep.best_sum,
        "step_bound": rep.step_bound,
        "method": rep.method,
        "grid_spacing": rep.grid_spacing,
        "witness": [[float(x), float(y)] for x, y in rep.witness.pairs],
        "witness_total_length": float(rep.witness.total_length),
    }
    sys.stdout.write(_dump_json(payload).decode())
    return EXIT_OK


def cmd_check_lemma1(args) -> int:
    f = parse_function(args.fn, parse_interval(args.interval))
    result = monotone_partition(f, args.grid)
    if not result.stable:
        return _not_piecewise_convex(result)
    longest = max(p.interval.hi - p.interval.lo for p in result.pieces)
    if args.sigma >= longest:
        raise ParseError(f"--sigma must be below the longest monotone piece "
                         f"length {longest!r}, got {args.sigma!r}")
    violated = False
    for piece in result.pieces:
        plen = piece.interval.hi - piece.interval.lo
        if plen <= args.sigma:
            sys.stdout.write(
                f"piece {piece.interval}: skipped (length <= sigma)\n")
            continue
        rep = check_gsigma_monotone(f, piece, args.sigma)
        violated = violated or not rep.ok
        sys.stdout.write(
            f"piece {piece.interval} [{piece.monotonicity.value} "
            f"{piece.shape.value}]: direction={rep.direction.value} "
            f"max_violation={rep.max_violation!r} "
            f"{'OK' if rep.ok else 'VIOLATED'}\n")
    return EXIT_VIOLATED if violated else EXIT_OK


def cmd_check_glue(args) -> int:
    f = parse_function(args.fn, parse_interval(args.interval))
    try:
        c = IntervalCollection(tuple(parse_pairs(args.pairs)))
    except GeometryError as exc:
        raise ParseError(str(exc)) from exc
    window = clip_window(f.domain)  # the window the pieces tile
    if not (window.contains(c.pairs[0][0])
            and window.contains(c.pairs[-1][1])):
        raise ParseError(f"pairs must lie inside the window {window}")
    result = monotone_partition(f, args.grid)
    if not result.stable:
        return _not_piecewise_convex(result)
    split = split_collection_at_partition(c, result.partition)
    violated = False
    for piece in result.pieces:
        lo, hi = piece.interval.lo, piece.interval.hi
        held = tuple((x, y) for x, y in split.pairs if lo <= x and y <= hi)
        if not held:
            continue
        chk = gluing_bound_check(f, piece, IntervalCollection(held))
        violated = violated or not chk.holds
        sys.stdout.write(
            f"piece {piece.interval}: lhs={chk.lhs!r} rhs={chk.rhs!r} "
            f"direction={chk.direction_used.value} "
            f"{'HOLDS' if chk.holds else 'VIOLATED'}\n")
    return EXIT_VIOLATED if violated else EXIT_OK


def cmd_certify(args) -> int:
    f = parse_function(args.fn, parse_interval(args.interval))
    result = monotone_partition(f, args.grid)
    report = _verdict(args.fn, f, result,
                      AnalysisSettings(epsilon=args.epsilon, grid_m=args.grid))
    sys.stdout.write(_dump_json(report).decode())
    # with no stable partition there is no certificate to print: exit 1
    return _exit_code(report) if result.stable else EXIT_VIOLATED


_SUITE_ENTRIES = (
    ("sqrt", "sqrt", "[0,1]", 0.1),
    ("affine", "affine:3,1", "[0,5]", 0.1),
    ("xsquared", "poly:0,0,1", "[0,10]", 0.4),
    ("xcubed", "poly:0,0,0,1", "[-1,1]", 0.1),
    ("zigzag", "pwl:0:0,0.3:0.6,0.7:0.2,1:0.5", "[0,1]", 0.1),
    ("x2sininv", "x2sininv", "[0,1]", 0.1),
    ("cantor", "cantor", "[0,1]", 0.5),
)


def cmd_suite(args) -> int:
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    # an unwritable --out fails before any work
    _probe(os.path.join(out_dir, "criteria.json"))
    outputs = []  # (filename, bytes)

    for name, fn_text, interval_text, epsilon in _SUITE_ENTRIES:
        report = analyze(fn_text, interval_text,
                         AnalysisSettings(epsilon=epsilon))
        outputs.append((f"{name}.json", _dump_json(report)))
        f = parse_function(fn_text, parse_interval(interval_text))
        window = clip_window(f.domain)
        sigma = (window.hi - window.lo) / 2.0
        outputs.append((f"gsigma_{name}.csv",
                        _dump_csv("x,g_sigma",
                                  _gsigma_table(f, window.lo, window.hi,
                                                sigma))))

    sine = catalog.sine_table()  # its domain is its knots' span, [0, 2 pi]
    sine_curve = _modulus_curve(sample(sine, sine.domain,
                                        AnalysisSettings().grid_m))
    outputs.append(("modulus_sine.csv",
                    _dump_csv("delta,omega", sine_curve)))
    outputs.append(("gsigma_sine.csv",
                    _dump_csv("x,g_sigma",
                              _gsigma_table(sine, 0.0, 2.0 * math.pi,
                                            math.pi))))

    results, all_passed = suite_checks.run_all()
    criteria_payload = {
        "schema": SCHEMA_VERSION,
        "all_passed": all_passed,
        "criteria": [{"id": r.ident, "name": r.name, "passed": r.passed,
                      "details": r.details} for r in results],
    }
    outputs.append(("criteria.json", _dump_json(criteria_payload)))

    written = []
    try:
        for filename, data in outputs:
            path = os.path.join(out_dir, filename)
            _atomic_write(path, data)
            written.append(path)
    except OSError:  # main reports it; no half-written suite is left
        for path in written:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise

    for r in results:
        sys.stdout.write(
            f"criterion {r.ident} ({r.name}): "
            f"{'PASS' if r.passed else 'FAIL'}\n")
    sys.stdout.write(f"suite: {'PASS' if all_passed else 'FAIL'} "
                     f"({len(outputs)} files in {out_dir})\n")
    return EXIT_OK if all_passed else EXIT_VIOLATED


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------

def _not_piecewise_convex(result) -> int:
    counts = " -> ".join(str(c) for c in result.sign_change_counts)
    sys.stdout.write("not piecewise convex at this resolution "
                     f"(sign changes {counts})\n")
    return EXIT_VIOLATED


def _checked(name: str, convert, rule: str, ok):
    """argparse type for option ``name``: convert, then require ok(value).

    It raises ParseError, which argparse passes through to main's handler,
    so bad input ends with one ``parse error:`` line and exit code 2.
    """
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError as exc:
            raise ParseError(f"bad {name} {text!r}") from exc
        if not ok(value):
            raise ParseError(f"{name} must be {rule}, got {text!r}")
        return value
    return parse


def _positive(name: str):
    return _checked(name, float, "positive and finite",
                    lambda v: 0 < v < math.inf)


def _at_least(name: str, low: int):
    return _checked(name, int, f"at least {low}", lambda v: v >= low)


#: a value that starts with "-" and a digit or "."; argparse reads one that
#: is not a plain negative number (say, ``-0.5:-0.4``) as an option
_DASHED_VALUE = re.compile(r"-[\d.]")


class _Parser(argparse.ArgumentParser):
    """argparse with one-line errors and values that may start with "-".

    Its errors raise ParseError, so that main reports them like every other
    bad input.  A value that starts with "-" and a digit or "." is joined to
    the option before it (``--pairs -0.5:-0.4`` becomes
    ``--pairs=-0.5:-0.4``), which argparse reads as that option's value.
    """

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            last = joined[-1] if joined else ""
            if (last.startswith("--") and "=" not in last
                    and _DASHED_VALUE.match(arg)):
                joined[-1] = f"{last}={arg}"
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once and reused: parsing leaves no state in
    it, and building its seven subparsers costs more than a short
    command's own work."""
    parser = _Parser(
        prog="contana",
        description="Continuity analysis: convexity partitions, modulus "
                    "curves, worst-sum search and certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = AnalysisSettings()

    def add_common(p):
        p.add_argument("--fn", required=True, help="function spec string")
        p.add_argument("--interval", required=True, help="interval, e.g. [0,1]")

    def add_grid(p, low=3, default=defaults.grid_m):  # 3: detection's floor
        p.add_argument("--grid", type=_at_least("--grid", low), default=default)

    p = sub.add_parser("analyze", help="full pipeline with JSON report")
    add_common(p)
    p.add_argument("--epsilon", type=_positive("--epsilon"),
                   default=defaults.epsilon)
    add_grid(p)
    p.add_argument("--seed", type=_at_least("--seed", 0),
                   help="accepted for compatibility; has no effect")
    p.add_argument("--json", default=None, help="write the report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("modulus", help="tabulate the modulus of continuity")
    add_common(p)
    p.add_argument("--deltas", required=True, type=_checked(
        "--deltas", lambda text: [float(t) for t in text.split(",") if t.strip()],
        "a list of positive finite numbers",
        lambda ds: ds and all(0 < d < math.inf for d in ds)))
    add_grid(p, 2)
    p.set_defaults(func=cmd_modulus)

    p = sub.add_parser("worst-sum", help="search the worst increment sum")
    add_common(p)
    p.add_argument("--delta", type=_positive("--delta"), required=True)
    add_grid(p, 2, ORACLE_POINTS)
    p.add_argument("--max-intervals", type=_at_least("--max-intervals", 1),
                   default=DEFAULT_MAX_INTERVALS)
    p.set_defaults(func=cmd_worst_sum)

    p = sub.add_parser("check-lemma1",
                       help="certify increment-curve directions per piece")
    add_common(p)
    p.add_argument("--sigma", type=_positive("--sigma"), required=True)
    add_grid(p)
    p.set_defaults(func=cmd_check_lemma1)

    p = sub.add_parser("check-glue", help="check the gluing bound on pairs")
    add_common(p)
    p.add_argument("--pairs", required=True, help="x1:y1,x2:y2,...")
    add_grid(p)
    p.set_defaults(func=cmd_check_glue)

    p = sub.add_parser("certify", help="synthesize a certificate")
    add_common(p)
    p.add_argument("--epsilon", type=_positive("--epsilon"), required=True)
    add_grid(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("suite", help="run the demonstration suite")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, KindError, DomainError, BudgetError,
            InsufficientData) as exc:
        # bad function/interval/delta arguments, or a grid of the requested
        # size that is not uniform on the window: not an internal failure
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_IO
    except ContanaError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
