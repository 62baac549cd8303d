"""Seeded job generation for the contana benchmark.

Each workload is a fixed list of job templates, one "round".  The seed moves
parameters inside every template (endpoints, coefficients, knots, budgets and
the analysis seed) within ranges chosen so that every seed takes the same code
path at the same grid sizes: the certificate refinement stops at the same
level for every seed, and worst-sum state spaces stay within a small factor.
The program sees only the generated argv; a run repeats the round, and
the first job of the round doubles as the untimed warm-up job.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: directory, relative to the checkout root, for files the jobs read
OUT_DIR = ".bench_out"

WORKLOADS = ("certify", "reject", "worstsum")

#: modulus queries straddle the program's 20000-point path switch
MODULUS_GRIDS = (20000, 20001)
MODULUS_DELTAS = 33

SINE_KNOTS = 20001

#: (grid points, budget as a share of the span, --max-intervals): budgets
#: run from 0.01 to 0.3 of the span and the seed moves each by up to 10%;
#: 3 * m * units * intervals stays below 1e8 states
WORSTSUM_SHAPES = (
    (1025, 0.27, 32),
    (1025, 0.012, 4),
    (2001, 0.075, 8),
    (2001, 0.2, 4),
    (4001, 0.02, 32),
    (4001, 0.075, 8),
    (8193, 0.012, 32),
    (8193, 0.035, 4),
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``template`` names the template it came from."""

    template: str
    argv: tuple

    @property
    def command(self) -> str:
        return self.argv[0]

    def opt(self, name: str) -> str:
        """Value of ``--name`` in the argv."""
        i = self.argv.index("--" + name)
        return self.argv[i + 1]


def generate(workload: str, seed: int):
    """Return (jobs of one round, {relative path: file text}) for a seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"contana-bench:{workload}:{seed}")
    return _GENERATORS[workload](rng, seed)


def _num(x: float) -> str:
    return f"{x:.6f}"


def _analyze(template, fn, interval, rng, epsilon=None, grid=None) -> Job:
    argv = ["analyze", "--fn", fn, "--interval", interval]
    if epsilon is not None:
        argv += ["--epsilon", repr(epsilon)]
    if grid is not None:
        argv += ["--grid", str(grid)]
    argv += ["--seed", str(rng.randrange(2**31))]
    return Job(template, tuple(argv))


def _zigzag(rng) -> str:
    x1 = 0.3 + rng.uniform(-0.03, 0.03)
    x2 = 0.7 + rng.uniform(-0.03, 0.03)
    y1 = 0.6 + rng.uniform(-0.05, 0.05)
    y2 = 0.2 + rng.uniform(-0.05, 0.05)
    y3 = 0.5 + rng.uniform(-0.05, 0.05)
    return f"pwl:0:0,{_num(x1)}:{_num(y1)},{_num(x2)}:{_num(y2)},1:{_num(y3)}"


def _sine_csv(amplitude: float) -> str:
    """Two-column table of amplitude*sin on [0, 2*pi] at SINE_KNOTS knots."""
    hi = 2.0 * math.pi
    xs = [i * hi / (SINE_KNOTS - 1) for i in range(SINE_KNOTS - 1)]
    xs.append(hi)
    rows = ["x,y"] + [f"{x!r},{amplitude * math.sin(x)!r}" for x in xs]
    return "\n".join(rows) + "\n"


def _certify(rng, seed):
    # the cheap x^2 job comes first because it is the warm-up job; sqrt
    # endpoints stay in [0.85, 1.15] so the refinement ends at the same
    # grid level at every epsilon (16001, 256001 and 4096001 points)
    jobs = []
    jobs.append(_analyze("xsquared", f"poly:0,0,{_num(rng.uniform(0.95, 1.15))}",
                         f"[0,{_num(rng.uniform(9.8, 10.5))}]", rng,
                         epsilon=0.4))
    slope, icpt = rng.uniform(2.5, 3.5), rng.uniform(-1.0, 1.0)
    jobs.append(_analyze("affine", f"affine:{_num(slope)},{_num(icpt)}",
                         f"[0,{_num(rng.uniform(4.5, 5.5))}]", rng,
                         epsilon=0.1))
    jobs.append(_analyze("xcubed", f"poly:0,0,0,{_num(rng.uniform(0.9, 1.1))}",
                         f"[-{_num(rng.uniform(0.9, 1.1))},"
                         f"{_num(rng.uniform(0.9, 1.1))}]", rng, epsilon=0.1))
    jobs.append(_analyze("zigzag", _zigzag(rng), "[0,1]", rng, epsilon=0.1))
    path = f"{OUT_DIR}/sine-{seed}.csv"
    files = {path: _sine_csv(rng.uniform(0.9, 1.1))}
    jobs.append(_analyze("sine-table", f"table@{path}",
                         f"[0,{2.0 * math.pi!r}]", rng, epsilon=0.4))
    for eps in (0.4, 0.1, 0.02):
        b = rng.uniform(0.85, 1.15)
        jobs.append(_analyze(f"sqrt-eps{eps}", "sqrt", f"[0,{_num(b)}]", rng,
                             epsilon=eps))
    return jobs, files


def _deltas(rng, span: float, m: int) -> str:
    lo = 2.0 * span / (m - 1) * rng.uniform(1.0, 1.5)
    hi = span * rng.uniform(0.3, 0.5)
    ratio = (hi / lo) ** (1.0 / (MODULUS_DELTAS - 1))
    return ",".join(repr(lo * ratio**i) for i in range(MODULUS_DELTAS))


def _reject(rng, seed):
    # two variants of each template per round
    jobs = []
    for _ in range(2):
        for grid in (4001, 25001):
            jobs.append(_analyze(f"x2sininv-grid{grid}", "x2sininv",
                                 f"[0,{_num(rng.uniform(0.85, 1.0))}]", rng,
                                 grid=grid))
            jobs.append(_analyze(f"cantor-grid{grid}", "cantor",
                                 f"[{_num(rng.uniform(0.0, 0.1))},1]", rng,
                                 grid=grid))
        for grid in MODULUS_GRIDS:
            b = rng.uniform(0.85, 1.0)
            a = rng.uniform(0.0, 0.1)
            for name, fn, lo, hi in (("sqrt", "sqrt", 0.0, b),
                                     ("x2sininv", "x2sininv", 0.0, b),
                                     ("cantor", "cantor", a, 1.0),
                                     ("zigzag", _zigzag(rng), 0.0, 1.0)):
                interval = f"[{_num(lo)},{_num(hi)}]"
                span = float(_num(hi)) - float(_num(lo))
                jobs.append(Job(f"modulus-{name}-grid{grid}",
                                ("modulus", "--fn", fn, "--interval", interval,
                                 "--grid", str(grid),
                                 "--deltas", _deltas(rng, span, grid))))
    return jobs, {}


def _worstsum(rng, seed):
    # delta is a whole number of grid steps, (units + 1) * h, so the largest
    # grid-aligned total length below delta is exactly units * h
    fns = (("sqrt", "sqrt", 0.0, 1.0),
           ("xcubed", "poly:0,0,0,1", -1.0, 1.0),
           ("zigzag", _zigzag(rng), 0.0, 1.0),
           ("cantor", "cantor", 0.0, 1.0),
           ("x2sininv", "x2sininv", 0.0, 1.0))
    jobs = []
    for name, fn, lo, hi in fns:
        for m, share, kmax in WORSTSUM_SHAPES:
            h = (hi - lo) / (m - 1)
            units = round(share * rng.uniform(0.9, 1.1) * (m - 1)) - 1
            jobs.append(Job(f"worstsum-{name}-m{m}-k{kmax}",
                            ("worst-sum", "--fn", fn,
                             "--interval", f"[{lo!r},{hi!r}]",
                             "--grid", str(m), "--delta", repr((units + 1) * h),
                             "--max-intervals", str(kmax))))
    return jobs, {}


_GENERATORS = {"certify": _certify, "reject": _reject, "worstsum": _worstsum}
