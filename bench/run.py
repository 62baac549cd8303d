"""contana benchmark: one workload as a closed loop with one client.

    python3 bench/run.py --workload {certify,reject,worstsum} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The seed generates one round of jobs (see ``jobs.py``).  Each job
calls the CLI entry point ``contana.report_cli.main(argv)`` in this process,
and the next job starts only when it has returned.  Whole rounds run until
``--seconds`` have passed, and at least ``MIN_ROUNDS`` of them, so every run
measures the same job mix.  A job's time is the best of its repeats,
scaled to a nominal machine speed measured with ``reference_kernel`` before
every job.  After the timer stops, every job's exit code and output are
checked (``checks.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced round with a round traced through ``spans.py`` and prints per-layer
metrics per round, plus the tracing overhead.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
1 when any job failed its check.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import deque  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: every run covers at least this many rounds of the job list
MIN_ROUNDS = 3

#: fresh processes that repeat the set-up, for a median set-up time
SETUP_PROBES = 2

#: reference_kernel's time at the nominal machine speed.  Reported times are
#: scaled by NOMINAL_REF_S / (the run's 10th-percentile kernel time), so that
#: phases of minutes in which a shared host runs everything slower move them
#: less; a low quantile pairs with the best-of-repeats job times.
NOMINAL_REF_S = 0.012


def reference_kernel() -> float:
    """Seconds for a fixed mix of the program's kinds of work.

    Scalar float loops, a deque sliding window, small-array numpy updates
    and one large array.  The benchmark owns this code, so it measures the
    machine's current speed and nothing about the program.
    """
    start = time.perf_counter()
    vs = [math.sqrt(i * 1e-4) + math.sin(i * 1e-4) for i in range(6000)]
    window = deque()
    for j, v in enumerate(vs):
        while window and vs[window[-1]] <= v:
            window.pop()
        window.append(j)
        if window[0] < j - 50:
            window.popleft()
    a = np.full((100, 33), -np.inf)
    for _ in range(100):
        b = np.full((100, 33), -np.inf)
        b[1:] = a[:-1]
        a = np.where(b + 0.5 > a, b + 0.5, a)
    np.sqrt(np.arange(300_000, dtype=float)).tolist()
    return time.perf_counter() - start


def load_program():
    """Import contana from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "contana" / "__init__.py").is_file():
        raise SystemExit(f"bench: no contana sources under {src}")
    sys.path.insert(0, str(src))
    from contana import report_cli
    if not Path(report_cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: contana imported from {report_cli.__file__}")
    return report_cli


def run_job(report_cli, job):
    """(exit code, stdout, latency in s) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = report_cli.main(list(job.argv))
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code
    except Exception as exc:  # a job that raises is a failed job
        code = f"raised {exc!r}"
    return code, out.getvalue(), time.perf_counter() - start


def run_round(report_cli, round_jobs, results, refs=None,
              tracer=None) -> float:
    """Run the round's jobs in order, timing reference_kernel before each
    job when refs is a list; returns the round's wall time."""
    start = time.perf_counter()
    for i, job in enumerate(round_jobs):
        if refs is not None:
            refs.append(reference_kernel())
        if tracer is not None:
            tracer.job = len(results)
        results.append((i, *run_job(report_cli, job)))
    return time.perf_counter() - start


def setup(workload: str, seed: int):
    """Import, generate the jobs, write their files, run the warm-up job."""
    report_cli = load_program()
    import jobs

    round_jobs, files = jobs.generate(workload, seed)
    os.makedirs(jobs.OUT_DIR, exist_ok=True)
    for path, text in files.items():
        with open(path, "w") as fh:
            fh.write(text)
    run_job(report_cli, round_jobs[0])
    return report_cli, round_jobs


def probe_setup_s(args) -> list:
    """Set-up seconds measured in fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def check_results(workload, round_jobs, results):
    """(failed count, answer ratios, first problems) over every job run."""
    from checks import check_job

    verdicts = {}
    failed, ratios, shown = 0, [], []
    for i, code, stdout, _ in results:
        key = (i, code, stdout)
        if key not in verdicts:
            verdicts[key] = check_job(workload, round_jobs[i], code, stdout)
        problems, ratio = verdicts[key]
        if problems:
            failed += 1
            if len(shown) < 5:
                shown.append(f"{round_jobs[i].template}: {'; '.join(problems)}")
        elif ratio is not None:
            ratios.append(ratio)
    return failed, ratios, shown


def speed_scale(refs) -> float:
    """Factor that turns this run's seconds into nominal-speed seconds."""
    return NOMINAL_REF_S / statistics.quantiles(refs, n=10)[0]


def end_to_end(round_jobs, results, scale, peak_mb, failed, ratios,
               setup_samples):
    """{name: (value, unit)} for a run of whole rounds.

    Every job of the round ran once per round; its latency is the best of
    those repeats, which drops the time the machine gave to other work.
    The tail is the mean of the slowest quarter of those latencies.  Times
    are multiplied by scale (see speed_scale).
    """
    best = [math.inf] * len(round_jobs)
    for i, _, _, latency in results:
        best[i] = min(best[i], latency * scale)
    slowest = sorted(best)[-math.ceil(len(best) / 4):]
    n = len(results)
    return {
        "setup_s": (statistics.median(setup_samples) * scale, "s"),
        "jobs_per_s": (len(best) / math.fsum(best), "1/s"),
        "job_p50_s": (statistics.median(best), "s"),
        "job_tail_s": (statistics.fmean(slowest), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "pass_frac": ((n - failed) / n, "ratio"),
        "answer_ratio": (math.exp(statistics.fmean(map(math.log, ratios)))
                         if ratios else 0.0, "ratio"),
    }


def per_layer(tracer, walls_plain, walls_traced):
    """{name: (value, unit)} per traced round, plus the tracing overhead."""
    import spans

    layer, spanned = spans.summarize(tracer, len(walls_traced))
    units = {"calls": "count", "points": "count", "points_sampled": "count",
             "states": "count", "self_s": "s"}
    metrics = {name: (value, units.get(name.rsplit(".", 1)[1], "ratio"))
               for name, value in layer.items()}
    traced, plain = sum(walls_traced), sum(walls_plain)
    metrics["trace.overhead_frac"] = ((traced - plain) / plain, "ratio")
    metrics["trace.unspanned_frac"] = ((traced - spanned) / traced, "ratio")
    return metrics


def main(argv=None) -> int:
    import jobs

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    report_cli, round_jobs = setup(args.workload, args.seed)
    own_setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(repr(own_setup_s))
        return 0

    results = []
    if args.trace:
        import spans

        tracer = spans.Tracer()
        walls_plain, walls_traced = [], []
        start = time.perf_counter()
        while not walls_plain or time.perf_counter() - start < args.seconds:
            walls_plain.append(run_round(report_cli, round_jobs, results))
            tracer.install()
            try:
                walls_traced.append(
                    run_round(report_cli, round_jobs, results, tracer=tracer))
            finally:
                tracer.uninstall()
    else:
        rounds, refs = 0, []
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            run_round(report_cli, round_jobs, results, refs)
            rounds += 1
        wall = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, ratios, shown = check_results(args.workload, round_jobs, results)
    for line in shown:
        print(f"check failed: {line}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(tracer, walls_plain, walls_traced)
        tracer.write_jsonl(
            f"{jobs.OUT_DIR}/trace-{args.workload}-{args.seed}.jsonl")
    else:
        scale = speed_scale(refs)
        metrics = end_to_end(round_jobs, results, scale, peak_mb, failed,
                             ratios, [own_setup_s, *probe_setup_s(args)])
    n = len(results)
    print(f"workload {args.workload} seed {args.seed}: {n} jobs in rounds of "
          f"{len(round_jobs)}, {failed} failed (failed_frac {failed / n!r})")
    if not args.trace:
        print(f"timed loop: {n / wall!r} jobs/s over {wall!r} s; times below "
              f"take each job's best of {n // len(round_jobs)} repeats and "
              f"are scaled by {scale!r} to the nominal machine speed")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
