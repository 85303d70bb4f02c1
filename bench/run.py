"""Benchmark of the altermatic command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
One process and one thread drive a closed loop with a single caller: each
request is an in-process ``altermatic.cli.main(argv)`` call with its
output captured, exactly the command a user would type.  Inputs are
generated from the seed and written to files before timing starts.  The
loop runs whole passes over the request list until ``--seconds`` have
passed; every answer is checked after its pass, outside the timed region.

Between requests the loop runs the reference loop of ``calibration.py``
for a tenth of the request's time.  Each request's latency divided by the
reference time around it is its cost in reference loops ("ref"), which
slow phases of a shared host leave nearly unchanged.  Each request's
median cost over the passes gives the end-to-end metrics: requests per
thousand reference loops and the median request cost.  Set-up time is
scaled the same way, to a machine whose reference loop takes 1 ms.  Plain
seconds, the 95th percentile and the failed share are printed alongside.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, and the result holds
per-layer calls and self times per pass, from wrappers around the
program's entry points (see ``tracer.py``), and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import NoReturn

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

from calibration import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402

CALIBRATION_SHARE = 0.1  # reference-loop time after a request, as a share of its latency
SETUP_REPEATS = 9
# Set-up times are scaled to a machine whose reference loop takes this long.
REFERENCE_SECONDS = 0.001
SETUP_SNIPPET = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from calibration import calibrate
before = calibrate(0.02)
t0 = time.perf_counter()
import altermatic.cli
elapsed = time.perf_counter() - t0
print(elapsed, (before + calibrate(0.02)) / 2, altermatic.cli.__file__)
"""


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import altermatic from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "altermatic" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'altermatic'}")
    sys.path.insert(0, str(SRC))
    import altermatic.cli

    if SRC not in Path(altermatic.cli.__file__).resolve().parents:
        fail(f"altermatic was imported from {altermatic.cli.__file__}, not from {SRC}")
    return altermatic.cli


def measure_setup() -> tuple[float, float]:
    """Time for a fresh interpreter to import the command line: (scaled, plain).

    Medians over ``SETUP_REPEATS`` interpreters.  The scaled time divides by
    the reference loop timed in the same interpreter just before and after
    the import, times ``REFERENCE_SECONDS``: the set-up time on a machine of
    fixed speed, which slow phases of a shared host leave nearly unchanged.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, plain = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(BENCH)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode != 0:
            fail(f"importing altermatic failed:\n{done.stderr}")
        elapsed, reference, path = done.stdout.split(maxsplit=2)
        if SRC not in Path(path.strip()).resolve().parents:
            fail(f"set-up imported altermatic from {path.strip()}")
        plain.append(float(elapsed))
        scaled.append(float(elapsed) * REFERENCE_SECONDS / float(reference))
    return statistics.median(scaled), statistics.median(plain)


def call(cli, argv) -> tuple[int | None, str, str, float]:
    """Run one command in process.

    Returns the exit code (None if it raised), stdout, stderr and the
    seconds spent inside ``main`` itself, without the output capture.
    """
    out, err = io.StringIO(), io.StringIO()
    inner = 0.0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(list(argv))
            finally:
                inner = perf_counter() - t0
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - a raising request is a failed request
        return None, out.getvalue(), f"raised {type(exc).__name__}: {exc}", inner
    return code, out.getvalue(), err.getvalue(), inner


@dataclass
class Passes:
    """Timings of one or more passes over the request list, per request."""

    count: int = 0
    wall: float = 0.0  # including calibration
    latencies: list[list[float]] = field(default_factory=list)  # seconds, [request][pass]
    costs: list[list[float]] = field(default_factory=list)  # reference loops, [request][pass]
    capture_s: float = 0.0  # request time outside ``main``: output capture
    errors: list[str] = field(default_factory=list)

    def run(self, cli, requests) -> None:
        if not self.costs:
            self.latencies = [[] for _ in requests]
            self.costs = [[] for _ in requests]
        outcomes = []
        started = perf_counter()
        ref_before = calibrate(0.0)
        for i, req in enumerate(requests):
            t0 = perf_counter()
            *outcome, inner = call(cli, req.argv)
            latency = perf_counter() - t0
            outcomes.append(outcome)
            self.capture_s += latency - inner
            ref_after = calibrate(CALIBRATION_SHARE * latency)
            self.latencies[i].append(latency)
            self.costs[i].append(2 * latency / (ref_before + ref_after))
            ref_before = ref_after
        self.wall += perf_counter() - started
        self.count += 1
        self.errors.extend(check(requests, outcomes))

    def median_costs(self) -> list[float]:
        """Each request's median cost over the passes, in reference loops."""
        return [statistics.median(c) for c in self.costs]


def check(requests, outcomes) -> list[str]:
    """One error message per failed request."""
    errors = []
    for req, (code, out, err) in zip(requests, outcomes):
        if code != 0:
            errors.append(f"{req.label}: exit {code} {err.strip()}")
            continue
        try:
            problem = req.check(json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable report ({type(exc).__name__}: {exc})"
        if problem:
            errors.append(f"{req.label}: {problem}")
    return errors


def p95_line(name: str, values: list[float], unit: str) -> str:
    n = len(values)
    if n < 200:
        return f"{name}.p95 n/a {unit} (n={n}; p95 needs 200 samples to have ten beyond it)"
    return f"{name}.p95 {statistics.quantiles(values, n=20)[18]:.4f} {unit} (n={n})"


def end_to_end(cli, requests, seconds: float):
    done = Passes()
    while done.count == 0 or done.wall < seconds:
        done.run(cli, requests)
    # Per-request medians over the passes drop the passes a slow phase hit.
    costs = done.median_costs()
    latencies = [statistics.median(t) * 1e3 for t in done.latencies]
    n = len(requests)
    metrics = {
        "requests_per_kref": (1000 * n / sum(costs), "1/kref"),
        "latency_ref.p50": (statistics.median(costs), "ref"),
    }
    all_costs = [c for per in done.costs for c in per]
    all_ms = [t * 1e3 for per in done.latencies for t in per]
    lines = [
        f"passes {done.count} of {n} requests, wall {done.wall:.3f} s with reference loops "
        f"(mean {sum(all_ms) / sum(all_costs):.4f} ms); medians per request over passes:",
        f"requests_per_kref {metrics['requests_per_kref'][0]:.4f} 1/kref",
        f"latency_ref.p50 {metrics['latency_ref.p50'][0]:.4f} ref (n={n})",
        f"requests_per_s {1000 * n / sum(latencies):.4f} 1/s",
        f"latency_ms.p50 {statistics.median(latencies):.4f} ms (n={n})",
        "over every request run:",
        p95_line("latency_ref", all_costs, "ref"),
        p95_line("latency_ms", all_ms, "ms"),
    ]
    return metrics, lines, len(all_costs), done.errors


def traced(cli, requests, seconds: float, workload: str):
    tracer = Tracer()
    plain, traced_passes = Passes(), Passes()
    while plain.count == 0 or plain.wall + traced_passes.wall < seconds:
        plain.run(cli, requests)
        with tracer.installed():
            traced_passes.run(cli, requests)
    passes = traced_passes.count
    wall = sum(map(sum, traced_passes.latencies))

    # The harness's own share of the traced requests' wall time is the
    # output capture around ``main``, timed by the harness itself; the layer
    # self times must account for the rest, which ``trace.accounted_frac``
    # checks (it falls short of 1 by the wrappers' own entry and exit).
    harness_s = traced_passes.capture_s
    metrics = {}
    self_total = 0.0
    for ep in tracer.entry_points:
        rec = tracer.records[ep.name]
        metrics[f"{ep.name}.calls"] = (rec.calls / passes, "count")
        if ep.timed:
            metrics[f"{ep.name}.self_s"] = (rec.self_s / passes, "s")
            self_total += rec.self_s
        if ep.yes_metric:
            metrics[ep.yes_metric] = (rec.yes / rec.calls if rec.calls else 0.0, "ratio")
    flagged = tracer.flagged(workload)
    metrics["harness.self_s"] = (harness_s / passes, "s")
    metrics["trace.wall_s"] = (wall / passes, "s")
    metrics["trace.overhead_frac"] = (sum(traced_passes.median_costs()) / sum(plain.median_costs()) - 1.0, "ratio")
    metrics["trace.accounted_frac"] = ((self_total + harness_s) / wall, "ratio")
    metrics["trace.flagged_entry_points"] = (len(flagged), "count")

    lines = [f"passes {passes} untraced + {passes} traced, {len(requests)} requests each; per traced pass:"]
    for ep in tracer.entry_points:
        rec = tracer.records[ep.name]
        share = f" self {rec.self_s / passes:.4f} s ({100 * rec.self_s / wall:.1f}%)" if ep.timed else ""
        where = ", ".join(tracer.namespaces.get(ep.name, ["-"]))
        lines.append(f"{ep.name}: calls {rec.calls / passes:g}{share}  [{where}]")
    lines += [
        f"harness.self_s {harness_s / passes:.4f} s ({100 * harness_s / wall:.2f}%)",
        f"trace.wall_s {wall / passes:.4f} s; layer self times + harness = "
        f"{100 * metrics['trace.accounted_frac'][0]:.3f}% of it",
        f"trace.overhead_frac {metrics['trace.overhead_frac'][0]:.4f} (traced / untraced cost - 1)",
    ]
    for item in flagged:
        lines.append(f"FLAGGED entry point {item}: renamed, removed or bypassed?")
        print(f"bench: flagged entry point {item}", file=sys.stderr)
    attempted = 2 * passes * len(requests)
    return metrics, lines, attempted, plain.errors + traced_passes.errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    setup_s, setup_plain_s = (None, None) if args.trace else measure_setup()
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        requests = workloads.build(args.workload, args.seed, directory)
        if args.trace:
            metrics, lines, attempted, errors = traced(cli, requests, args.seconds, args.workload)
        else:
            metrics, lines, attempted, errors = end_to_end(cli, requests, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            lines.append(
                f"setup_s {setup_s:.5f} s at a reference loop of {REFERENCE_SECONDS * 1e3:g} ms "
                f"({setup_plain_s:.5f} s as timed; medians of {SETUP_REPEATS} fresh imports)"
            )
            lines.append(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} MB")
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    failed = len(errors)
    lines.append(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} requests)")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    for message in errors[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
