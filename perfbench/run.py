"""Seeded closed-loop benchmark of the logdiff package.

Run from the repository root:

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 30 --trace 0

Workloads: ``decompose``, ``verify`` and ``tangent-transport`` (see
``BENCHMARK.json`` for why each exists).  One client sends one request at a
time, in this process and thread; the next request goes out only after the
previous one returned and was checked.  Requests are generated from the
seed before the clock starts, and the package sees only operator text and
argv.  Every answer is checked exactly after its clock stops; a wrong
answer, an unexpected exception or a negative control that passes counts
as a failure and the run goes on.

``--trace 0`` serves requests for ``--seconds`` (and at least 100 of them)
and reports the end-to-end metrics.  Their times are normalised for host
speed: a fixed reference loop runs between requests, and each time is
scaled to what it would be with that loop at REF_NOMINAL_S (see
REF_EXPONENT).  The header line prints the host speed factor, the median
loop time over REF_NOMINAL_S; raw seconds are roughly the reported ones
times that factor to the power REF_EXPONENT.  The checks run between
requests, off the clock.

``--trace 1`` reports the per-layer metrics instead: it serves a fixed
number of requests untraced, then the same requests with a span around
every public boundary of every module, so that counts repeat exactly for a
seed; it also times the decompose cliff probes.  The spans are written to
``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import fixtures, gen  # noqa: E402
from perfbench.workloads import Env, call, check  # noqa: E402

SETUP_REPEATS = 9
MIN_REQUESTS = 100
STREAM = 6000
# Requests in each pass of a traced run, whole blocks of the request mix;
# about six seconds untraced on a 2-core machine.
TRACE_BLOCKS = {"decompose": 16, "verify": 40, "tangent-transport": 20}
CLIFF_FIXTURES = ("A3", "B3")
CLIFF_ORDERS = (1, 2, 3)
OUT_DIR = ROOT / ".perfbench-out"
# Host speed on a shared machine drifts by 20% over seconds, so end-to-end
# times are normalised: a fixed reference loop runs between requests every
# REF_PERIOD_S, and each time is scaled by (REF_NOMINAL_S over the median
# reference time within REF_WINDOW_S of it) ** REF_EXPONENT.  The exponent
# is below 1 because the loop slows more than the package does: with the
# full ratio, normalised time fell as raw time rose (log-log slope -0.11 on
# decompose, -0.10 on verify, over 100 s of host drift up to 2x on a 2-core
# VM); 0.9 made both slopes zero.
REF_PERIOD_S = 0.05
REF_WINDOW_S = 0.25
REF_NOMINAL_S = 0.0015
REF_EXPONENT = 0.9
_REF_A = {(i, j, k): (7 * i + 3 * j + k) % 11 + 1 for i in range(4) for j in range(4) for k in range(3)}
_REF_B = {(i, j, k): (i + 2 * j + 5 * k) % 13 + 1 for i in range(3) for j in range(3) for k in range(4)}

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    from perfbench.tracing import EXTRA_COUNTS, SPAN_NAMES

    units = {}
    for key in SPAN_NAMES:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    units.update((key, "count") for key in EXTRA_COUNTS)
    for fx in CLIFF_FIXTURES:
        for order in CLIFF_ORDERS:
            units[f"tangent.decompose.{fx}.order{order}_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def _reference_work() -> None:
    """Sparse dict-of-tuples polynomial products, like the package's own."""
    for _ in range(4):
        out: dict = {}
        for (a0, a1, a2), ca in _REF_A.items():
            for (b0, b1, b2), cb in _REF_B.items():
                key = (a0 + b0, a1 + b1, a2 + b2)
                out[key] = out.get(key, 0) + ca * cb


class HostClock:
    """Reference-loop samples over a run, to normalise times by host speed."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, every: float = 0.0) -> None:
        start = time.perf_counter()
        if self.at and start - self.at[-1] < every:
            return
        _reference_work()
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def normalise(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at nominal host speed."""
        mid = start + seconds / 2
        lo = bisect.bisect_left(self.at, mid - REF_WINDOW_S)
        hi = bisect.bisect_right(self.at, mid + REF_WINDOW_S)
        if lo == hi:  # nothing that close: the nearest sample on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return seconds * (REF_NOMINAL_S / statistics.median(self.took[lo:hi])) ** REF_EXPONENT

    def speed(self) -> float:
        """Median reference time over nominal: above 1 is a slow host."""
        return statistics.median(self.took) / REF_NOMINAL_S


def setup() -> tuple[float, Env]:
    """Import logdiff afresh, build and certify every fixture; timed."""
    start = time.perf_counter()
    for name in [m for m in sys.modules if m == "logdiff" or m.startswith("logdiff.")]:
        del sys.modules[name]
    ld = importlib.import_module("logdiff")
    cli = importlib.import_module("logdiff.cli")
    built = fixtures.build(ld)
    elapsed = time.perf_counter() - start
    if not Path(ld.__file__).resolve().is_relative_to(SRC.resolve()):
        raise fixtures.SetupError(f"imported logdiff from {ld.__file__}, not from {SRC}")
    return elapsed, Env(ld, cli, built)


def serve(env: Env, requests, seconds: float | None = None, tracer=None, clock=None):
    """Closed loop over ``requests``: time each call, then check it.

    With ``seconds`` the loop cycles through the list until that much wall
    time has passed and at least MIN_REQUESTS were served; without, it
    serves the list once.  A ``clock`` samples host speed between requests.
    Returns the start times, the latencies and the failures.
    """
    starts: list[float] = []
    latencies: list[float] = []
    failures: list[str] = []
    stop = None if seconds is None else time.perf_counter() + seconds
    n = 0
    while True:
        if stop is None:
            if n == len(requests):
                break
        elif n >= MIN_REQUESTS and time.perf_counter() >= stop:
            break
        req = requests[n % len(requests)]
        if clock is not None:
            clock.sample(REF_PERIOD_S)
        if tracer is not None:
            tracer.request = n + 1
            tracer.active = True
        start = time.perf_counter()
        try:
            answer = call(env, req)
        except Exception as exc:  # checked below: only controls may raise
            answer = exc
        latencies.append(time.perf_counter() - start)
        starts.append(start)
        if tracer is not None:
            tracer.active = False
        try:
            check(env, req, answer)
        except Exception as exc:
            cause = answer if isinstance(answer, Exception) else exc
            detail = "".join(traceback.format_exception(cause)).strip()
            failures.append(f"request {n} {req}: {exc}\n{detail}")
        n += 1
    if clock is not None:
        clock.sample()
    return starts, latencies, failures


def cliff_probes(env: Env) -> tuple[dict[str, float], list[str]]:
    """One untraced, timed decompose of x1 * theta_1^K per fixture and K."""
    ld = env.ld
    out, failures = {}, []
    for name in CLIFF_FIXTURES:
        arr, basis = env.fixtures[name]
        theta = gen.letters(name)[0]
        for order in CLIFF_ORDERS:
            u = ld.parse_diffop(f"x1*({theta})^{order}", arr.dim)
            start = time.perf_counter()
            try:
                dec = ld.decompose(u, arr, basis)
            except Exception as exc:  # recorded as a failure; the probe keeps its time
                dec = exc
            out[f"tangent.decompose.{name}.order{order}_s"] = time.perf_counter() - start
            if isinstance(dec, Exception):
                failures.append(f"cliff probe {name} order {order}: raised {dec!r}")
                continue
            words = {w.word: w.coeff for w in dec.words}
            if words != {(1,) * order: ld.Poly.variable(arr.dim, 1)} or ld.reassemble(dec) != u:
                failures.append(f"cliff probe {name} order {order}: words {words}")
    return out, failures


def run_untraced(env: Env, requests, seconds: float, clock: HostClock):
    starts, raw, failures = serve(env, requests, seconds, clock=clock)
    latencies = [clock.normalise(t, x) for t, x in zip(starts, raw)]
    n = len(latencies)
    metrics = {
        "ops_per_s": n / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "ok_frac": (n - len(failures)) / n,
    }
    return metrics, n, failures


def _normalised_total(clock: HostClock, starts, latencies) -> float:
    return sum(clock.normalise(t, x) for t, x in zip(starts, latencies))


def run_traced(env: Env, requests, workload: str, seed: int, clock: HostClock):
    from perfbench.tracing import Tracer

    metrics, failures = cliff_probes(env)
    attempted = len(metrics)
    requests = requests[:TRACE_BLOCKS[workload] * gen.block_size(workload)]
    starts, plain, plain_failures = serve(env, requests, clock=clock)
    plain_s = _normalised_total(clock, starts, plain)
    tracer = Tracer()
    tracer.install(env.ld)
    try:
        tracer.active = True
        fixtures.build(env.ld)  # request 0: the fixture part of set-up
        tracer.active = False
        starts, traced, traced_failures = serve(env, requests, tracer=tracer, clock=clock)
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz")
    metrics.update(tracer.totals())
    metrics["trace.overhead_frac"] = _normalised_total(clock, starts, traced) / plain_s - 1
    failures += plain_failures + traced_failures
    return metrics, attempted + len(plain) + len(traced), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "logdiff" / "__init__.py").is_file():
        print(f"error: no logdiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    requests = gen.make_requests(args.workload, args.seed, STREAM)
    clock = HostClock()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            clock.sample()
            start = time.perf_counter()
            elapsed, env = setup()
            setups.append((start, elapsed))
        clock.sample()
    except (fixtures.SetupError, ImportError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failures = run_traced(env, requests, args.workload, args.seed, clock)
        units = per_layer_units()
    else:
        metrics, attempted, failures = run_untraced(env, requests, args.seconds, clock)
        metrics["setup_s"] = statistics.median(clock.normalise(t, x) for t, x in setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END

    for line in failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {len(failures)}  "
          f"failed_frac {len(failures) / attempted:.6g}  host speed {clock.speed():.3f}")
    for name, unit in units.items():
        print(f"  {name:44s} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
