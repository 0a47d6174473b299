"""Accuracy-checked layered benchmark of whitadd.

    python3 bench/run.py --workload scalar_grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 25

One caller in one process and one thread drives the public API in a closed
loop: each point starts when the previous one returns, and is timed by the
caller's CPU time (see ``CpuElsewhere``).  scalar_grid and green_pairs pass
over a pool of points several times and take the least time of each point;
identities_ext50 points cost about a second each and are all new.  Every
returned value is checked against an mpmath oracle after the timed loop
(``workloads.py``).
The last line of standard output is a JSON object: with ``--trace 0`` it
carries the ``end_to_end`` metrics named in ``BENCHMARK.json``, with
``--trace 1`` the ``per_layer`` metrics from a separate traced pass
(``spans.py``).  ``--all`` runs every workload untraced and also prints
``failed_share`` and ``silent_wrong_share``, which the JSON carries as their
complements ``correct_share`` and ``honest_share`` so that no gated metric
can read 0.

``failed`` counts the points that raised or missed the workload's tolerance;
points in the known-defect regions of ROADMAP item 2 stay in the domains and
are counted there.  ``correct`` says whether the checking itself held: every
point had an oracle, repeated points returned bit-identical values, and a
traced pass matched the untraced one and restored every wrapped name, and no
other thread or process did the work.

The program exits non-zero without a result line when whitadd's source is not
under ``src/`` next to this directory or an oracle check cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# largest share of CPU time that may be spent outside the calling thread
ELSEWHERE_LIMIT = 0.05


class BenchError(Exception):
    """The benchmark cannot produce a checked result."""


def import_library():
    if not (SRC / "whitadd" / "__init__.py").is_file():
        raise BenchError(f"no whitadd source under {SRC}")
    sys.path.insert(0, str(SRC))
    import whitadd

    if Path(whitadd.__file__).resolve().parent != SRC / "whitadd":
        raise BenchError(f"imported whitadd from {whitadd.__file__}, not from {SRC}")


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.split()
        commit = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "whitadd").glob("*.py")):
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "git_commit": commit,
            "source_sha256": digest.hexdigest()[:16], "platform": platform.platform()}


def setup_seconds(workload: str) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh processes, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_time.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

class Pool:
    """The workload's inputs, generated as the loop reaches them; point i is
    input i % size, or input i when size is None."""

    def __init__(self, stream, size: int | None):
        self._stream = stream
        self.size = size
        self.points: list = []

    def get(self, i: int):
        j = i % self.size if self.size else i
        while len(self.points) <= j:
            self.points.append(next(self._stream))
        return j, self.points[j]


def fingerprint(result):
    """Exact identity of a result: repr round-trips floats and mpmath values."""
    if isinstance(result, tuple):
        return tuple(fingerprint(r) for r in result)
    if hasattr(result, "lhs"):
        return (repr(result.lhs), repr(result.rhs))
    return repr(result)


@dataclass
class Pass:
    best_ns: dict = field(default_factory=dict)  # pool index -> least time taken
    first: dict = field(default_factory=dict)  # pool index -> first result
    keys: dict = field(default_factory=dict)  # pool index -> fingerprint
    evaluations: int = 0
    total_ns: int = 0
    differ: int = 0  # repeated evaluations whose value differs from the first
    order: list | None = None  # pool index of each evaluation, kept when traced


class CpuElsewhere:
    """CPU time spent outside the calling thread while the block runs: in
    other threads, and in child processes reaped meanwhile.

    Points are timed by the calling thread's CPU time.  On a shared machine
    that is much steadier than wall time, and for a single-threaded library
    that does no I/O it is the latency the caller sees on an idle core.  It
    stays so only while nothing computes elsewhere, which this checks.
    """

    def __enter__(self):
        self.ns = -self._read()
        return self

    def __exit__(self, *exc):
        self.ns += self._read()

    @staticmethod
    def _read() -> int:
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (time.process_time_ns() - time.thread_time_ns()
                + int((kids.ru_utime + kids.ru_stime) * 1e9))


def evaluate(workload, run: Pass, idx: int, point, tracer=None) -> None:
    """Time one call and compare its result with the first result of the same
    point in this pass."""
    span = tracer.open("point") if tracer else None
    t0 = time.thread_time_ns()
    result = workload.call(point)
    t1 = time.thread_time_ns()
    if tracer:
        tracer.close(span)
    ns = t1 - t0
    run.evaluations += 1
    run.total_ns += ns
    if run.order is not None:
        run.order.append(idx)
    key = fingerprint(result)
    if idx in run.keys:
        run.best_ns[idx] = min(run.best_ns[idx], ns)
        run.differ += key != run.keys[idx]
    else:
        run.best_ns[idx] = ns
        run.keys[idx] = key
        run.first[idx] = result


def timed_pass(workload, pool: Pool, seconds: float) -> Pass:
    """Pass over a pool at least twice, and on until ``seconds`` of wall time
    have gone by; stop only at the end of a round."""
    run = Pass()
    deadline = time.perf_counter() + seconds
    i = 0
    while (i < 2 * (pool.size or 0) or time.perf_counter() < deadline
           or i % workload.round_size):
        evaluate(workload, run, *pool.get(i))
        i += 1
    return run


def paired_passes(workload, pool: Pool, seconds: float, tracer) -> tuple[Pass, Pass]:
    """Evaluate each point untraced and traced, alternating which goes first
    so that warm caches favour neither, for about ``seconds`` in all."""
    untraced, traced = Pass(), Pass(order=[])
    deadline = time.perf_counter() + seconds / 2
    i = 0
    while time.perf_counter() < deadline or i % workload.round_size:
        idx, point = pool.get(i)
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.installed():
                    evaluate(workload, traced, idx, point, tracer)
            else:
                evaluate(workload, untraced, idx, point)
        i += 1
    return untraced, traced


def judge(workload, pool: Pool, run: Pass) -> dict:
    """pool index -> (status, digits, references), oracle outside any timing."""
    verdicts = {}
    for idx in sorted(run.first):
        try:
            refs = workload.oracle(pool.points[idx])
        except Exception as exc:
            raise BenchError(f"oracle check cannot run at point {idx}: {exc!r}") from exc
        verdicts[idx] = (*workload.judge(run.first[idx], refs), refs)
    return verdicts


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values, empty=0.0) -> float:
    return statistics.median(values) if values else empty


def end_to_end(workload, run: Pass, verdicts: dict, setup: list) -> tuple[dict, dict]:
    """Metrics over the distinct points.  A repeated point's latency is the
    least of its timings, which leaves out time taken by other tenants."""
    statuses = [verdicts[idx][0] for idx in run.best_ns]
    n = len(statuses)
    ok = statuses.count("ok")
    wrong = statuses.count("wrong")
    latencies = sorted(ns / 1e6 for ns in run.best_ns.values())
    rank = math.floor(workload.tail_percentile / 100 * n) + 1  # p% of points lie below
    digits = [verdicts[idx][1] for idx in run.best_ns if verdicts[idx][1] is not None]
    metrics = {
        "setup_s": statistics.median(setup),
        "correct_per_s": ok / (sum(run.best_ns.values()) / 1e9),
        "point_ms_p50": statistics.median(latencies),
        "point_ms_tail": latencies[rank - 1],
        "correct_share": ok / n,
        "honest_share": 1 - wrong / n,
        "digits_p50": _median(digits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "failed_share": (n - ok) / n,
        "silent_wrong_share": wrong / n,
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": n - rank,
        "points": n,
        "evaluations": run.evaluations,
        "setup_runs_s": setup,
    }
    return metrics, extra


def per_layer(workload, pool: Pool, tracer, untraced: Pass, traced: Pass,
              verdicts: dict) -> dict:
    from spans import SERIES_SPAN
    from workloads import SCALAR_FNS, U_CLASSES, VERIFIERS, partial_wave_status

    spans = tracer.by_name()
    own = tracer.self_times()
    kids = tracer.children()
    points = spans["point"]
    total = sum(tracer.duration(i) for i in points)
    m = {"scalar.extended_contexts_per_point":
         len(spans.get("scalar.ExtendedContext", [])) / len(points)}

    core_self = 0
    for fn in SCALAR_FNS:
        ids = spans.get("special_core." + fn, [])
        m[f"special_core.{fn}.calls_per_point"] = len(ids) / len(points)
        m[f"special_core.{fn}.self_us_p50"] = _median([own[i] / 1e3 for i in ids])
        core_self += sum(own[i] for i in ids)
    m["special_core.self_share"] = core_self / total

    # the outermost kummer_u span of each point: U points and W's inner call
    u_time = {}
    root = -1
    for idx, parent in enumerate(tracer.parent):
        if parent < 0:
            root = idx
        elif root not in u_time and tracer.names[tracer.name[idx]] == "special_core.kummer_u":
            u_time[root] = tracer.duration(idx)
    by_class = {cls: ([], []) for cls in U_CLASSES}  # class -> (us, wrong flags)
    for span, idx in zip(points, traced.order):
        cls = getattr(pool.points[idx], "u_class", None)
        if cls is not None and span in u_time:
            by_class[cls][0].append(u_time[span] / 1e3)
            by_class[cls][1].append(verdicts[idx][0] == "wrong")
    classified = sum(len(us) for us, _ in by_class.values())
    for cls, (us, wrong) in by_class.items():
        m[f"special_core.kummer_u.{cls}.us_p50"] = _median(us)
        m[f"special_core.kummer_u.{cls}.call_share"] = len(us) / classified if classified else 0.0
        m[f"special_core.kummer_u.{cls}.silent_wrong_share"] = sum(wrong) / len(wrong) if wrong else 0.0

    def series_terms(parents):
        terms = []
        for p in parents:
            calls = [k for k in kids.get(p, []) if k in tracer.series]
            if calls:
                terms.append(tracer.series[calls[0]][0])
        return terms

    series = spans.get(SERIES_SPAN, [])
    terms = [tracer.series[i][0] for i in series if i in tracer.series]
    lost = [tracer.series[i][1] for i in series if i in tracer.series]
    series_self = sum(own[i] for i in series)
    m["summation.sum_series.calls_per_point"] = len(series) / len(points)
    m["summation.sum_series.terms_p50"] = _median(terms)
    m["summation.sum_series.self_us_per_term"] = series_self / 1e3 / sum(terms) if terms else 0.0
    m["summation.sum_series.self_share"] = series_self / total
    m["summation.sum_series.digits_lost_max"] = max((x for x in lost if math.isfinite(x)), default=0.0)

    for verifier in VERIFIERS:
        name = verifier.removeprefix("verify_")
        ids = spans.get("identities." + name, [])
        m[f"identities.{name}.ms_p50"] = _median([tracer.duration(i) / 1e6 for i in ids])
        m[f"identities.{name}.terms_p50"] = _median(series_terms(ids))

    hostler = spans.get("green.hostler_green", [])
    waves = spans.get("green.partial_wave_green", [])
    m["green.hostler_green.us_p50"] = _median([tracer.duration(i) / 1e3 for i in hostler])
    m["green.partial_wave_green.ms_p50"] = _median([tracer.duration(i) / 1e6 for i in waves])
    m["green.partial_wave_green.terms_p50"] = _median(series_terms(waves))
    wave_status = ([partial_wave_status(traced.first[idx], verdicts[idx][2]) for idx in traced.order]
                   if waves else [])
    n_waves = len(wave_status) or 1
    m["green.partial_wave_green.no_convergence_share"] = sum(
        s == "NoConvergence" for s in wave_status) / n_waves
    m["green.partial_wave_green.silent_wrong_share"] = wave_status.count("wrong") / n_waves

    m["trace.overhead_share"] = traced.total_ns / untraced.total_ns - 1
    return m


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def emit(metrics: list, values: dict) -> dict:
    """The metrics BENCHMARK.json names, in its order and with its units."""
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def run_workload(spec: dict, name: str, seed: int, seconds: float, traced: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    print("machine:", json.dumps(machine()), flush=True)
    pool = Pool(workload.points(seed), workload.pool_size)
    if not traced:
        setup = setup_seconds(name)
        with CpuElsewhere() as elsewhere:
            run = timed_pass(workload, pool, seconds=seconds)
        verdicts = judge(workload, pool, run)
        values, extra = end_to_end(workload, run, verdicts, setup)
        metrics = spec["end_to_end"]
        checks_held = run.differ == 0 and elsewhere.ns <= ELSEWHERE_LIMIT * run.total_ns
        print(f"{name} seed {seed}: {json.dumps(extra)}")
    else:
        from spans import Tracer, layer_targets

        tracer = Tracer(layer_targets())
        with CpuElsewhere() as elsewhere:
            untraced, run = paired_passes(workload, pool, seconds, tracer)
        tracer.dump(BENCH / "out" / f"trace_{name}.json")
        verdicts = judge(workload, pool, run)
        values = per_layer(workload, pool, tracer, untraced, run, verdicts)
        metrics = spec["per_layer"]
        identical = untraced.keys == run.keys
        checks_held = (identical and untraced.differ == 0 and run.differ == 0
                       and not tracer.restores_failed
                       and elsewhere.ns <= ELSEWHERE_LIMIT * (run.total_ns + untraced.total_ns))
        print(f"{name} seed {seed}: traced values identical: {identical}, "
              f"names restored: {not tracer.restores_failed}, {len(tracer.start)} spans")
    emitted = emit(metrics, values)
    for key, metric in emitted.items():
        print(f"  {key} {metric['value']:.6g} {metric['unit']}")
    if not traced:
        for key in ("failed_share", "silent_wrong_share"):
            print(f"  {key} {extra[key]:.6g} share")
        print(f"  point_ms_tail is p{extra['tail_percentile']:g} of {extra['points']} "
              f"points ({extra['tail_samples_beyond']} beyond)")
    statuses = [verdicts[idx][0] for idx in run.best_ns]
    return {"correct": checks_held, "attempted": len(statuses),
            "failed": len(statuses) - statuses.count("ok"), "metrics": emitted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds or spec["run_seconds"]
        import_library()
        names = [w["name"] for w in spec["workloads"]]
        if args.all:
            failures = 0
            for name in names:
                failures += subprocess.run(
                    [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
                     str(args.seed), "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, timeout=600).returncode != 0
            return 1 if failures else 0
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        result = run_workload(spec, args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
