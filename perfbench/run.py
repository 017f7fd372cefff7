#!/usr/bin/env python3
"""padicqm benchmark: one workload per invocation, printing one JSON result.

    python3 perfbench/run.py --workload kernel-grid --seed 1 --seconds 10 --trace 0

Run from the root of a padicqm checkout; the library is imported from
``src/``.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics, measured with tracing off; with ``--trace 1`` it holds the
per-layer metrics of a traced replay of a fixed request list.  The line
before it is a JSON detail record (environment, digest, sample counts),
also written to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from speed import ReferenceClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: with n samples statistics.quantiles puts the 90th percentile at rank
#: 0.9 (n + 1), so 100 samples leave ten beyond it
MIN_REQUESTS = 100
WARMUP_SECONDS = 1.0
#: a run stops after this much measuring, whatever --seconds asks for
HARD_LIMIT_SECONDS = 120.0
SETUP_PROBES = 11
LAYERS = ("places", "characters", "gauss", "analytic", "dynamics",
          "propagators", "verify", "cli")


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------- set-up


def setup_probe(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: import, generate, report ready."""
    from workloads import WORKLOADS

    WORKLOADS[workload](seed).next_round()
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _spawn_until_exit(cmd: list[str]) -> float:
    """Run one set-up probe; return the wall seconds until it was ready."""
    t0 = perf_counter()
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        ready = perf_counter() - t0
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return ready


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> list[float]:
    """Reference seconds from spawning a fresh interpreter to its first
    request being ready (importing padicqm and generating the first
    round), one value per probe.  The reference burst waits until the
    probe has exited, as it shares the probe's CPU."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    clock = ReferenceClock()
    times = []
    for _ in range(probes):
        ready, wall, scaled = clock.time(_spawn_until_exit, cmd)
        times.append(ready * scaled / wall)
    return times


# ---------------------------------------------------------------- requests


def attempt(wl, req, run=None):
    """Run one request; an exception becomes the output."""
    try:
        return (run or wl.run)(req)
    except Exception as exc:  # a raising request is a failed request
        return exc


def problems_of(wl, req, out) -> list[str]:
    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    try:
        return wl.check(req, out)
    except Exception as exc:  # an output the check cannot read is wrong
        return [f"check raised {type(exc).__name__}: {exc}"]


def digest_of(wl, req, out) -> bytes:
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}\n".encode()
    try:
        return wl.digest_bytes(req, out)
    except Exception as exc:
        return f"unreadable {type(exc).__name__}\n".encode()


def warm_up(wl, seconds: float) -> None:
    twin = wl.warmup()
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        for req in twin.next_round():
            attempt(twin, req)
            if perf_counter() - t0 >= seconds:
                return


def audit_calls(wl, req) -> list[str]:
    """Replay one request with only its expected spans traced and compare
    the counts: a run that checked nothing is a failure."""
    from tracing import Tracer
    import workloads

    expected = wl.expected_calls(req)
    if not expected:
        return []
    tracer = Tracer([workloads], only=expected)
    with tracer:
        attempt(wl, req, lambda r: tracer.run_request(0, wl.run, r))
    got = {name: tracer.calls_per_request(name)[0] for name in expected}
    return [] if got == expected else [f"traced calls {got}, expected {expected}"]


def measure(wl, seconds: float, min_requests: int = MIN_REQUESTS,
            warmup_seconds: float = WARMUP_SECONDS) -> dict:
    """Closed loop over whole rounds until ``seconds`` of wall time,
    ``min_requests`` requests and the workload's ``min_rounds`` are done; each output is checked right
    after its request, outside the request's timed interval.  Times are
    in reference seconds (see ``speed.py``)."""
    warm_up(wl, warmup_seconds)
    clock = ReferenceClock()
    latencies: list[float] = []
    wall_latencies: list[float] = []
    round_rates: list[float] = []
    attempted = failed = rounds = 0
    problems: list[str] = []
    digest = hashlib.sha256()
    first = None
    t_start = perf_counter()
    while (rounds < wl.min_rounds or attempted < min_requests
           or perf_counter() - t_start < seconds):
        if perf_counter() - t_start > HARD_LIMIT_SECONDS:
            break
        busy, items = 0.0, 0
        for req in wl.next_round():
            first = req if first is None else first
            attempted += 1
            out, wall, elapsed = clock.time(attempt, wl, req)
            wall_latencies.append(wall)
            latencies.append(elapsed)
            busy += elapsed
            found = problems_of(wl, req, out)
            if found:
                failed += 1
                problems += found[:2]
            else:
                items += wl.items(req)
            if rounds == 0:
                digest.update(digest_of(wl, req, out))
        round_rates.append(items / busy)
        rounds += 1
    measured_s = perf_counter() - t_start
    audit = audit_calls(wl, first)
    problems += audit
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not audit,
        "problems": problems[:20],
        "digest": digest.hexdigest(),
        "rounds": rounds,
        "samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x > p90),
        "wall_p50_ms": statistics.median(wall_latencies) * 1e3,
        "measured_s": measured_s,
        "metrics": {
            "items_per_s": _metric(statistics.median(round_rates), "1/s"),
            "request_p50_ms": _metric(p50 * 1e3, "ms"),
            "request_p90_ms": _metric(p90 * 1e3, "ms"),
            "success_rate": _metric((attempted - failed) / attempted, "ratio"),
        },
    }


# ----------------------------------------------------------------- tracing


def trace_hooks() -> dict:
    def count_cosets(counters, args, kwargs):
        ball = kwargs["ball"] if "ball" in kwargs else args[2]
        counters["gauss.cosets"] += ball.n_cosets

    return {"gauss.haar_oracle": count_cosets}


def layer_metrics(tracer, n_requests: int, traced_wall: float, untraced_wall: float,
                  bytes_out: int) -> dict:
    stats = tracer.by_name()
    get = lambda name, key: stats.get(name, {}).get(key, 0)  # noqa: E731
    layers: dict[str, dict] = {}
    for name, entry in stats.items():
        layer = layers.setdefault(name.split(".", 1)[0], {"calls": 0, "self_s": 0.0})
        layer["calls"] += entry["calls"]
        layer["self_s"] += entry["self_s"]
    m: dict[str, dict] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = _metric(layers.get(layer, {}).get("calls", 0), "count")
        m[f"{layer}.self_s"] = _metric(layers.get(layer, {}).get("self_s", 0.0), "s")
    for name in ("characters.chi", "characters.lambda_v", "places.valuation",
                 "places.fractional_part", "places.place_less",
                 "propagators.compose_kernels"):
        m[f"{name}.calls"] = _metric(get(name, "calls"), "count")
    for name, alias in (("gauss.haar_oracle", "gauss.haar_oracle"),
                        ("propagators.compose_kernels", "propagators.compose_kernels"),
                        ("analytic._sin_cos_sums", "analytic.sin_cos"),
                        ("analytic.sqrt_p", "analytic.sqrt_p")):
        m[f"{alias}.self_s"] = _metric(get(name, "self_s"), "s")
    cosets = tracer.counters["gauss.cosets"]
    haar_s = get("gauss.haar_oracle", "total_s")
    m["gauss.cosets"] = _metric(cosets, "count")
    m["gauss.cosets_per_s"] = _metric(cosets / haar_s if haar_s else 0.0, "1/s")
    m["gauss.haar_checked_ratio"] = _metric(get("gauss.haar_oracle", "calls") / n_requests, "ratio")
    m["analytic.precision_errors"] = _metric(
        tracer.escaped_errors("analytic", "PrecisionError"), "count")
    m["cli.bytes_out"] = _metric(bytes_out, "B")
    bench_self = layers.get("bench", {}).get("self_s", 0.0)
    accounted = sum(entry["self_s"] for entry in layers.values())
    m["bench.self_s"] = _metric(bench_self, "s")
    m["trace.spans"] = _metric(len(tracer.start), "count")
    m["trace.accounted_ratio"] = _metric(accounted / traced_wall, "ratio")
    m["trace.overhead_ratio"] = _metric(traced_wall / untraced_wall, "ratio")
    return m


def traced_run(wl, warmup_seconds: float = WARMUP_SECONDS, spans_path=None) -> dict:
    """The first round, run untraced, traced and untraced again; per-layer
    metrics come from the traced pass, whose outputs are checked and must
    equal the untraced ones."""
    from tracing import Tracer
    import workloads

    requests = wl.next_round()
    warm_up(wl, warmup_seconds)

    def untraced_pass():
        t0 = perf_counter()
        outputs = [attempt(wl, req) for req in requests]
        return outputs, perf_counter() - t0

    plain, before = untraced_pass()
    tracer = Tracer([workloads], hooks=trace_hooks())
    with tracer:
        t0 = perf_counter()
        traced = [attempt(wl, req, lambda r, i=i: tracer.run_request(i, wl.run, r))
                  for i, req in enumerate(requests)]
        traced_wall = perf_counter() - t0
    # untraced passes on both sides of the traced one, so that drift in
    # the machine's speed cancels from the overhead ratio
    _, after = untraced_pass()
    untraced_wall = (before + after) / 2
    problems: list[str] = []
    failed = 0
    digest = hashlib.sha256()
    expected_names = {name for req in requests for name in wl.expected_calls(req)}
    counts = {name: tracer.calls_per_request(name) for name in expected_names}
    for i, (req, a, b) in enumerate(zip(requests, plain, traced)):
        found = problems_of(wl, req, b)
        if digest_of(wl, req, a) != digest_of(wl, req, b):
            found.append("traced output differs from the untraced one")
        got = {name: counts[name][i] for name in wl.expected_calls(req)}
        if got != wl.expected_calls(req):
            found.append(f"traced calls {got}, expected {wl.expected_calls(req)}")
        if found:
            failed += 1
            problems += found[:2]
        digest.update(digest_of(wl, req, b))
    bytes_out = sum(wl.bytes_out(out) for out in traced if not isinstance(out, Exception))
    metrics = layer_metrics(tracer, len(requests), traced_wall, untraced_wall, bytes_out)
    accounted = metrics["trace.accounted_ratio"]["value"]
    if not 0.9 <= accounted <= 1.0 + 1e-9:
        problems.append(f"self times account for {accounted:.3f} of the traced wall time")
    if spans_path is not None:
        tracer.write(spans_path)
    return {
        "attempted": len(requests),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems[:20],
        "digest": digest.hexdigest(),
        "samples": len(requests),
        "untraced_wall_s": [before, after],
        "traced_wall_s": traced_wall,
        "metrics": metrics,
    }


# ------------------------------------------------------------- environment


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "padicqm").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "padicqm" / "__init__.py").is_file():
        print(f"perfbench: no padicqm sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    from workloads import WORKLOADS

    # one CPU for the whole run, set-up probes included, so that each
    # reference sample runs on the core the measured work runs on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = traced_run(wl, spans_path=stem.with_suffix(".spans.tsv.gz"))
    else:
        setup = measure_setup(args.workload, args.seed)
        result = measure(wl, args.seconds)
        result["setup_probes_s"] = setup
        result["metrics"]["setup_s"] = _metric(statistics.median(setup), "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"]["peak_rss_mb"] = _metric(rss_kb / 1024, "MB")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **result}
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
