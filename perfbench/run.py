"""The repository's benchmark of record.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-l2 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the end-to-end metrics are measured on untraced passes;
times are reported at reference machine speed (``speed.py``).
With ``--trace 1`` untraced and traced passes alternate; the per-layer
metrics come from the traced passes, the Chrome trace and the per-layer
self-time summary of the last traced pass are written under
``.perfbench_out/``, and ``trace.overhead_s`` is the traced minus the
best untraced pass wall.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 3

sys.path.insert(0, str(ROOT / "src"))
# The result store stamps a git SHA on what it persists; keep git from
# searching above the checkout for a repository.
os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: {ROOT} holds no src/repro to benchmark")

from speed import Stopwatch  # noqa: E402
from tracing import Instrumentation, Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ServiceMix,
    make_inputs,
    run_sweep,
    run_table1,
    volume_ratio,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
MAPPERS = [name for _, name in Instrumentation.MAPPERS]
API_SPANS = ("workload.pass", "executor.run", "pipeline.evaluate")


# ----------------------------------------------------------------------
# Set-up: imports, kernel load, warm-up of lazy imports, service start
# ----------------------------------------------------------------------
def warm_up(tracer: Tracer) -> None:
    """Load the kernels and touch every lazily imported code path."""
    from repro.api import EvaluationRequest, Pipeline
    from repro.api.executor import SweepExecutor, SweepPlan
    from repro.kernels import metrics
    from repro.routing import kernel

    span = tracer.open("kernels.load")
    kernel.load()
    metrics.load()
    tracer.close(span)
    pipeline = Pipeline()
    for method, reuse in (
        ("random", False), ("linear", False), ("linear", True),
        ("force_directed", False), ("graph_partition", False),
    ):
        pipeline.evaluate(EvaluationRequest(method, 2, levels=1, reuse=reuse))
    # Port reassignment (scipy) only runs for multi-level stitching.
    pipeline.evaluate(EvaluationRequest("hierarchical_stitching", 4, levels=2))
    SweepExecutor(batch=True).run(
        SweepPlan.from_grid(["linear", "random"], [2], seeds=(1,))
    )


def start_service():
    """A started service on an empty store, its server, and a stop function."""
    import threading
    import uuid

    from repro.service.server import SweepService, create_server

    store_dir = WORK_DIR / f"probe-{uuid.uuid4().hex}"
    service = SweepService(store=store_dir)
    service.start()
    server = create_server(service)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,))
    thread.start()

    def stop() -> None:
        server.shutdown()
        server.server_close()
        thread.join()
        service.close()
        shutil.rmtree(store_dir, ignore_errors=True)

    return server, stop


def setup_probe(workload: str) -> None:
    """Child process: set up, say "ready" with the probes' time and the
    slowdown they measured while it set up, wait for stdin to close."""
    stop = None
    started = time.perf_counter()
    with Stopwatch() as clock:
        warm_up(Tracer())
        if workload == "service-mix":
            _, stop = start_service()
    probes_s = time.perf_counter() - started - clock.wall_s  # brackets too
    print(f"ready {probes_s!r} {clock.slowdown!r}", flush=True)
    sys.stdin.read()
    if stop is not None:
        stop()


def measure_setup(workload: str) -> list:
    """Seconds from process start to ready, for SETUP_PROBES fresh processes,
    each as (wall, at reference speed).  Each child samples the machine's
    speed while it sets up; its probes' time is not charged to set-up."""
    # An untimed first child compiles the kernels if this checkout has no
    # cached build yet, so compilation is never charged to set-up.
    subprocess.run(
        [sys.executable, __file__, "--build"], check=True, cwd=ROOT, timeout=900
    )
    samples = []
    for _ in range(SETUP_PROBES):
        child = None
        try:
            started = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, __file__, "--setup-probe", "--workload", workload],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True,
            )
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            word, *figures = line.split() or [""]
            if word != "ready" or len(figures) != 2:
                raise RuntimeError(f"set-up probe failed: {line!r}")
            probes_s, slowdown = map(float, figures)
            samples.append((elapsed - probes_s, (elapsed - probes_s) / slowdown))
        finally:
            if child is not None:
                child.stdin.close()
                child.wait(timeout=60)
                child.stdout.close()
    return samples


# ----------------------------------------------------------------------
# Statistics and metrics
# ----------------------------------------------------------------------
def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples`` (NaN when empty)."""
    ordered = sorted(samples)
    if not ordered:
        return float("nan")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(0, int(100 * (count - 10) // count)) if count > 10 else 0


def describe(label: str, samples) -> str:
    """Median and the highest percentile with ten samples beyond it, with n."""
    line = f"{label}: n={len(samples)} median {percentile(samples, 50):.6g}"
    tail = tail_percentile(len(samples))
    if tail:
        line += f" p{tail} {percentile(samples, tail):.6g}"
    return line


def end_to_end_metrics(setup_refs, pass_refs, evaluations) -> dict:
    """The end-to-end metrics of one run, times at reference speed.

    ``wall_ref_s`` is the best untraced pass: the probes slow down less than
    the workloads in a slow phase of the machine, so a slow phase leaves a
    pass's time at reference speed too high, never too low.  ``setup_s`` is
    the median set-up probe.
    """
    return {
        "setup_s": statistics.median(setup_refs),
        "wall_ref_s": min(pass_refs),
        "volume_ratio": volume_ratio(evaluations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def service_latencies(plain) -> dict:
    """Client latencies of the untraced service-mix passes, best pass each."""
    if not any(p.reads_ms for p in plain):
        return {"service.read_p50_ms": 0.0, "service.read_p99_ms": 0.0,
                "service.write_p50_ms": 0.0}
    return {
        "service.read_p50_ms": min(percentile(p.reads_ms, 50) for p in plain),
        "service.read_p99_ms": min(percentile(p.reads_ms, 99) for p in plain),
        "service.write_p50_ms": min(percentile(p.writes_ms, 50) for p in plain),
    }


def layer_metrics(spans, counters, passed, setup_spans, untraced_wall) -> dict:
    """Per-layer metrics of one traced pass."""
    summary = self_times(spans)

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def counted(name):
        return counters.get(name, 0)

    sim_s = total("routing.simulate")
    batch_s = own("routing.batch")
    cycles = counted("routing.sim.cycles")
    if passed.client_s:  # service-mix: how much client latency the server span explains
        coverage = total("service.evaluate") / passed.client_s
    else:  # the share of the pass spent inside spans of the layers below the API
        root = next(s for s in spans if s.name == "workload.pass")
        api_self = sum(own(name) for name in API_SPANS)
        coverage = 1.0 - api_self / root.duration
    metrics = {
        "kernels.load.s": sum(
            s.duration for s in setup_spans if s.name == "kernels.load"
        ),
        "distillation.build.calls": calls("distillation.build"),
        "distillation.build.s": total("distillation.build"),
        "graphs.interaction.s": total("graphs.interaction"),
        **{f"mapping.place.s.{m}": total(f"mapping.place.{m}") for m in MAPPERS},
        "mapping.fd.refine.s": total("mapping.fd.refine"),
        "mapping.hs.hops.s": total("mapping.hs.hops"),
        "mapping.hs.self_s": own("mapping.place.hierarchical_stitching"),
        "mapping.fd.sweeps": counted("mapping.fd.sweeps"),
        "mapping.fd.moves_accepted": counted("mapping.fd.moves_accepted"),
        "mapping.fd.accept_ratio": (
            counted("mapping.fd.moves_accepted") / counted("mapping.fd.moves_proposed")
            if counted("mapping.fd.moves_proposed") else 0.0
        ),
        "routing.simulate.s": sim_s,
        "routing.batch.s": batch_s,
        "routing.simulate.calls": counted("routing.simulate.calls"),
        "routing.batch.points": counted("routing.batch.points"),
        "routing.batch.fallback_points": counted("routing.batch.fallback_points"),
        "routing.sim.cycles": cycles,
        "routing.sim.cycles_per_s": (
            cycles / (sim_s + batch_s) if sim_s + batch_s else 0.0
        ),
        "routing.sim.stall_events": counted("routing.sim.stall_events"),
        "routing.sim.wakeups": counted("routing.sim.wakeups"),
        "pipeline.evaluate.self_s": own("pipeline.evaluate"),
        "executor.run.self_s": own("executor.run"),
        "pipeline.factory_cache.hit_ratio": passed.factory_hit_ratio,
        "pipeline.sim_cache.hit_ratio": passed.sim_hit_ratio,
        "store.get.calls": calls("store.get"),
        "store.get.s": total("store.get"),
        "store.hit_ratio": (
            counted("store.get.hits") / calls("store.get")
            if calls("store.get") else 0.0
        ),
        "store.put.calls": calls("store.put"),
        "store.put.s": total("store.put"),
        "service.evaluate.self_s": own("service.evaluate"),
        "service.lock_wait.s": total("service.lock_wait"),
        "service.http.s": (
            passed.client_s - total("service.evaluate") if passed.client_s else 0.0
        ),
        "service.not_modified": passed.not_modified,
        "service.coalesced": passed.coalesced,
        "trace.coverage": coverage,
        "trace.overhead_s": passed.wall_s - untraced_wall,
    }
    return {name: float(value) for name, value in metrics.items()}


def check_digest_history(workload: str, seed: int, value: str) -> list:
    """Same workload and seed must give the same digest in every run."""
    path = OUT_DIR / "digests.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}:{seed}"
    if key in history and history[key] != value:
        return [f"digest {value} differs from an earlier run's {history[key]}"]
    history[key] = value
    temporary = path.with_suffix(f".{os.getpid()}.tmp")
    temporary.write_text(json.dumps(history, indent=1, sort_keys=True))
    os.replace(temporary, path)
    return []


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--build", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.build:  # compile the kernels into the checkout's cache, given a compiler
        from repro.kernels import metrics
        from repro.routing import kernel

        kernel.load()
        metrics.load()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    OUT_DIR.mkdir(exist_ok=True)
    # Temporary files of this process and its children (the compiler's
    # included) stay inside the checkout.
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK_DIR / "tmp")
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    try:
        return run(args)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


def run(args) -> int:
    workload, traced = args.workload, bool(args.trace)
    # The CPUs of a shared host slow down independently of each other.  Pin
    # this process, and the set-up children that inherit its affinity, to one
    # CPU so the speed probes sample the CPU the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup_samples = measure_setup(workload)

    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    if traced:
        instrumentation.install()
    warm_up(tracer)
    instrumentation.remove()
    setup_spans = tracer.spans
    inputs = make_inputs(workload, args.seed)
    if workload == "table1-l2":
        one_pass = lambda clock: run_table1(inputs, tracer, clock)  # noqa: E731
    elif workload == "sim-sweep":
        one_pass = lambda clock: run_sweep(inputs, tracer, clock)  # noqa: E731
    else:
        mix = ServiceMix(inputs, WORK_DIR)
        one_pass = lambda clock: mix.run(tracer, clock)  # noqa: E731

    plain, traced_passes, layer_samples = [], [], []
    last_spans = []
    started = time.perf_counter()
    pass_seconds = 0.0
    # Start no pass that the previous one says would end after the deadline.
    while (
        not plain
        or (traced and not traced_passes)
        or time.perf_counter() - started + pass_seconds < args.seconds
    ):
        pass_started = time.perf_counter()
        trace_this = traced and len(traced_passes) < len(plain)
        tracer.reset()
        if trace_this:
            instrumentation.install()
        try:
            passed = one_pass(Stopwatch(sample=not trace_this))
        finally:
            instrumentation.remove()
        if trace_this:
            traced_passes.append(passed)
            last_spans = tracer.spans
            layer_samples.append(
                layer_metrics(
                    tracer.spans, tracer.counters, passed, setup_spans,
                    min(p.wall_s for p in plain),
                )
            )
        else:
            plain.append(passed)
        pass_seconds = time.perf_counter() - pass_started

    passes = plain + traced_passes
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        failures.append(f"pass digests differ: {sorted(digests)}")
    failures += check_digest_history(workload, args.seed, plain[0].digest)

    walls = [p.wall_s for p in plain]
    refs = [p.ref_s for p in plain]
    end_to_end = end_to_end_metrics(
        [ref for _, ref in setup_samples], refs, plain[0].evaluations
    )
    latencies = service_latencies(plain)
    print(f"workload {workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced_passes)} traced passes, digest {plain[0].digest}")
    print("  " + describe("setup wall s", [wall for wall, _ in setup_samples]))
    print("  " + describe("setup_s (reference speed)", [ref for _, ref in setup_samples]))
    print(f"  wall s per pass: {' '.join(f'{w:.4g}' for w in walls)} "
          f"(median {statistics.median(walls):.4g}, best {min(walls):.4g})")
    print(f"  wall_ref_s per pass: {' '.join(f'{r:.4g}' for r in refs)} "
          f"(median {statistics.median(refs):.4g}, best {min(refs):.4g})")
    if workload == "service-mix":
        for label in ("reads_ms", "writes_ms"):
            pooled = [ms for p in plain for ms in getattr(p, label)]
            print("  " + describe(f"service {label} (all passes)", pooled))
        for name, value in latencies.items():
            print(f"  {name} (best pass) = {value:.6g}")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")

    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if traced:
        metrics = {
            name: statistics.median(sample[name] for sample in layer_samples)
            for name in layer_samples[0]
        }
        metrics.update(latencies)
        summary = self_times(last_spans)
        stem = OUT_DIR / f"{workload}-seed{args.seed}"
        Path(f"{stem}.trace.json").write_text(
            json.dumps(tracer.chrome(list(setup_spans) + last_spans))
        )
        Path(f"{stem}.selftime.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True)
        )
        print(f"  trace {stem}.trace.json; self time of the last traced pass:")
        for name, entry in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:40s} calls {int(entry['calls']):6d}  "
                  f"total {entry['total_s']:9.4f} s  self {entry['self_s']:9.4f} s")
    else:
        metrics = end_to_end
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
