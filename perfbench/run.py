"""zlab benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; zlab is imported from ``src/``.
The seeded op list holds about S seconds of work on the machine the block
sizes were measured on (workloads.BLOCK_SECONDS).  One caller runs it one op
at a time with no threads; each op is timed from outside.  Untraced runs
interleave a fixed speed probe and report op times scaled to a reference
probe time, which cancels the drift of a shared machine's speed; the ops of
cli-mix (child processes) and the set-up samples are reported unscaled.  After the loop
every output is checked.  The last stdout line is the JSON result: end-to-end
metrics with ``--trace 0``, per-layer metrics from spans with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import exact  # noqa: E402
import workloads  # noqa: E402

OP_BUDGET_S = 30.0
# fresh processes whose set-up is timed, the benchmark process included; more
# where one set-up is short and noisy
SETUP_SAMPLES = {"dp8-queries": 3, "dp-combinatorics": 7, "threefold-eps": 11, "cli-mix": 11}
WARMUP_S = 1.0
# Times are scaled to a machine on which speed_probe takes PROBE_REF_S, using
# probes run between ops (NOTES.md, "Machine speed").
PROBE_REF_S = 0.0025
PROBE_INTERVAL_S = 0.2
PROBE_WINDOW_S = 1.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

OPS = {
    "dp8-queries": workloads.ops_dp8,
    "dp-combinatorics": workloads.ops_combinatorics,
    "threefold-eps": workloads.ops_threefold,
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit_hash() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def probe_setup(args, blocks) -> None:
    """Child process: time importing zlab and building the workload's models."""
    start = perf_counter()
    import zlab

    workloads.SETUP[args.workload](zlab, args.seed, blocks)
    print(repr(perf_counter() - start))


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_SAMPLES[args.workload] - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def interpreter_start_s() -> float:
    samples = []
    for _ in range(5):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Nearest-rank latency at the highest ladder percentile with >= 10 samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return 50.0, statistics.median(ordered)


def latency_by_kind(ops, latencies) -> dict:
    by_kind: dict = {}
    for op, latency in zip(ops, latencies):
        by_kind.setdefault(op.kind, []).append(latency * 1000)
    return {k: [len(v), round(statistics.median(v), 3), round(max(v), 3)] for k, v in sorted(by_kind.items())}


def build_ops(Z, args, blocks, models, tracer):
    if args.workload != "cli-mix":
        return OPS[args.workload](Z, models, args.seed, blocks)
    OUT.mkdir(exist_ok=True)
    surface = OUT / "surface_dp4.json"
    surface.write_text(workloads.surface_json(4))
    reference = workloads.InProcessCli()
    ops = []
    for i, (golden, argv) in enumerate(workloads.cli_argvs(args.seed, blocks, surface)):
        trace_file = OUT / f"cli-op-{i}.json" if tracer else None
        ops.append(workloads.Op(
            argv[0],
            lambda argv=argv, trace_file=trace_file: workloads.run_cli_process(ROOT, argv, OP_BUDGET_S, trace_file),
            workloads.cli_check(ROOT, reference, golden, argv),
        ))
    return ops


def warm_up(Z, args, models) -> None:
    """Untimed ops from a one-block list of another seed, until WARMUP_S has
    passed; on dp8-queries without the oversized classes, which take seconds."""
    other = argparse.Namespace(**{**vars(args), "seed": -1 - args.seed})
    if args.workload == "dp8-queries":
        ops = workloads.ops_dp8(Z, models, other.seed, 1, oversized=False)
    else:
        ops = build_ops(Z, other, 1, models, None)
    start = perf_counter()
    for op in ops:
        if perf_counter() - start > WARMUP_S:
            break
        try:
            op.call()
        except Exception:  # warm-up outputs are not checked
            pass


PROBE_MATRIX = [[-(i + 2) if i == j else Fraction(1, i + j + 3) for j in range(6)] for i in range(6)]
PROBE_KEYS = [(i * 7919 % 100_003, i) for i in range(8_000)]


def _probe_work() -> int:
    seen = set(PROBE_KEYS)
    found = sum(key in seen for key in PROBE_KEYS[::4])
    exact.solve(PROBE_MATRIX, list(range(1, 7)))
    n, d = 100_000_007, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
        d += 1
    return found


def speed_probe() -> tuple[float, float]:
    """(time, seconds taken) of a fixed piece of benchmark-owned work, run with
    the garbage collector off: a set of 8000 tuples built and looked up (memory
    and hashing, like the orbit and curve tables of zlab), an exact 6x6 solve
    and a trial division.  The work runs once untimed first, so that caches
    cleared by the op before do not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_work()
        start = perf_counter()
        _probe_work()
        end = perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (start + end) / 2, end - start


def run_loop(ops, tracer, adopt_children: bool, probes: list | None = None):
    """The closed loop: one op at a time, each timed from outside.  With
    ``probes``, a speed probe runs between ops every PROBE_INTERVAL_S."""
    outcomes, windows, child_imports = [], [], []
    last_probe = perf_counter()
    for i, op in enumerate(ops):
        if probes is not None and perf_counter() - last_probe >= PROBE_INTERVAL_S:
            probes.append(speed_probe())
            last_probe = perf_counter()
        if tracer:
            span = tracer.begin_op(i, op.kind)
        start = perf_counter()
        try:
            outcome = op.call()
        except Exception as exc:  # recorded and judged by the op's check
            outcome = exc
        windows.append((start, perf_counter()))
        outcomes.append(outcome)
        if tracer:
            tracer.end_op(not isinstance(outcome, Exception))
            trace_file = OUT / f"cli-op-{i}.json"
            if adopt_children and trace_file.exists():
                child = json.loads(trace_file.read_text())
                trace_file.unlink()
                child_imports.append(child["import_s"])
                tracer.adopt(child["spans"], span)
    if probes is not None:
        probes.append(speed_probe())
    return outcomes, windows, child_imports


def scaled_latencies(windows, probes) -> list[float]:
    """Each op's latency times PROBE_REF_S / the median probe time within
    PROBE_WINDOW_S of the op (all probes of the run if none is that close)."""
    times = [t for t, _ in probes]
    overall = statistics.median(d for _, d in probes)
    out = []
    for start, end in windows:
        near = [d for _, d in probes[bisect_left(times, start - PROBE_WINDOW_S):bisect_right(times, end + PROBE_WINDOW_S)]]
        out.append((end - start) * PROBE_REF_S / (statistics.median(near) if near else overall))
    return out


def check_all(ops, outcomes, latencies):
    failed, canon = 0, []
    for i, (op, outcome, latency) in enumerate(zip(ops, outcomes, latencies)):
        try:
            canon.append(op.check(outcome))
            if latency > OP_BUDGET_S:
                raise workloads.Mismatch(f"ran {latency:.1f} s, over the {OP_BUDGET_S} s budget")
        except Exception as exc:  # any failed check counts the op as failed
            failed += 1
            canon.append(f"FAILED {op.kind}")
            print(f"op {i} ({op.kind}) failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return failed, hashlib.sha256("\n".join(canon).encode()).hexdigest()


def digest_ok(key: str, digest: str) -> bool:
    known = json.loads((HERE / "digests.json").read_text())
    if key in known and known[key] != digest:
        print(f"digest {digest} for {key} differs from the committed {known[key]}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zlab" / "__init__.py").is_file():
        print(f"zlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    blocks = workloads.n_blocks(args.workload, args.seconds)
    if args.probe_setup:
        probe_setup(args, blocks)
        return 0

    record = {
        "workload": args.workload, "seed": args.seed, "blocks": blocks, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu_model(),
        "commit": commit_hash(), "op_budget_s": OP_BUDGET_S,
        "isolation": "none: no CPU pinning, isolation or cgroup change is made",
    }
    print("record: " + json.dumps(record))
    phase = perf_counter()
    setup_samples = [] if args.trace else measure_setup(args)

    start = perf_counter()
    import zlab

    tracer = None
    extra: dict = {}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        if args.workload == "cli-mix":
            extra["interpreter_s"] = interpreter_start_s()
        else:
            tracer.install()
    models = workloads.SETUP[args.workload](zlab, args.seed, blocks)
    if not args.trace:
        setup_samples.append(perf_counter() - start)
    ops = build_ops(zlab, args, blocks, models, tracer)
    kept = len(tracer.spans) if tracer else 0
    warm_up(zlab, args, models)
    if tracer:
        del tracer.spans[kept:]  # the spans of set-up stay, those of warm-up go
    phases = {"setup_s": perf_counter() - phase}

    # cli-mix ops are child processes, which need not run on the core of this
    # process's probes; they are reported unscaled (NOTES.md, "Machine speed")
    probes = [] if args.workload != "cli-mix" else None
    loop_start = perf_counter()
    outcomes, windows, cli_imports = run_loop(ops, tracer, args.workload == "cli-mix", probes)
    phases["loop_s"] = perf_counter() - loop_start
    latencies = [end - start for start, end in windows]
    scaled = scaled_latencies(windows, probes) if probes else latencies
    spans = list(tracer.spans) if tracer else []  # checks below may call zlab again
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    phase = perf_counter()
    failed, digest = check_all(ops, outcomes, latencies)
    phases["check_s"] = perf_counter() - phase
    print("phases: " + json.dumps(phases))
    key = f"{args.workload} seed={args.seed} blocks={blocks}"
    correct = failed == 0 and digest_ok(key, digest)
    print(f"digest: {key} {digest}")
    n = len(ops)

    if tracer:
        from tracer import per_layer_metrics, write_spans

        extra.update(loop_s=sum(scaled), import_s=cli_imports)
        metrics = per_layer_metrics(spans, n, extra)
        OUT.mkdir(exist_ok=True)
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json", spans)
    else:
        p, tail_s = tail(scaled)
        print(f"tail: p{p:g} of {n} ops; setup samples {setup_samples}")
        print("unscaled: " + json.dumps({
            "probe_ms": statistics.median(d for _, d in probes) * 1000 if probes else None,
            "probes": len(probes or ()), "ops_per_s": n / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000, "op_tail_ms": tail(latencies)[1] * 1000,
        }))
        print("latency by kind (count, median ms, max ms; unscaled): "
              + json.dumps(latency_by_kind(ops, latencies)))
        OUT.mkdir(exist_ok=True)
        (OUT / f"latencies-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "ops": [[op.kind, start, end, s] for op, (start, end), s in zip(ops, windows, scaled)],
            "probes": probes,
        }))
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (n / sum(scaled), "1/s"),
            "op_p50_ms": (statistics.median(scaled) * 1000, "ms"),
            "op_tail_ms": (tail_s * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": ((n - failed) / n, "ratio"),
        }
    print(json.dumps({
        "correct": correct, "attempted": n, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
