"""End-to-end benchmark of the normalization pipeline and its daemon.

Run from the repository root::

    python3 perfbench/run.py --workload planted-tall --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones listed in ``BENCHMARK.json``, their
times at the reference speed of ``calibrate.py``; with
``--trace 1`` they are the per-layer ones, measured in a separate
traced pass.  The line before it holds the run's environment,
configuration and every sample count.  See ``perfbench/README.md``
for why each workload and metric is what it is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from calibrate import Calibration  # noqa: E402

#: every artefact a run leaves (traces, logs, sockets), relative to the root
OUT_DIR = Path(".perfbench-out")
#: one run must end within this many seconds, set-up included
RUN_DEADLINE_S = 170.0
#: fresh program processes per run whose set-up time is sampled; a
#: daemon set-up includes discovery, so serve-stream samples fewer
SETUP_SAMPLES = 5
SERVE_SETUP_SAMPLES = 3
#: reference samples (calibrate.py) timed in each gap between set-ups
#: or batch jobs, and on serve-stream once every SERVE_CALIBRATE_EVERY
#: timed operations
GAP_REFERENCE_SAMPLES = 3
SERVE_CALIBRATE_EVERY = 10
#: the cross-check of spans against NormalizationResult.timings allows
#: this share of the stage time, plus STAGE_GAP_FLOOR_S for tiny stages
STAGE_GAP_SHARE = 0.25
STAGE_GAP_FLOOR_S = 0.005
WORKLOADS = ("musicbrainz-wide", "planted-tall", "serve-stream")
#: serve-stream operation types, each with its own percentiles
OP_KINDS = ("append", "delete", "ddl", "schema")

#: end-to-end metrics; every time among them is reported at the
#: reference speed (see calibrate.py), the raw one is in the detail line
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "io.read_csv_s": "s",
    "hyfd.discover_s": "s",
    "hyfd.fds": "count",
    "kernels.scan_violations_calls": "count",
    "kernels.pli_intersect_ids_calls": "count",
    "kernels.pli_intersect_ids_rows": "count",
    "kernels.agree_pairs_calls": "count",
    "kernels.lattice_generalization_calls": "count",
    "closure.calculate_s": "s",
    "keys.derive_s": "s",
    "violations.find_s": "s",
    "violations.violating_fds": "count",
    "scoring.rank_fds_s": "s",
    "scoring.distinct_calls": "count",
    "decomposition.decompose_s": "s",
    "decomposition.splits": "count",
    "pk.select_s": "s",
    "ddl.render_s": "s",
    "normalize.null_mask_s": "s",
    "normalize.self_s": "s",
    **{f"incremental.{kind}_ms": "ms" for kind in OP_KINDS},
    "incremental.pairs_examined": "count",
    "incremental.validations": "count",
    **{
        f"server.{kind}_{stat}_ms": "ms"
        for kind in OP_KINDS
        for stat in ("p50", "p90", "overhead")
    },
    "trace.overhead_s": "s",
    "trace.stage_gap_max_s": "s",
}
#: span names summed into each per-layer time
LAYER_SPANS = {
    "io.read_csv_s": ("io.read_csv",),
    "hyfd.discover_s": ("hyfd.discover",),
    "closure.calculate_s": ("closure.calculate",),
    "keys.derive_s": ("keys.derive",),
    "violations.find_s": ("violations.find",),
    "scoring.rank_fds_s": ("scoring.rank_fds",),
    "decomposition.decompose_s": ("decomposition.decompose",),
    "pk.select_s": ("pk.ducc", "pk.rank_keys"),
    "ddl.render_s": ("ddl.render",),
    "normalize.null_mask_s": ("normalize.null_mask",),
}


class BenchError(RuntimeError):
    """The run could not be carried out; no result is printed."""


def pin_environment() -> int | None:
    """Defaults everywhere, one worker and one CPU, for this process and its children.

    This process resolves the serve-stream configuration it reports in
    this same environment, so it matches what the daemon resolves.  The
    reference task (calibrate.py) runs in this process and the program
    in a child; on one CPU they share whatever that CPU's host thread
    suffers, which a second CPU need not.  Returns the CPU, or None
    where affinity cannot be set.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_WORKERS"] = "1"
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline exceeded")
        return left


def stop(proc: subprocess.Popen, sig=signal.SIGTERM) -> None:
    """Stop a child and wait until it has ended."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ----------------------------------------------------------------------
# Batch workloads: CSV bytes -> DDL jobs in a worker process
# ----------------------------------------------------------------------
def spawn_worker(deadline: Deadline) -> tuple[subprocess.Popen, dict, float]:
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - started
    if not line:
        stop(proc)
        raise BenchError("worker exited during set-up")
    ready = json.loads(line)
    deadline.left()
    return proc, ready, setup


def sampled_setup(
    deadline: Deadline, calibration: Calibration
) -> tuple[subprocess.Popen, dict, list[float], list[float]]:
    """Start SETUP_SAMPLES workers in turn; keep the last one running.

    Returns the worker, its ready line, and the set-up times raw and at
    the reference speed.
    """
    samples = []
    scaled = []
    calibration.sample(GAP_REFERENCE_SAMPLES)
    for sample in range(SETUP_SAMPLES):
        proc, ready, setup = spawn_worker(deadline)
        try:
            calibration.sample(GAP_REFERENCE_SAMPLES)
            samples.append(setup)
            scaled.append(setup * calibration.factor())
            if sample < SETUP_SAMPLES - 1:
                proc.stdin.close()
                proc.wait(timeout=deadline.left())
                proc.stdout.close()
        except BaseException:
            stop(proc)
            raise
    return proc, ready, samples, scaled


def ask_worker(proc: subprocess.Popen, request: dict, deadline: Deadline) -> dict:
    """Send one request line and wait, within the deadline, for its reply."""
    try:
        proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.flush()
    except BrokenPipeError:
        raise BenchError(f"worker exited with code {proc.wait()}")
    ready, _, _ = select.select([proc.stdout], [], [], deadline.left())
    if not ready:
        stop(proc, signal.SIGKILL)
        raise BenchError("worker did not finish before the run deadline")
    line = proc.stdout.readline()
    if not line.strip():
        raise BenchError(f"worker exited with code {proc.wait()}")
    return json.loads(line)


def batch_workload(args, digests: dict, make_jobs) -> dict:
    deadline = Deadline(RUN_DEADLINE_S)
    calibration = Calibration()
    # The worker starts before any input exists, so its memory
    # high-water mark cannot include the generator's.
    proc, ready, setup_samples, setup_scaled = sampled_setup(deadline, calibration)
    try:
        jobs = make_jobs(args.seed, args.seconds)
        results = []
        scaled = []
        calibration.sample(GAP_REFERENCE_SAMPLES)
        for job in jobs:
            reply = ask_worker(
                proc,
                {"mode": "job", "name": job.name, "csv": job.csv.decode("utf-8")},
                deadline,
            )
            calibration.sample(GAP_REFERENCE_SAMPLES)
            results.append(reply["job"])
            scaled.append(reply["job"]["seconds"] * calibration.factor())
        peak_rss_mb = reply["peak_rss_mb"]
        if args.trace:
            trace_path = OUT_DIR / f"{args.workload}-{args.seed}.spans.jsonl"
            reply = ask_worker(
                proc,
                {
                    "mode": "traced_jobs",
                    "trace_path": str(trace_path),
                    "jobs": [
                        {"name": job.name, "csv": job.csv.decode("utf-8")}
                        for job in jobs
                    ],
                },
                deadline,
            )
    finally:
        stop(proc)

    expected = [digests[args.workload][job.digest_key] for job in jobs]
    failed = sum(
        result["ddl_sha256"] != digest for result, digest in zip(results, expected)
    )
    seconds = [result["seconds"] for result in results]
    detail = {
        "environment": ready["environment"],
        "inputs": [
            {
                "generator_seed": job.digest_key,
                "rows": result["rows"],
                "columns": result["columns"],
                "csv_bytes": len(job.csv),
                "fdtree_engine": result["fdtree_engine"],
                "storage_tier": result["storage_tier"],
            }
            for job, result in zip(jobs, results)
        ],
        "setup_samples_s": setup_samples,
        "job_seconds": seconds,
        "job_timings": [result["timings"] for result in results],
    }
    detail["calibration"] = calibration.report()
    detail["raw_metrics"] = {
        "setup_s": stats.median(setup_samples),
        "wall_s": sum(seconds),
        "op_p50_ms": stats.median(seconds) * 1000.0,
    }
    if not args.trace:
        metrics = {
            "setup_s": stats.median(setup_scaled),
            "wall_s": sum(scaled),
            "op_p50_ms": stats.median(scaled) * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }
        return result_of(len(jobs), failed, metrics, END_TO_END, detail)

    traced = reply["traced_jobs"]
    failed += sum(
        result["ddl_sha256"] != digest for result, digest in zip(traced, expected)
    )
    gap_max, gap_failures = check_stage_gaps(reply["stage_gaps"], traced)
    failed += gap_failures
    layers = reply["layers"]
    metrics = layer_metrics(layers)
    metrics["trace.overhead_s"] = sum(r["seconds"] for r in traced) - sum(seconds)
    metrics["trace.stage_gap_max_s"] = gap_max
    detail["traced_job_seconds"] = [r["seconds"] for r in traced]
    detail["stage_gaps_s"] = reply["stage_gaps"]
    detail["self_times_s"] = layers["self"]
    detail["counts"] = layers["counts"]
    detail["trace_file"] = str(trace_path)
    return result_of(2 * len(jobs), failed, metrics, PER_LAYER, detail)


def check_stage_gaps(gaps: list[dict], traced: list[dict]) -> tuple[float, int]:
    """Largest |timing - spans| and the number of jobs outside the bound."""
    worst = 0.0
    failures = 0
    for job_gaps, result in zip(gaps, traced):
        bad = False
        for stage, gap in job_gaps.items():
            worst = max(worst, abs(gap))
            allowed = STAGE_GAP_SHARE * result["timings"][stage] + STAGE_GAP_FLOOR_S
            if abs(gap) > allowed:
                bad = True
                print(
                    f"cross-check: stage {stage} reports "
                    f"{result['timings'][stage]:.4f}s but spans cover "
                    f"{result['timings'][stage] - gap:.4f}s",
                    file=sys.stderr,
                )
        failures += bad
    return worst, failures


def layer_metrics(layers: dict) -> dict:
    """Per-layer metrics from the spans and counts; 0 for layers not called."""
    metrics = {
        name: layers["counts"].get(name, 0) if unit == "count" else 0.0
        for name, unit in PER_LAYER.items()
    }
    for metric, span_names in LAYER_SPANS.items():
        metrics[metric] = sum(layers["totals"].get(n, 0.0) for n in span_names)
    metrics["normalize.self_s"] = layers["self"].get("normalize.run", 0.0)
    return metrics


# ----------------------------------------------------------------------
# serve-stream: a real `repro serve` daemon and one closed-loop client
# ----------------------------------------------------------------------
def start_daemon(socket_path: Path, log) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", str(socket_path),
            "--port", "0",
            "--workers", "1",
        ],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=log,
        cwd=ROOT,
    )


def run_op(client, kind: str, payload: dict | None):
    if kind in ("append", "delete"):
        return client.apply_batch("s", payload)
    if kind == "ddl":
        return client.ddl("s")
    return client.schema("s")


def check_op(kind: str, payload: dict | None, reply, last_ddl: str | None) -> bool:
    """Per-operation output check; reads without a write between agree."""
    if kind in ("append", "delete"):
        return (
            reply["inserts_applied"] == len(payload["inserts"])
            and reply["deletes_applied"] == len(payload["deletes"])
        )
    if kind == "ddl":
        return reply.startswith("CREATE TABLE") and (
            last_ddl is None or reply == last_ddl
        )
    return bool(reply.get("relations"))


def serve_workload(args, digests: dict) -> dict:
    import inputs
    import worker
    from repro.server.client import ReproClient, ServerError

    deadline = Deadline(RUN_DEADLINE_S)
    calibration = Calibration()
    stream = inputs.serve_stream(args.seed)
    ops = stream.ops
    setup_samples = []
    setup_scaled = []
    latencies: dict[str, list[float]] = {kind: [] for kind in OP_KINDS}
    #: (kind, latency at the reference speed) of every timed operation
    scaled: list[tuple[str, float]] = []
    attempted = failed = 0
    log_path = OUT_DIR / f"{args.workload}-{args.seed}.log"
    with open(log_path, "wb") as log:
        for sample in range(SERVE_SETUP_SAMPLES):
            socket_path = OUT_DIR / f"{args.workload}-{args.seed}-{sample}.sock"
            calibration.sample(GAP_REFERENCE_SAMPLES)
            started = time.perf_counter()
            proc = start_daemon(socket_path, log)
            try:
                client = ReproClient(socket_path=str(socket_path), tenant="bench")
                client.wait_ready(timeout=min(60.0, deadline.left()))
                client.create_session(
                    stream.csv, name=inputs.SERVE_RELATION, session="s"
                )
                for kind, payload in ops[: stream.warm]:
                    if not check_op(kind, payload, run_op(client, kind, payload), None):
                        raise BenchError(f"warm-up {kind} returned a wrong result")
                setup_samples.append(time.perf_counter() - started)
                calibration.sample(GAP_REFERENCE_SAMPLES)
                setup_scaled.append(setup_samples[-1] * calibration.factor())
                if sample < SERVE_SETUP_SAMPLES - 1:
                    continue

                last_ddl = None
                timed = ops[stream.warm :]
                for block in range(0, len(timed), SERVE_CALIBRATE_EVERY):
                    block_ms = []
                    for kind, payload in timed[block : block + SERVE_CALIBRATE_EVERY]:
                        attempted += 1
                        began = time.perf_counter()
                        try:
                            reply = run_op(client, kind, payload)
                        except (OSError, ServerError) as exc:
                            failed += 1
                            print(f"{kind} failed: {exc}", file=sys.stderr)
                            continue
                        elapsed = (time.perf_counter() - began) * 1000.0
                        latencies[kind].append(elapsed)
                        block_ms.append((kind, elapsed))
                        if not check_op(kind, payload, reply, last_ddl):
                            failed += 1
                        if kind == "ddl":
                            last_ddl = reply
                        elif kind in ("append", "delete"):
                            last_ddl = None
                        deadline.left()
                    calibration.sample(1)
                    factor = calibration.factor()
                    scaled.extend((kind, ms * factor) for kind, ms in block_ms)
                final_ddl = client.ddl("s")
            finally:
                stop(proc)
                socket_path.unlink(missing_ok=True)
    if log_path.stat().st_size == 0:
        log_path.unlink()
    # Every daemon has been waited for; the largest is the timed one.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    final_sha = hashlib.sha256(final_ddl.encode("utf-8")).hexdigest()
    expected = digests[args.workload][str(stream.variant)]
    if final_sha != expected:
        failed += 1
        print("final DDL does not match the recorded digest", file=sys.stderr)

    writes = latencies["append"] + latencies["delete"]
    from repro.structures import fdtree, storage

    detail = {
        "environment": {
            **worker.environment(),
            "fdtree_engine": fdtree.resolve_engine(inputs.SERVE_COLUMNS),
            "storage_tier": storage.resolve_tier(),
        },
        "variant": stream.variant,
        "initial_rows": inputs.SERVE_ROWS,
        "columns": inputs.SERVE_COLUMNS,
        "setup_samples_s": setup_samples,
        "samples": {kind: len(v) for kind, v in latencies.items()},
        "final_ddl_sha256": final_sha,
    }
    client_stats = {}
    for kind, samples in latencies.items():
        client_stats[f"server.{kind}_p50_ms"] = stats.median(samples)
        client_stats[f"server.{kind}_p90_ms"] = stats.tail_percentile(samples)
    detail["client_latency_ms"] = client_stats
    detail["calibration"] = calibration.report()
    detail["raw_metrics"] = {
        "setup_s": stats.median(setup_samples),
        "wall_s": sum(sum(v) for v in latencies.values()) / 1000.0,
        "op_p50_ms": stats.median(writes),
    }
    if not args.trace:
        metrics = {
            "setup_s": stats.median(setup_scaled),
            "wall_s": sum(ms for _, ms in scaled) / 1000.0,
            "op_p50_ms": stats.median(
                [ms for kind, ms in scaled if kind in ("append", "delete")]
            ),
            "peak_rss_mb": peak_rss_mb,
        }
        return result_of(attempted, failed, metrics, END_TO_END, detail)

    proc, _, _ = spawn_worker(deadline)
    try:
        trace_path = OUT_DIR / f"{args.workload}-{args.seed}.spans.jsonl"
        reply = ask_worker(
            proc,
            {
                "mode": "replay",
                "csv": stream.csv.decode("utf-8"),
                "relation": inputs.SERVE_RELATION,
                "ops": ops,
                "warm": stream.warm,
                "trace_path": str(trace_path),
            },
            deadline,
        )
    finally:
        stop(proc)
    for replay in (reply["untraced"], reply["traced"]):
        attempted += 1
        if replay["final_ddl_sha256"] != final_sha:
            failed += 1
            print("in-process replay disagrees with the daemon", file=sys.stderr)
    layers = reply["layers"]
    metrics = layer_metrics(layers)
    metrics.update(client_stats)
    engine = reply["untraced"]["latencies_ms"]
    for kind in OP_KINDS:
        engine_p50 = stats.median(engine[kind])
        metrics[f"incremental.{kind}_ms"] = engine_p50
        metrics[f"server.{kind}_overhead_ms"] = (
            client_stats[f"server.{kind}_p50_ms"] - engine_p50
        )
    metrics["incremental.pairs_examined"] = reply["traced"]["pairs_examined"]
    metrics["incremental.validations"] = reply["traced"]["validations"]
    metrics["trace.overhead_s"] = (
        sum(sum(v) for v in reply["traced"]["latencies_ms"].values())
        - sum(sum(v) for v in engine.values())
    ) / 1000.0
    detail["self_times_s"] = layers["self"]
    detail["counts"] = layers["counts"]
    detail["trace_file"] = str(trace_path)
    return result_of(attempted, failed, metrics, PER_LAYER, detail)


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
def result_of(attempted: int, failed: int, values: dict, units: dict, detail: dict) -> dict:
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
        },
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # A SIGTERM unwinds like an exception, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    cpu = pin_environment()
    OUT_DIR.mkdir(exist_ok=True)
    import inputs

    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    try:
        if args.workload == "serve-stream":
            out = serve_workload(args, digests)
        elif args.workload == "musicbrainz-wide":
            out = batch_workload(args, digests, inputs.musicbrainz_jobs)
        else:
            out = batch_workload(args, digests, inputs.planted_jobs)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "load": "closed loop, one client, workers=1",
        **out["detail"],
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
