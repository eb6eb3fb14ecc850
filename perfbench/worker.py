"""The process that runs the program in-process for ``run.py``.

It runs the batch workloads' CSV -> DDL jobs, and the in-process
replay of a serve stream in traced runs.  It is started fresh, before
run.py generates any input, so that its memory high-water mark
holds only the program's own allocations; it receives nothing but CSV
bytes and change batches on stdin.

Protocol: on start the worker imports the program, resolves the kernel
backend and FD-tree policy, runs one tiny warm-up job, and prints one
``{"ready": ...}`` line.  It then reads JSON requests from stdin, one
a line, and answers each with one JSON line, until stdin ends.  An
empty stdin makes it exit after set-up, which is how set-up time is
sampled.  Requests:

* ``{"mode": "job", "name": ..., "csv": ...}`` runs one CSV -> DDL
  job; ``run.py`` sends the jobs one at a time so that it can time its
  reference task (``calibrate.py``) in between;
* ``{"mode": "traced_jobs", "jobs": [...], "trace_path": ...}`` runs
  the jobs again with the layer wrappers installed;
* ``{"mode": "replay", ...}`` replays a serve stream in-process.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro import kernels  # noqa: E402
from repro.core.normalize import Normalizer  # noqa: E402
from repro.incremental.changes import ChangeBatch  # noqa: E402
from repro.incremental.engine import IncrementalNormalizer  # noqa: E402
from repro.io.csv_io import read_csv  # noqa: E402
from repro.io.ddl import schema_to_ddl  # noqa: E402
from repro.io.serialization import schema_to_json  # noqa: E402
from repro.structures import fdtree, storage  # noqa: E402

from spans import (  # noqa: E402
    Tracer,
    install_layer_wrappers,
    remove_layer_wrappers,
    stage_gaps,
)

#: 14 columns so the warm-up also builds a level-engine FD-tree
_WARM_COLUMNS = 14
_WARM_ROWS = 24


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_job(csv: bytes, name: str, tracer: Tracer | None = None) -> dict:
    """CSV bytes -> DDL text along the command line's path."""
    started = time.perf_counter()
    with _span(tracer, "io.read_csv"):
        instance = read_csv(csv, name=name)
    result = Normalizer(workers=1).run(instance)
    with _span(tracer, "ddl.render"):
        ddl = schema_to_ddl(result.schema, result.instances)
    seconds = time.perf_counter() - started
    return {
        "seconds": seconds,
        "ddl_sha256": sha256(ddl),
        "timings": result.timings,
        "rows": instance.num_rows,
        "columns": instance.arity,
        "fdtree_engine": fdtree.resolve_engine(instance.arity),
        "storage_tier": instance.encoded(True).tier,
    }


def _warm_csv() -> bytes:
    lines = [",".join(f"w{c}" for c in range(_WARM_COLUMNS))]
    for row in range(_WARM_ROWS):
        lines.append(
            ",".join(str(row * (c + 1) % (c + 3)) for c in range(_WARM_COLUMNS))
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": (
            kernels.numpy_module().__version__
            if kernels.numpy_available()
            else None
        ),
        "kernel_backend": kernels.backend_name(),
        "fdtree_policy": fdtree.engine_name(),
        "storage_policy": storage.policy_name(),
        "workers": 1,
    }


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Batch jobs
# ----------------------------------------------------------------------
def traced_jobs_request(request: dict) -> dict:
    jobs = request["jobs"]
    tracer = Tracer()
    install_layer_wrappers(tracer)
    traced = []
    try:
        for index, job in enumerate(jobs):
            tracer.job = f"job{index}"
            with tracer.span("job"):
                traced.append(
                    run_job(job["csv"].encode("utf-8"), job["name"], tracer)
                )
    finally:
        remove_layer_wrappers(tracer)
    tracer.write_jsonl(request["trace_path"])
    return {
        "traced_jobs": traced,
        "layers": layer_report(tracer),
        "stage_gaps": [
            stage_gaps(
                result["timings"],
                [span for span in tracer.spans if span["job"] == f"job{index}"],
            )
            for index, result in enumerate(traced)
        ],
    }


def layer_report(tracer: Tracer) -> dict:
    totals = tracer.totals()
    self_times = tracer.self_times()
    counts = {key: int(value) for key, value in tracer.counts.items()}
    return {"totals": totals, "self": self_times, "counts": counts}


# ----------------------------------------------------------------------
# In-process replay of a serve stream
# ----------------------------------------------------------------------
def replay_stream(request: dict, tracer: Tracer | None) -> dict:
    engine = IncrementalNormalizer(
        read_csv(request["csv"].encode("utf-8"), name=request["relation"])
    )
    ops = request["ops"]
    warm = request["warm"]
    for kind, payload in ops[:warm]:
        _apply(engine, kind, payload)
    if tracer is not None:
        install_layer_wrappers(tracer)
    latencies: dict[str, list[float]] = {}
    pairs = validations = 0
    try:
        for kind, payload in ops[warm:]:
            started = time.perf_counter()
            with _span(tracer, f"incremental.{kind}"):
                outcome = _apply(engine, kind, payload)
            elapsed = (time.perf_counter() - started) * 1000.0
            latencies.setdefault(kind, []).append(elapsed)
            if outcome is not None:
                pairs += outcome.delta.pairs_examined
                validations += outcome.delta.validations
    finally:
        if tracer is not None:
            remove_layer_wrappers(tracer)
    return {
        "latencies_ms": latencies,
        "pairs_examined": pairs,
        "validations": validations,
        "final_ddl_sha256": sha256(engine.ddl()),
    }


def _apply(engine: IncrementalNormalizer, kind: str, payload):
    if kind in ("append", "delete"):
        return engine.apply_batch(ChangeBatch.from_json(payload, coerce_str=True))
    if kind == "ddl":
        engine.ddl()
    else:
        json.dumps(schema_to_json(engine.schema))
    return None


def replay_request(request: dict) -> dict:
    untraced = replay_stream(request, None)
    tracer = Tracer()
    traced = replay_stream(request, tracer)
    tracer.write_jsonl(request["trace_path"])
    return {
        "untraced": untraced,
        "traced": traced,
        "layers": layer_report(tracer),
    }


def main() -> int:
    kernels.active()
    fdtree.engine_name()
    run_job(_warm_csv(), "warmup")
    print(json.dumps({"ready": True, "environment": environment()}), flush=True)
    for line in sys.stdin:
        if not line.strip():
            continue
        request = json.loads(line)
        if request["mode"] == "job":
            out = {"job": run_job(request["csv"].encode("utf-8"), request["name"])}
        elif request["mode"] == "traced_jobs":
            out = traced_jobs_request(request)
        elif request["mode"] == "replay":
            out = replay_request(request)
        else:
            raise ValueError(f"unknown mode {request['mode']!r}")
        out["peak_rss_mb"] = peak_rss_mb()
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
