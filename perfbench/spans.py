"""Outside-in spans around each layer's public calls.

The program carries no instrumentation of its own for the benchmark, so
the traced run patches timing wrappers onto the public functions of
each layer, from the benchmark's side, for the duration of the run.
``repro.core.normalize`` imports the pipeline stages by name, so those
are patched *where that module looks them up*: a wrapper on
``repro.core.closure.calculate_closure`` alone would never be called
by the pipeline and would read zero.  The cross-check against
``NormalizationResult.timings`` (see :func:`stage_gaps`) is what would
catch such a silent zero.

A span records name, start, end, parent span and job id.  Spans stay
in memory; :meth:`Tracer.write_jsonl` writes them out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

#: pipeline stage (``NormalizationResult.timings`` key) -> the spans
#: whose total should account for it.  The pipeline times the NULL-mask
#: scan that builds ``find_violating_fds``'s argument as part of
#: violation detection, and scans again in primary-key selection; a
#: ``normalize.null_mask`` span belongs to the latter once the job's
#: first ``pk.ducc`` span has started (step 7 follows the loop).
STAGE_SPANS = {
    "fd_discovery": ("hyfd.discover",),
    "closure": ("closure.calculate",),
    "key_derivation": ("keys.derive",),
    "violation_detection": ("violations.find", "normalize.null_mask"),
    "selection": ("scoring.rank_fds",),
    "decomposition": ("decomposition.decompose",),
    "primary_key_selection": ("pk.ducc", "pk.rank_keys", "normalize.null_mask"),
}

#: kernel counters (``repro.kernels.counters_snapshot`` keys) reported
#: as their increase over the traced part of a run
KERNEL_COUNTERS = {
    "kernels.scan_violations_calls": "kernel_scan_violations_calls",
    "kernels.pli_intersect_ids_calls": "kernel_pli_intersect_ids_calls",
    "kernels.pli_intersect_ids_rows": "kernel_pli_intersect_ids_rows",
    "kernels.agree_pairs_calls": "kernel_agree_pairs_calls",
    "kernels.lattice_generalization_calls": "kernel_lattice_generalization_calls",
}


class Tracer:
    """In-memory span and counter recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self.kernel_mark: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        original = vars(owner).get(attr)
        self._patches.append((owner, attr, original, own))
        if isinstance(original, staticmethod):
            replacement = staticmethod(replacement)
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``after(result, counts)`` may add counts derived from the result.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            tracer.counts[f"{name}.calls"] += 1
            if after is not None:
                after(result, tracer.counts)
            return result

        self._patch(owner, attr, traced)

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Reading the spans back
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span["name"]] = out.get(span["name"], 0.0) + span["end"] - span["start"]
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its children cover.

        Children of one span never overlap (the program runs them one
        after another), so their durations sum without double counting.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time[span["id"]]
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def install_layer_wrappers(tracer: Tracer) -> None:
    """Patch spans and counters onto every layer the benchmark reports.

    Kernel counters are process-wide, so they are read as the delta
    between this call and :func:`remove_layer_wrappers`.
    """
    import importlib

    from repro import kernels
    from repro.core.scoring import DistinctEstimator
    from repro.discovery.hyfd import HyFD
    from repro.discovery.ucc import DuccUCC
    from repro.incremental import engine

    # ``repro.core.normalize`` the attribute is the convenience function;
    # the stages are looked up in the module of the same name.
    pipeline = importlib.import_module("repro.core.normalize")
    tracer.kernel_mark = kernels.counters_snapshot()
    tracer.wrap(
        HyFD,
        "discover",
        "hyfd.discover",
        after=lambda fds, counts: counts.update(
            {"hyfd.fds": fds.count_single_rhs()}
        ),
    )
    tracer.wrap(pipeline.Normalizer, "run", "normalize.run")
    tracer.wrap(pipeline, "calculate_closure", "closure.calculate")
    tracer.wrap(pipeline, "derive_keys", "keys.derive")
    tracer.wrap(pipeline.Normalizer, "_null_mask", "normalize.null_mask")
    tracer.wrap(
        pipeline,
        "find_violating_fds",
        "violations.find",
        after=lambda violating, counts: counts.update(
            {"violations.violating_fds": len(violating)}
        ),
    )
    tracer.wrap(pipeline, "rank_violating_fds", "scoring.rank_fds")
    tracer.count(DistinctEstimator, "distinct", "scoring.distinct_calls")
    tracer.wrap(
        pipeline,
        "decompose",
        "decomposition.decompose",
        after=lambda outcome, counts: counts.update({"decomposition.splits": 1}),
    )
    tracer.wrap(DuccUCC, "discover", "pk.ducc")
    tracer.wrap(pipeline, "rank_keys", "pk.rank_keys")
    tracer.wrap(engine, "schema_to_ddl", "ddl.render")


def remove_layer_wrappers(tracer: Tracer) -> None:
    from repro import kernels

    delta = kernels.counters_delta(tracer.kernel_mark)
    for metric, key in KERNEL_COUNTERS.items():
        tracer.counts[metric] += delta.get(key, 0)
    tracer.restore()


def stage_gaps(timings: dict[str, float], spans: list[dict]) -> dict[str, float]:
    """Program-reported stage time minus the spans of one job covering it."""
    pk_start = min(
        (span["start"] for span in spans if span["name"] == "pk.ducc"),
        default=float("inf"),
    )
    covered = dict.fromkeys(STAGE_SPANS, 0.0)
    for span in spans:
        for stage, names in STAGE_SPANS.items():
            if span["name"] not in names:
                continue
            if span["name"] == "normalize.null_mask" and (
                (span["start"] >= pk_start)
                != (stage == "primary_key_selection")
            ):
                continue
            covered[stage] += span["end"] - span["start"]
    return {
        stage: seconds - covered[stage]
        for stage, seconds in timings.items()
        if stage in STAGE_SPANS
    }
