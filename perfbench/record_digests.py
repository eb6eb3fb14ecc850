"""Record the DDL digests that every benchmark run checks its output against.

Run from the repository root::

    python3 perfbench/record_digests.py

It writes ``perfbench/digests.json``: the SHA-256 of the DDL of every
batch input, and of the final DDL of every serve-stream variant (from an
in-process replay through ``IncrementalNormalizer``; the benchmark's
traced run checks that the daemon agrees with it).  Re-record only when
a change is *meant* to alter the DDL, and say so in its description: a
digest that moved by accident is a correctness failure, not a stale
file.  Batch inputs are also checked under several row orders, because
the benchmark relies on the DDL not depending on row order.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the program's sources on sys.path)
import inputs  # noqa: E402

#: extra row orders each batch input is checked under
ROW_ORDERS = 2


def batch_digest(job: inputs.Job) -> str:
    digests = {worker.run_job(job.csv, job.name)["ddl_sha256"]}
    text = job.csv.decode("utf-8").splitlines()
    header, rows = text[0], text[1:]
    for order in range(ROW_ORDERS):
        random.Random(order).shuffle(rows)
        csv = "\n".join([header, *rows]) + "\n"
        digests.add(worker.run_job(csv.encode("utf-8"), job.name)["ddl_sha256"])
    if len(digests) != 1:
        raise SystemExit(f"DDL of {job.name}/{job.digest_key} depends on row order")
    return digests.pop()


def main() -> int:
    out: dict[str, dict[str, str]] = {
        "musicbrainz-wide": {},
        "planted-tall": {},
        "serve-stream": {},
    }
    for workload, jobs in (
        ("musicbrainz-wide", inputs.musicbrainz_jobs(0, 0)),
        ("planted-tall", inputs.planted_jobs(0, 0)[:1]),
    ):
        for job in jobs:
            if job.digest_key not in out[workload]:
                out[workload][job.digest_key] = batch_digest(job)
                print(workload, job.digest_key, out[workload][job.digest_key])
    for variant in range(inputs.SERVE_VARIANTS):
        stream = inputs.serve_stream(variant)
        replay = worker.replay_stream(
            {
                "csv": stream.csv.decode("utf-8"),
                "relation": inputs.SERVE_RELATION,
                "ops": stream.ops,
                "warm": stream.warm,
            },
            None,
        )
        out["serve-stream"][str(variant)] = replay["final_ddl_sha256"]
        print("serve-stream", variant, replay["final_ddl_sha256"])
    (HERE / "digests.json").write_text(
        json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
