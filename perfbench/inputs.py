"""Seeded inputs for the three workloads.

Everything the program under test receives is produced here, in the
``run.py`` process, as CSV bytes or change-batch JSON: the program never
sees a generator.  Each workload fixes the *amount* of work a run does,
so that two runs differ only in the host's speed, never in their input
size.  The seed decides what is permuted inside that fixed work:

* ``musicbrainz-wide`` runs the Figure-4 universal relation
  (:func:`repro.datagen.musicbrainz.denormalized_musicbrainz`, all 32
  columns) at a quarter of its table sizes, for a fixed list of
  generator seeds; the run seed only rotates the job order.  At full
  size one job takes about 15 s, too long for a run to hold more than
  two, and far too long for the reference samples around a job to see
  the host speed it ran at (see ``calibrate.py``).  Rows keep the generator's order because HyFD's
  sampling cost on this relation moves by 2x with row order.
* ``planted-tall`` runs one planted relation (8 columns, 12,500 rows,
  7 minimal FDs) sixteen times per run, each job with its rows in a
  different seeded order.  The DDL does not depend on row order, so
  one recorded digest checks every job of every seed.
* ``serve-stream`` uploads a 7-column, 3,000-row planted relation and
  streams appends, deletes and reads.  The seed picks one of
  :data:`SERVE_VARIANTS` streams, each with a recorded final-DDL
  digest.  Appended rows continue the planted generator, so they obey
  the planted FDs and keep the planted key unique.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

from repro.datagen.musicbrainz import MusicBrainzScale, denormalized_musicbrainz
from repro.model.instance import RelationInstance
from repro.verification.planted import plant_instance

#: Figure 4 is generator seed 7 at the default scale (213 rows x 32
#: columns).  Every table at a quarter of its default size gives seeds
#: 2, 5 and 10 as 42, 42 and 40 rows x 32 columns, 1.3-1.7 s a job.
MUSICBRAINZ_SCALE = MusicBrainzScale(
    areas=2,
    places=3,
    artists=6,
    artist_credits=5,
    artist_credit_names=8,
    labels=2,
    releases=6,
    release_labels=8,
    mediums=8,
    recordings=15,
    tracks=27,
    max_joined_rows=105,
)
MUSICBRAINZ_SEEDS = (2, 5, 10)
MUSICBRAINZ_JOB_S = 1.5

PLANTED_SEED = 0
PLANTED_COLUMNS = 8
PLANTED_ROWS = 12_500
PLANTED_JOB_S = 1.25

SERVE_SEED = 11
SERVE_COLUMNS = 7
SERVE_ROWS = 3_000
SERVE_VARIANTS = 8
SERVE_RELATION = "planted"
#: timed operations per stream; every type clears the p90 sample floor
SERVE_APPENDS = 150
SERVE_DELETES = 150
#: reads alternate GET .../ddl (renders) and .../schema (a lookup)
SERVE_READS = 300
SERVE_BATCH_ROWS = 5
#: untimed prefix: the first delete builds the negative cover lazily
SERVE_WARM_OPS = ("delete", "append", "ddl", "schema")


def csv_bytes(columns: tuple[str, ...], rows) -> bytes:
    """Serialize rows the way a user's CSV file would hold them."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if value is None else value for value in row])
    return buffer.getvalue().encode("utf-8")


@dataclass(frozen=True, slots=True)
class Job:
    """One CSV -> DDL job: the input bytes and the digest key they check."""

    name: str
    digest_key: str
    csv: bytes


def job_count(seconds: float, nominal_job_s: float, minimum: int) -> int:
    """Jobs per run: a fixed function of ``--seconds``, never of the host."""
    return max(minimum, round(seconds / nominal_job_s))


def musicbrainz_jobs(seed: int, seconds: float) -> list[Job]:
    # Whole rounds over the seeds, so every run does the same work.
    rounds = job_count(seconds, MUSICBRAINZ_JOB_S * len(MUSICBRAINZ_SEEDS), 1)
    count = rounds * len(MUSICBRAINZ_SEEDS)
    relations = {}
    for generator_seed in MUSICBRAINZ_SEEDS:
        instance = denormalized_musicbrainz(MUSICBRAINZ_SCALE, seed=generator_seed)
        relations[generator_seed] = csv_bytes(
            instance.columns, instance.iter_rows()
        )
    start = seed % len(MUSICBRAINZ_SEEDS)
    jobs = []
    for index in range(count):
        generator_seed = MUSICBRAINZ_SEEDS[
            (start + index) % len(MUSICBRAINZ_SEEDS)
        ]
        jobs.append(
            Job("musicbrainz", str(generator_seed), relations[generator_seed])
        )
    return jobs


def planted_jobs(seed: int, seconds: float) -> list[Job]:
    count = job_count(seconds, PLANTED_JOB_S, 3)
    instance = plant_instance(
        PLANTED_SEED, num_columns=PLANTED_COLUMNS, num_rows=PLANTED_ROWS
    ).instance
    rows = list(instance.iter_rows())
    rng = random.Random(seed)
    jobs = []
    for _ in range(count):
        rng.shuffle(rows)
        jobs.append(
            Job("planted", str(PLANTED_SEED), csv_bytes(instance.columns, rows))
        )
    return jobs


@dataclass(frozen=True, slots=True)
class Stream:
    """The serve-stream input: initial upload plus an operation list.

    ``ops`` items are ``("append", batch)``, ``("delete", batch)``,
    ``("ddl", None)`` or ``("schema", None)``; the first
    ``len(SERVE_WARM_OPS)`` are set-up, the rest are timed.
    """

    variant: int
    csv: bytes
    ops: tuple[tuple[str, dict | None], ...]

    @property
    def warm(self) -> int:
        return len(SERVE_WARM_OPS)


def serve_stream(seed: int) -> Stream:
    variant = seed % SERVE_VARIANTS
    appended = (SERVE_APPENDS + 1) * SERVE_BATCH_ROWS
    source: RelationInstance = plant_instance(
        SERVE_SEED,
        num_columns=SERVE_COLUMNS,
        num_rows=SERVE_ROWS + appended,
    ).instance
    rows = list(source.iter_rows())
    initial, pending = rows[:SERVE_ROWS], rows[SERVE_ROWS:]

    rng = random.Random(variant)
    live = list(range(SERVE_ROWS))
    next_id = SERVE_ROWS
    timed = (
        ["append"] * SERVE_APPENDS
        + ["delete"] * SERVE_DELETES
        + ["read"] * SERVE_READS
    )
    rng.shuffle(timed)
    ops: list[tuple[str, dict | None]] = []
    reads = 0
    for kind in list(SERVE_WARM_OPS) + timed:
        if kind == "append":
            batch_rows = pending[:SERVE_BATCH_ROWS]
            del pending[:SERVE_BATCH_ROWS]
            ops.append(
                (
                    "append",
                    {
                        "inserts": [
                            [None if v is None else str(v) for v in row]
                            for row in batch_rows
                        ],
                        "deletes": [],
                    },
                )
            )
            live.extend(range(next_id, next_id + len(batch_rows)))
            next_id += len(batch_rows)
        elif kind == "delete":
            victims = sorted(rng.sample(live, SERVE_BATCH_ROWS))
            gone = set(victims)
            live = [row_id for row_id in live if row_id not in gone]
            ops.append(("delete", {"inserts": [], "deletes": victims}))
        elif kind == "read":
            ops.append((("ddl", "schema")[reads % 2], None))
            reads += 1
        else:
            ops.append((kind, None))
    return Stream(variant, csv_bytes(source.columns, initial), tuple(ops))
