"""The lineage memo: scores shared along a decomposition equal fresh ones.

One :class:`~repro.core.scoring.LineageMemo` serves an input relation
and every relation decomposed from it, keyed by attribute names.  That
is sound because a decomposition half holding the attributes ``Z`` has
exactly its parent's distinct ``Z`` values (``R1`` keeps every row,
``R2`` one per distinct ``X ∪ Y``) — as long as equal values have
equal reprs.  The tests below decompose random instances at random and
compare every memoized value with a fresh per-relation oracle, check
that two inputs of one run never share entries, and pin the DDL of the
paper's fixtures to the oracle's.
"""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalize import Normalizer
from repro.core.scoring import DistinctEstimator, LineageMemo
from repro.datagen.musicbrainz import MusicBrainzScale, denormalized_musicbrainz
from repro.datagen.profiles import (
    amalgam_like,
    flight_like,
    horse_like,
    plista_like,
)
from repro.datagen.tpch import TpchScale, denormalized_tpch
from repro.discovery.hyfd import HyFD
from repro.discovery.precomputed import PrecomputedFDs
from repro.io.ddl import schema_to_ddl
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from tests.scoring_oracle import (
    OracleEstimator,
    oracle_distinct,
    oracle_max_value_length,
)

pipeline = importlib.import_module("repro.core.normalize")

TEXT_VALUES = [None, "", "a", "b", "ab", "a, 'b", "ç"]
MIXED_VALUES = TEXT_VALUES + [0, 1, 1.0, True, False, 0.0, -0.0, 2, 10]


@st.composite
def lineages(draw, values):
    """A random instance plus the relations of a random decomposition."""
    arity = draw(st.integers(2, 5))
    rows = draw(
        st.lists(
            st.tuples(*[st.sampled_from(values)] * arity), min_size=0, max_size=25
        )
    )
    columns = tuple("abcde"[:arity])
    root = RelationInstance.from_rows(Relation("r", columns), rows)
    relations = [root]
    for step in range(draw(st.integers(0, 4))):
        parent = relations[draw(st.integers(0, len(relations) - 1))]
        full = parent.full_mask()
        if parent.arity < 2:
            continue
        x = draw(st.integers(1, full - 1))
        y = draw(st.integers(1, full)) & full & ~x
        if not y or not (full & ~y):
            continue
        relations.append(parent.project(full & ~y))
        relations.append(parent.project(x | y, name=f"r{step}", dedup=True))
    order = draw(st.permutations(range(len(relations))))
    return root, [relations[index] for index in order]


def _check_lineage(root, relations):
    memo = LineageMemo(root)
    queries = 0
    for relation in relations:
        estimator = DistinctEstimator(relation, memo=memo)
        for mask in range(1, 1 << relation.arity):
            queries += 1
            fresh = oracle_distinct(relation, mask)
            shared = estimator.distinct(mask)
            assert shared == fresh and shared.hex() == fresh.hex()
            assert estimator.max_value_length(mask) == oracle_max_value_length(
                relation, mask
            )
    return memo, queries


@settings(max_examples=60, deadline=None)
@given(lineages(TEXT_VALUES))
def test_text_lineage_matches_fresh_oracle(lineage):
    memo, queries = _check_lineage(*lineage)
    # Text columns are repr-exact: every estimate went through the memo.
    assert memo.estimates or not queries


@settings(max_examples=60, deadline=None)
@given(lineages(MIXED_VALUES))
def test_mixed_lineage_matches_fresh_oracle(lineage):
    _check_lineage(*lineage)


def test_memo_serves_descendants():
    """A descendant's estimate is read from the memo, not recomputed."""
    rows = [(f"k{i % 5}", f"v{i % 3}", str(i)) for i in range(30)]
    root = RelationInstance.from_rows(Relation("r", ("k", "v", "i")), rows)
    memo = LineageMemo(root)
    DistinctEstimator(root, memo=memo).distinct(0b011)
    child = root.project(0b011)  # R1-like: same rows, same row count
    # Keys are bitmasks over the root's columns: k and v are bits 0 and 1.
    assert memo.estimates[(0b011, 30)] == oracle_distinct(child, 0b11)
    memo.estimates[(0b011, 30)] = -1.0
    assert DistinctEstimator(child, memo=memo).distinct(0b11) == -1.0


def test_mixed_columns_bypass_the_memo():
    # R2 deduplicates on equality, so (1,) and (1.0,) collapse there.
    rows = [(1, "a"), (1.0, "a"), (True, "b")]
    root = RelationInstance.from_rows(Relation("r", ("n", "s")), rows)
    memo = LineageMemo(root)
    assert not memo.repr_exact(0b01)
    assert memo.repr_exact(0b10)
    child = root.project(0b11, name="r2", dedup=True)
    assert child.num_rows == 2
    estimator = DistinctEstimator(child, memo=memo)
    assert estimator.distinct(0b01) == oracle_distinct(child, 0b01)
    assert all(not attributes & 0b01 for attributes, _ in memo.estimates)


def _address_like(name: str, seed: int) -> RelationInstance:
    cities = ["Berlin", "Potsdam", "Hamburg", "Bremen"]
    rows = []
    for index in range(24):
        city = cities[(index * (seed + 1)) % len(cities)]
        rows.append(
            (
                f"first{index % (5 + seed)}",
                f"last{index % 7}",
                f"{city[:3]}-{index % (3 + seed)}",
                city,
                f"mayor of {city}",
            )
        )
    columns = ("First", "Last", "Postcode", "City", "Mayor")
    return RelationInstance.from_rows(Relation(name, columns), rows)


def test_two_inputs_never_share_memo_entries(monkeypatch):
    memos: list[LineageMemo] = []

    class Recording(LineageMemo):
        __slots__ = ()

        def __init__(self, root):
            super().__init__(root)
            memos.append(self)

    monkeypatch.setattr(pipeline, "LineageMemo", Recording)
    inputs = [_address_like("left", 0), _address_like("right", 2)]
    result = Normalizer(algorithm="bruteforce").run(inputs)
    assert result.steps
    assert [memo.root for memo in memos] == inputs
    for memo in memos:
        root = memo.root
        assert memo.estimates
        for (attributes, num_rows), estimate in memo.estimates.items():
            assert estimate == oracle_distinct(root, attributes, num_rows)
        for attributes, length in memo.lengths.items():
            assert length == oracle_max_value_length(root, attributes)

    monkeypatch.setattr(pipeline, "LineageMemo", LineageMemo)
    monkeypatch.setattr(pipeline, "DistinctEstimator", OracleEstimator)
    oracle = Normalizer(algorithm="bruteforce").run(inputs)
    assert schema_to_ddl(result.schema, result.instances) == schema_to_ddl(
        oracle.schema, oracle.instances
    )


# ----------------------------------------------------------------------
# DDL byte-identity on the paper's fixtures
# ----------------------------------------------------------------------
#: The Table 3 and figure fixtures at reduced sizes, to keep the suite
#: fast; Figure 4 has every table at a quarter of its default size (the
#: full 213×32 relation is compared by
#: benchmarks/bench_figure4_musicbrainz.py)
QUARTER_MUSICBRAINZ = MusicBrainzScale(
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
#: Figure 3 at a quarter of every table but the fixed-size dimensions
QUARTER_TPCH = TpchScale(
    suppliers=5,
    parts=10,
    partsupps=20,
    customers=6,
    orders=15,
    lineitems=55,
)

FIXTURES = {
    "table3-horse": lambda: horse_like(num_rows=150),
    "table3-plista": lambda: plista_like(num_rows=300),
    "table3-amalgam1": amalgam_like,
    "table3-flight": lambda: flight_like(num_rows=100),
    "figure3-tpch": lambda: denormalized_tpch(QUARTER_TPCH),
    "figure4-musicbrainz": lambda: denormalized_musicbrainz(
        QUARTER_MUSICBRAINZ, seed=2
    ),
}


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_ddl_identical_to_oracle(fixture, monkeypatch):
    instance = FIXTURES[fixture]()
    fds = HyFD().discover(instance)

    def ddl() -> str:
        result = Normalizer(algorithm=PrecomputedFDs({instance.name: fds})).run(
            instance
        )
        assert result.steps
        return schema_to_ddl(result.schema, result.instances)

    produced = ddl()
    monkeypatch.setattr(pipeline, "DistinctEstimator", OracleEstimator)
    assert produced == ddl()

