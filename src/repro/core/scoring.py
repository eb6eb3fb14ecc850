"""Constraint scoring — the paper's §7 quality features.

All syntactically valid keys and violating FDs are equally *correct*;
the features below score how likely each is to be a semantically *true*
constraint, so candidates can be ranked for the (semi-)automatic
selection.  The formulas follow §7 exactly:

Primary-key candidates ``X`` (mean of three scores):

* length  — ``1/|X|``: designers prefer short keys,
* value   — ``1/max(1, maxlen(X) − 7)``: key values are short; values
  of multi-attribute keys are concatenated,
* position — ``(1/(left(X)+1) + 1/(between(X)+1)) / 2``: keys sit left
  and contiguous in the column order.

Violating FDs ``X → Y`` (mean of four scores):

* length  — ``(1/|X| + |Y|/(|R|−2)) / 2``: short LHS (it becomes a
  key), long RHS (larger split-off relation, higher confidence).  The
  RHS can be at most ``|R|−2`` attributes long, which normalizes the
  second term,
* value   — as for keys, on ``X``,
* position — ``(1/(between(X)+1) + 1/(between(Y)+1)) / 2``: coherent
  FDs have contiguous sides; the gap *between* the sides is ignored,
* duplication — ``(2 − uniq(X)/n − uniq(Y)/n) / 2``: many duplicates
  mean much removable redundancy, and duplicate LHS values that never
  violate the FD are evidence it is no accident.  Distinct counts are
  estimated with Bloom filters (``exact=True`` switches to exact
  counting, used by the ablation benchmark).

How the estimates are computed
------------------------------
The estimate of ``uniq(X)`` is the fill-ratio estimate of a filter
sized for ``n`` rows into which every projected row of ``X`` went by its
``repr``.  That value decides which FD is split off, so it must not
change by a single bit; three facts make it cheap all the same:

* *Distinct items suffice.*  A filter's bits are the OR of each item's
  probe positions, so they depend only on the **set of distinct repr
  strings** and the filter size.  Each distinct projected row is hashed
  once.  Row reprs are joined from per-column value reprs, as
  ``tuple.__repr__`` writes them; the longest concatenated value comes
  from per-column value lengths.
* *The repr pitfall.*  ``1 == 1.0 == True`` but their reprs differ, so
  rows are deduplicated on their repr text, never on value equality or
  dictionary codes.  Only in columns of ``str``, ``int`` and ``None``
  values ("repr-exact": every ``read_csv`` column) do equal values
  always have equal reprs.
* *The lineage invariant.*  Every relation a decomposition produces is a
  projection of its input: ``R1`` keeps every row, ``R2`` keeps one row
  per distinct ``X ∪ Y`` value.  Either way a descendant holding the
  attributes named ``Z`` has exactly the input's distinct ``Z`` values —
  provided ``Z`` is repr-exact, since ``R2`` deduplicates on equality.
  A :class:`LineageMemo` per input relation therefore shares, across
  all its descendants, the estimate per (``Z`` names, ``n``) — the
  filter size comes from ``n`` — and the max length per ``Z`` names,
  for repr-exact ``Z`` (judged on the input); any other ``Z`` is
  recomputed per relation.  The memo holds floats and ints only and
  lives for one :meth:`~repro.core.normalize.Normalizer.run`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from dataclasses import dataclass

from repro.model.attributes import bits_of, count_bits, iter_bits
from repro.model.fd import FD
from repro.model.instance import RelationInstance
from repro.structures.bloom import BloomFilter

__all__ = [
    "DistinctEstimator",
    "KeyScore",
    "LineageMemo",
    "ViolatingFDScore",
    "rank_keys",
    "rank_violating_fds",
    "score_key",
    "score_violating_fd",
]

#: value types whose equal values always have equal reprs (``bool`` is
#: excluded: ``True == 1``)
_REPR_EXACT_TYPES = frozenset((str, int, type(None)))


# ----------------------------------------------------------------------
# Shared feature helpers
# ----------------------------------------------------------------------
def _length_score_key(mask: int) -> float:
    return 1.0 / max(1, count_bits(mask))


def _value_score(estimator: DistinctEstimator, mask: int) -> float:
    return 1.0 / max(1, estimator.max_value_length(mask) - 7)


def _left_count(mask: int) -> int:
    """Attributes positioned before the first attribute of ``mask``."""
    if not mask:
        return 0
    return (mask & -mask).bit_length() - 1


def _between_count(mask: int) -> int:
    """Non-member attributes between the first and last member of ``mask``."""
    if not mask:
        return 0
    span = mask.bit_length() - _left_count(mask)
    return span - count_bits(mask)


def _printed_length(value) -> int:
    """A value's length in the value score; NULL counts as empty."""
    return 0 if value is None else len(str(value))


def _is_repr_exact(column) -> bool:
    """True iff every value's type is in :data:`_REPR_EXACT_TYPES`."""
    # Lazy decoded columns answer from their decode table.
    types = getattr(column, "value_types", None)
    if types is None:
        types = set(map(type, column))
    return types <= _REPR_EXACT_TYPES


class LineageMemo:
    """Scoring values shared by one input relation and all its descendants.

    Attribute sets are keyed by *name*, which decomposition preserves,
    encoded as a bitmask over ``root``'s columns; see the module
    docstring for why the values carry over.  Only repr-exact attribute
    sets (judged on ``root``, whose values every descendant's values
    are a subset of) are memoized.
    """

    __slots__ = ("root", "estimates", "lengths", "_bits", "_checked", "_inexact")

    def __init__(self, root: RelationInstance) -> None:
        self.root = root
        #: (attribute set, row count) -> Bloom estimate
        self.estimates: dict[tuple[int, int], float] = {}
        #: attribute set -> longest concatenated value
        self.lengths: dict[int, int] = {}
        self._bits = {name: 1 << index for index, name in enumerate(root.columns)}
        self._checked = 0
        self._inexact = 0

    def attributes(self, names: Iterable[str]) -> int:
        """The named attributes as a bitmask over the root's columns."""
        bits = self._bits
        mask = 0
        for name in names:
            mask |= bits[name]
        return mask

    def repr_exact(self, attributes: int) -> bool:
        """True iff equal values have equal reprs in every column of
        ``attributes`` (each root column is checked once)."""
        unchecked = attributes & ~self._checked
        for index in iter_bits(unchecked):
            if not _is_repr_exact(self.root.columns_data[index]):
                self._inexact |= 1 << index
        self._checked |= unchecked
        return not attributes & self._inexact


class DistinctEstimator:
    """Bloom-filter distinct-count estimation per attribute set (§7.2).

    ``distinct(mask)`` is the fill-ratio estimate of a filter sized for
    the row count, holding the ``repr`` of every distinct projected row
    of ``mask``; ``max_value_length(mask)`` is the longest concatenated
    value of ``mask``.  Both are cached per mask and, through ``memo``,
    per attribute names across a decomposition lineage.  All work
    happens on first query, none in the constructor.  ``exact=True``
    counts distinct values exactly instead — a baseline for tests and
    the ablation benchmark.
    """

    def __init__(
        self,
        instance: RelationInstance,
        exact: bool = False,
        memo: LineageMemo | None = None,
    ) -> None:
        self.instance = instance
        self.exact = exact
        self.memo = memo if memo is not None else LineageMemo(instance)
        self._cache: dict[int, float] = {}
        self._lengths: dict[int, int] = {}
        self._column_reprs: dict[int, list[str]] = {}
        self._column_lengths: dict[int, array] = {}

    def distinct(self, mask: int) -> float:
        cached = self._cache.get(mask)
        if cached is None:
            if self.exact:
                cached = float(self.instance.distinct_count(mask))
            else:
                cached = self._estimate(mask)
            self._cache[mask] = cached
        return cached

    def _estimate(self, mask: int) -> float:
        instance = self.instance
        attributes = self.memo.attributes(instance.relation.names_of(mask))
        key = (attributes, instance.num_rows)
        exact_reprs = self.memo.repr_exact(attributes)
        if exact_reprs:
            shared = self.memo.estimates.get(key)
            if shared is not None:
                return shared
        texts = self._distinct_reprs(mask)
        bloom = BloomFilter.with_capacity(max(16, instance.num_rows))
        bloom.add_reprs(texts)
        estimate = bloom.estimated_cardinality()
        if exact_reprs:
            self.memo.estimates[key] = estimate
        return estimate

    def max_value_length(self, mask: int) -> int:
        """Longest value in the (concatenated) columns of ``mask``.

        The paper's value score concatenates multi-attribute values;
        NULL counts as the empty string, and an empty relation or mask
        yields 0.
        """
        cached = self._lengths.get(mask)
        if cached is not None:
            return cached
        if not mask or self.instance.num_rows == 0:
            return 0
        attributes = self.memo.attributes(self.instance.relation.names_of(mask))
        exact_reprs = self.memo.repr_exact(attributes)
        longest = self.memo.lengths.get(attributes) if exact_reprs else None
        if longest is None:
            lengths = map(self._value_lengths, bits_of(mask))
            longest = max(map(sum, zip(*lengths)))
            if exact_reprs:
                self.memo.lengths[attributes] = longest
        self._lengths[mask] = longest
        return longest

    def _distinct_reprs(self, mask: int) -> list[str]:
        """``repr`` of each distinct projected row of ``mask``.

        Built as ``tuple.__repr__`` writes it — the element reprs joined
        by ``", "`` in parentheses, ``(x,)`` for one element — from the
        per-column reprs, and deduplicated on the joined text, so rows
        are merged exactly when their reprs are equal.
        """
        indices = bits_of(mask)
        if not indices:
            return []
        joined = set(map(", ".join, zip(*map(self._value_reprs, indices))))
        close = ",)" if len(indices) == 1 else ")"
        return ["(" + text + close for text in joined]

    def _value_reprs(self, index: int) -> list[str]:
        """Per row, the ``repr`` of column ``index``'s value (cached)."""
        reprs = self._column_reprs.get(index)
        if reprs is None:
            column = self.instance.columns_data[index]
            reprs = list(map(repr, column))
            self._column_reprs[index] = reprs
        return reprs

    def _value_lengths(self, index: int) -> array:
        """Per row, the printed length of column ``index``'s value (cached)."""
        lengths = self._column_lengths.get(index)
        if lengths is None:
            column = self.instance.columns_data[index]
            lengths = array("I", map(_printed_length, column))
            self._column_lengths[index] = lengths
        return lengths

    def duplication_ratio(self, mask: int) -> float:
        """``1 − uniq(mask)/n``, clamped into [0, 1]."""
        rows = self.instance.num_rows
        if rows == 0:
            return 0.0
        return min(1.0, max(0.0, 1.0 - self.distinct(mask) / rows))


# ----------------------------------------------------------------------
# Primary-key scoring (§7.1)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class KeyScore:
    """A key candidate with its §7.1 feature scores."""

    key: int
    length_score: float
    value_score: float
    position_score: float

    @property
    def total(self) -> float:
        """Mean of the individual scores; a perfect key scores 1.0."""
        return (self.length_score + self.value_score + self.position_score) / 3.0


def score_key(
    instance: RelationInstance,
    key: int,
    estimator: DistinctEstimator | None = None,
) -> KeyScore:
    """Score one key candidate of ``instance`` (bitmask) per §7.1."""
    if estimator is None:
        estimator = DistinctEstimator(instance)
    position = 0.5 * (
        1.0 / (_left_count(key) + 1) + 1.0 / (_between_count(key) + 1)
    )
    return KeyScore(
        key=key,
        length_score=_length_score_key(key),
        value_score=_value_score(estimator, key),
        position_score=position,
    )


def rank_keys(
    instance: RelationInstance,
    keys: list[int],
    estimator: DistinctEstimator | None = None,
) -> list[KeyScore]:
    """Score and rank key candidates, best first (deterministic ties)."""
    if estimator is None:
        estimator = DistinctEstimator(instance)
    scored = [score_key(instance, key, estimator) for key in keys]
    scored.sort(key=lambda s: (-s.total, count_bits(s.key), s.key))
    return scored


# ----------------------------------------------------------------------
# Violating-FD scoring (§7.2)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ViolatingFDScore:
    """A violating FD with its §7.2 foreign-key-quality feature scores."""

    fd: FD
    length_score: float
    value_score: float
    position_score: float
    duplication_score: float

    @property
    def total(self) -> float:
        """Mean of the individual scores."""
        return (
            self.length_score
            + self.value_score
            + self.position_score
            + self.duplication_score
        ) / 4.0


def score_violating_fd(
    instance: RelationInstance,
    fd: FD,
    estimator: DistinctEstimator | None = None,
    features: tuple[str, ...] = ("length", "value", "position", "duplication"),
) -> ViolatingFDScore:
    """Score a violating FD as a foreign-key candidate per §7.2.

    ``features`` allows ablation: scores of disabled features are fixed
    to 0.5 (neutral), so the mean stays comparable.
    """
    if estimator is None:
        estimator = DistinctEstimator(instance)
    arity = instance.arity
    rhs_capacity = max(1, arity - 2)

    length = 0.5 * (
        1.0 / max(1, count_bits(fd.lhs)) + count_bits(fd.rhs) / rhs_capacity
    )
    value = _value_score(estimator, fd.lhs)
    position = 0.5 * (
        1.0 / (_between_count(fd.lhs) + 1) + 1.0 / (_between_count(fd.rhs) + 1)
    )
    # 0.5 * (2 - uniq(X)/n - uniq(Y)/n) == 0.5 * (dup(X) + dup(Y))
    # with dup = 1 - uniq/n.
    if "duplication" in features:
        duplication = 0.5 * (
            estimator.duplication_ratio(fd.lhs)
            + estimator.duplication_ratio(fd.rhs)
        )
    else:
        duplication = 0.5
    return ViolatingFDScore(
        fd=fd,
        length_score=length if "length" in features else 0.5,
        value_score=value if "value" in features else 0.5,
        position_score=position if "position" in features else 0.5,
        duplication_score=duplication,
    )


def rank_violating_fds(
    instance: RelationInstance,
    violating: list[FD],
    estimator: DistinctEstimator | None = None,
    features: tuple[str, ...] = ("length", "value", "position", "duplication"),
) -> list[ViolatingFDScore]:
    """Score and rank violating FDs, best first (deterministic ties)."""
    if estimator is None:
        estimator = DistinctEstimator(instance)
    scored = [
        score_violating_fd(instance, fd, estimator, features) for fd in violating
    ]
    scored.sort(
        key=lambda s: (-s.total, count_bits(s.fd.lhs), s.fd.lhs, s.fd.rhs)
    )
    return scored


def shared_rhs_attributes(fd: FD, others: list[FD]) -> int:
    """RHS attributes of ``fd`` that other violating FDs also determine.

    The paper presents these to the user, who may remove them from the
    chosen FD's RHS so a later decomposition can use them (§7.2 end).
    """
    shared = 0
    for other in others:
        if other.lhs != fd.lhs or other.rhs != fd.rhs:
            shared |= fd.rhs & other.rhs
    return shared


def positions_of(mask: int) -> tuple[int, ...]:
    """Expose bit positions for reporting (thin wrapper over bits_of)."""
    return bits_of(mask)
