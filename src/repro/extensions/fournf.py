"""4NF normalization on top of MVD discovery (paper §6 sketch).

A relation is in 4NF iff for every non-trivial MVD ``X ↠ Y`` the LHS
``X`` is a (super)key.  The paper notes that with an MVD discoverer
"the normalization algorithm, then, would work in the same manner" —
this module is that algorithm:

1. run the regular BCNF pipeline first (every BCNF violation is also a
   4NF violation, and the FD machinery handles those much faster),
2. then, per remaining relation, discover MVDs (bounded LHS size),
   identify the non-FD, non-trivial ones whose LHS is no superkey,
3. score them with the applicable §7 features (length/value/position;
   the duplication feature needs an FD's asymmetry and is skipped),
4. decompose ``R`` into ``R1 = X ∪ Y`` and ``R2 = X ∪ (R − X − Y)``
   (both deduplicated — Fagin's theorem guarantees losslessness) and
   repeat until no violating MVD remains.

MVDs cannot be projected like FDs (Lemma 3 covers FDs only), so MVDs
are re-discovered per produced relation; the bounded LHS keeps that
affordable at this library's laptop scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.normalize import Normalizer
from repro.core.result import NormalizationResult
from repro.core.scoring import score_key
from repro.discovery.ucc import DuccUCC
from repro.extensions.mvd import MVD, discover_mvds
from repro.model.attributes import count_bits, full_mask
from repro.model.instance import RelationInstance
from repro.model.schema import ForeignKey
from repro.structures.lattice_index import LevelIndex

__all__ = ["FourNFNormalizer", "FourNFStep"]


@dataclass(slots=True)
class FourNFStep:
    """One MVD-driven decomposition in the 4NF phase."""

    parent: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]
    r1: str
    r2: str

    def to_str(self) -> str:
        lhs = ",".join(self.lhs)
        rhs = ",".join(self.rhs)
        return f"{self.parent}: split on MVD {lhs} ->> {rhs} => {self.r1} + {self.r2}"


@dataclass(slots=True)
class FourNFResult:
    """BCNF result plus the MVD decompositions applied on top."""

    bcnf: NormalizationResult
    instances: dict[str, RelationInstance]
    mvd_steps: list[FourNFStep] = field(default_factory=list)

    def to_str(self) -> str:
        from repro.model.schema import Schema

        schema = Schema(instance.relation for instance in self.instances.values())
        lines = [schema.to_str()]
        if self.mvd_steps:
            lines.append("")
            lines.append("MVD decompositions:")
            lines.extend(f"  {step.to_str()}" for step in self.mvd_steps)
        return "\n".join(lines)


class FourNFNormalizer:
    """BCNF first, then MVD-driven decomposition to 4NF."""

    def __init__(
        self,
        max_mvd_lhs_size: int = 2,
        null_equals_null: bool = True,
        **normalizer_kwargs,
    ) -> None:
        self.max_mvd_lhs_size = max_mvd_lhs_size
        self.null_equals_null = null_equals_null
        self._normalizer = Normalizer(
            null_equals_null=null_equals_null, **normalizer_kwargs
        )

    def run(self, data: RelationInstance) -> FourNFResult:
        bcnf = self._normalizer.run(data)
        instances = dict(bcnf.instances)
        steps: list[FourNFStep] = []
        queue = list(instances)
        while queue:
            name = queue.pop()
            instance = instances[name]
            violating = self._violating_mvd(instance)
            if violating is None:
                continue
            r1, r2 = self._decompose(instance, violating, instances, steps)
            del instances[name]
            instances[r1.name] = r1
            instances[r2.name] = r2
            queue.extend([r1.name, r2.name])
        return FourNFResult(bcnf=bcnf, instances=instances, mvd_steps=steps)

    # ------------------------------------------------------------------
    # Violating-MVD identification and selection
    # ------------------------------------------------------------------
    def _violating_mvd(self, instance: RelationInstance) -> MVD | None:
        if instance.arity < 3:
            return None  # a non-trivial MVD needs X, Y, Z all non-empty
        keys = LevelIndex(
            DuccUCC(null_equals_null=self.null_equals_null).discover(instance)
        )
        candidates = []
        for mvd in discover_mvds(
            instance,
            max_lhs_size=min(self.max_mvd_lhs_size, instance.arity - 2),
            null_equals_null=self.null_equals_null,
        ):
            if mvd.lhs == 0:
                # Empty LHS (constant columns / full cross products):
                # no key or join columns could result — the same stance
                # Algorithm 4 takes for empty-LHS FDs.
                continue
            if keys.contains_subset_of(mvd.lhs):
                continue  # LHS is a superkey: 4NF-conform
            if instance.has_null_in(mvd.lhs):
                continue  # same SQL-key argument as Algorithm 4
            candidates.append(mvd)
        if not candidates:
            return None
        # Rank like §7 where applicable: short, left, short-valued LHS
        # first; among ties prefer the larger split-off side.
        def rank(mvd: MVD) -> tuple:
            key_score = score_key(instance, mvd.lhs)
            return (-key_score.total, -count_bits(mvd.rhs), mvd.lhs, mvd.rhs)

        return min(candidates, key=rank)

    # ------------------------------------------------------------------
    # Decomposition (Fagin): R1 = X ∪ Y, R2 = X ∪ (R − X − Y)
    # ------------------------------------------------------------------
    def _decompose(
        self,
        instance: RelationInstance,
        mvd: MVD,
        instances: dict[str, RelationInstance],
        steps: list[FourNFStep],
    ) -> tuple[RelationInstance, RelationInstance]:
        everything = full_mask(instance.arity)
        lhs_names = instance.relation.names_of(mvd.lhs)
        r1_mask = mvd.lhs | mvd.rhs
        r2_mask = mvd.lhs | (everything & ~r1_mask)

        used = set(instances)
        r1_name = _fresh(f"{instance.name}_mv1", used)
        r2_name = _fresh(f"{instance.name}_mv2", used)
        r1 = instance.project(r1_mask, name=r1_name, dedup=True)
        r2 = instance.project(r2_mask, name=r2_name, dedup=True)

        # Keys of the parent containing the LHS cannot survive either
        # side (the MVD LHS is no key of the parts either, in general),
        # so parts get fresh keys from UCC discovery when possible.
        for part in (r1, r2):
            uccs = [
                key
                for key in DuccUCC(
                    null_equals_null=self.null_equals_null
                ).discover(part)
                if key and not part.has_null_in(key)
            ]
            if uccs:
                best = max(uccs, key=lambda key: score_key(part, key).total)
                part.relation.primary_key = part.relation.names_of(best)
        # Both parts share the MVD LHS; record the join link.  An empty
        # LHS (the data is a full cross product) leaves no join columns
        # — reconstruction is then the cartesian product.
        if lhs_names:
            r1.relation.foreign_keys.append(
                ForeignKey(lhs_names, r2_name, lhs_names)
            )
        steps.append(
            FourNFStep(
                parent=instance.name,
                lhs=lhs_names,
                rhs=instance.relation.names_of(mvd.rhs),
                r1=r1_name,
                r2=r2_name,
            )
        )
        return r1, r2


def _fresh(base: str, used: set[str]) -> str:
    name = base
    suffix = 2
    while name in used:
        name = f"{base}_{suffix}"
        suffix += 1
    used.add(name)
    return name
