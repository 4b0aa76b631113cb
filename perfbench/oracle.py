"""The checker: answers computed apart from the optimised engine.

Every verdict here comes from the preserved seed engine
(:mod:`repro.baselines.seed_engine`), which consults no memo table.  The
catalog-level derivations (equivalence classes, nonredundant core,
transitivity) are written out below from their definitions rather than
taken from :mod:`repro.engine`.

Views are grouped into *capacity groups* to keep the seed work affordable:

* two views with the same set of defining queries have the same capacity
  (the capacity is the closure of the defining queries; view names never
  enter it), so they share a group without any decision;
* a new query set joins an existing group only when the seed engine shows
  mutual dominance with that group's representative.

Distinct groups are therefore never equivalent, and one seed verdict per
ordered pair of groups answers every pair of views in them.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.baselines.seed_engine import (
    seed_closure_contains,
    seed_dominates,
    seed_remove_redundancy_queries,
)
from repro.catalog.dsl import Catalog, parse_catalog, serialize_catalog
from repro.relalg.ast import Expression
from repro.relalg.parser import parse_expression
from repro.relalg.printer import format_expression
from repro.views.view import View

Pair = Tuple[str, str]


class SeedOracle:
    """Seed-engine dominance verdicts, memoised per capacity group."""

    def __init__(self) -> None:
        self._group_of_key: Dict[FrozenSet, int] = {}
        self._reps: List[View] = []
        self._dom: Dict[Tuple[int, int], bool] = {}
        self._nonredundant: Dict[FrozenSet, int] = {}

    def group(self, view: View, hint: Optional[View] = None) -> int:
        """The capacity group of ``view``; ``hint`` is a view that is
        probably equivalent and is tried first."""

        key = frozenset(view.defining_queries)
        if key in self._group_of_key:
            return self._group_of_key[key]
        hinted = None if hint is None else self.group(hint)
        order = list(range(len(self._reps)))
        if hinted is not None:
            order.remove(hinted)
            order.insert(0, hinted)
        below: Dict[int, bool] = {}
        above: Dict[int, bool] = {}
        for gid in order:
            rep = self._reps[gid]
            above[gid] = seed_dominates(view, rep)
            below[gid] = seed_dominates(rep, view)
            if above[gid] and below[gid]:
                self._group_of_key[key] = gid
                return gid
        gid = len(self._reps)
        self._reps.append(view)
        self._group_of_key[key] = gid
        for other in order:
            self._dom[(gid, other)] = above[other]
            self._dom[(other, gid)] = below[other]
        return gid

    def group_dominates(self, first: int, second: int) -> bool:
        return first == second or self._dom[(first, second)]

    def nonredundant_size(self, view: View) -> int:
        """Size of a nonredundant equivalent of ``view`` (seed redundancy
        elimination over its defining queries)."""

        key = frozenset(view.defining_queries)
        if key not in self._nonredundant:
            self._nonredundant[key] = len(
                seed_remove_redundancy_queries(list(view.defining_queries))
            )
        return self._nonredundant[key]


#: The catalog a check worker answers membership questions against.
_WORKER_CATALOG: List[Catalog] = []


def _load_catalog(text: str) -> None:
    _WORKER_CATALOG.append(parse_catalog(text))


def _worker_membership(item: Tuple[str, str]) -> bool:
    name, query = item
    catalog = _WORKER_CATALOG[0]
    return seed_membership(catalog.views[name], parse_expression(query, catalog.schema))


def seed_membership(view: View, query: Expression) -> bool:
    """Whether ``query`` lies in the capacity of ``view``."""

    return seed_closure_contains(view.defining_templates(), query)


#: Processes the membership checks run on; they cost about twice the
#: answers they check.
CHECK_WORKERS = 2


def seed_memberships(
    catalog: Catalog, questions: Sequence[Tuple[str, Expression]]
) -> List[bool]:
    """:func:`seed_membership` of every ``(view name, query)`` question,
    answered on :data:`CHECK_WORKERS` spawned processes, which receive the
    catalog and the queries as text."""

    items = [(name, format_expression(query)) for name, query in questions]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=CHECK_WORKERS,
        mp_context=context,
        initializer=_load_catalog,
        initargs=(serialize_catalog(catalog),),
    ) as pool:
        return list(pool.map(_worker_membership, items, chunksize=64))


class CatalogTruth:
    """Dominance, classes and core of one catalog version, by the oracle."""

    def __init__(self, groups: Mapping[str, int], oracle: SeedOracle) -> None:
        self.names = tuple(sorted(groups))
        self._groups = dict(groups)
        self._oracle = oracle

    @classmethod
    def of(
        cls,
        views: Mapping[str, View],
        oracle: SeedOracle,
        hints: Optional[Mapping[str, View]] = None,
    ) -> "CatalogTruth":
        hints = hints or {}
        return cls(
            {name: oracle.group(view, hints.get(name)) for name, view in views.items()},
            oracle,
        )

    @property
    def groups(self) -> Mapping[str, int]:
        """Catalog name -> capacity group."""

        return self._groups

    def dominates(self, first: str, second: str) -> bool:
        return self._oracle.group_dominates(self._groups[first], self._groups[second])

    def equivalent(self, first: str, second: str) -> bool:
        return self._groups[first] == self._groups[second]

    def matrix(self) -> Dict[Pair, bool]:
        return {
            (a, b): self.dominates(a, b)
            for a in self.names
            for b in self.names
            if a != b
        }

    def classes(self) -> Tuple[Tuple[str, ...], ...]:
        """Mutually dominant groups: members sorted, groups by first member."""

        members: Dict[int, List[str]] = {}
        for name in self.names:
            members.setdefault(self._groups[name], []).append(name)
        return tuple(sorted(tuple(sorted(m)) for m in members.values()))

    def core(self) -> Tuple[str, ...]:
        """Views no other view strictly dominates, first-named per class."""

        present = sorted({self._groups[name] for name in self.names})
        kept = []
        for gid in present:
            if any(
                other != gid and self._oracle.group_dominates(other, gid)
                for other in present
            ):
                continue
            kept.append(min(n for n in self.names if self._groups[n] == gid))
        return tuple(sorted(kept))


# ------------------------------------------------- structural property checks
def is_preorder(names: Sequence[str], matrix: Mapping[Pair, bool]) -> bool:
    """Reflexive (implied by the diagonal) and transitive, via row bitsets."""

    index = {name: i for i, name in enumerate(names)}
    rows = []
    for a in names:
        bits = 1 << index[a]
        for b in names:
            if a != b and matrix[(a, b)]:
                bits |= 1 << index[b]
        rows.append(bits)
    for i, bits in enumerate(rows):
        rest = bits
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            if rows[j] & ~bits:
                return False
    return True


def is_partition(names: Iterable[str], classes: Sequence[Sequence[str]]) -> bool:
    flat = [name for members in classes for name in members]
    return len(flat) == len(set(flat)) and set(flat) == set(names)


def core_problems(
    names: Sequence[str], core: Sequence[str], matrix: Mapping[Pair, bool]
) -> List[str]:
    """No core member dominates another; every view is dominated by one."""

    problems = []
    for a in core:
        for b in core:
            if a != b and matrix[(a, b)]:
                problems.append(f"core member {a} dominates core member {b}")
    for name in names:
        if name not in core and not any(matrix[(c, name)] for c in core):
            problems.append(f"no core member dominates {name}")
    return problems
