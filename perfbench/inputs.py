"""Seeded inputs of the three workloads.

Every catalog is built from *families*: a random base view, an equivalent
copy padded with derivable queries (``redundant_view``), a weaker variant
(``perturbed_view``) and renamed copies of the base.  Families make the
verdicts go both ways: within a family the padded copy is equivalent to the
base and the base dominates its weaker variant, while most cross-family
verdicts are "no".

Every catalog is drawn from the fixed :data:`CATALOG_SEED`, so set-up,
which no request stream averages, does the same work in every run; the
workload seed draws the request stream.  Everything here is a pure function
of its arguments; the program under test receives only what these functions
return.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.relalg.ast import Expression, Join, Projection
from repro.relalg.rewrites import normalize_expression
from repro.relational.schema import DatabaseSchema, RelationScheme
from repro.views.view import View
from repro.workloads import (
    SchemaSpec,
    perturbed_view,
    random_schema,
    random_view,
    redundant_view,
)

#: Schema every workload draws from: four binary relations over six
#: attributes, so relations overlap and joins are meaningful.
SCHEMA_SPEC = SchemaSpec(relations=4, arity=2, universe_size=6)

#: Defining queries per base view.
MEMBERS = 2

#: The seed every catalog is drawn from.
CATALOG_SEED = 1985


@dataclass(frozen=True)
class Family:
    """The catalog names of one family's members."""

    base: str
    padded: str
    weak: str
    copy: str

    @property
    def members(self) -> Tuple[str, ...]:
        return (self.base, self.padded, self.weak, self.copy)


@dataclass(frozen=True)
class FamilyCatalog:
    schema: DatabaseSchema
    views: Dict[str, View]
    families: Tuple[Family, ...]


def _renamed_copy(view: View, tag: str) -> View:
    return view.renamed({name.name: f"{name.name}{tag}" for name in view.view_names})


def family_catalog(families: int) -> FamilyCatalog:
    """``4 * families`` views drawn from :data:`CATALOG_SEED`."""

    rng = random.Random(f"catalog:{CATALOG_SEED}")
    schema = random_schema(SCHEMA_SPEC, seed=rng.randrange(1 << 30))
    views: Dict[str, View] = {}
    made = []
    for index in range(families):
        prefix = f"F{index}"
        base = random_view(
            schema,
            members=MEMBERS,
            atoms_per_query=2,
            seed=rng.randrange(1 << 30),
            name_prefix=f"{prefix}B",
        )
        family = Family(f"{prefix}base", f"{prefix}pad", f"{prefix}weak", f"{prefix}copy")
        views[family.base] = base
        views[family.padded] = redundant_view(
            base, extra_members=2, seed=rng.randrange(1 << 30), name_prefix=f"{prefix}P"
        )
        views[family.weak] = perturbed_view(base, seed=rng.randrange(1 << 30))
        views[family.copy] = _renamed_copy(base, "c0")
        made.append(family)
    return FamilyCatalog(schema, views, tuple(made))


# ------------------------------------------------------------ catalog_reads
#: Read mix of ``catalog_reads``: kind -> weight.  These are the derived-read
#: weights of the repository's own traffic model
#: (``repro.workloads.traffic._READ_WEIGHTS``) without its membership reads,
#: copied so that a change there does not silently change this workload.
READ_MIX = (("dominance", 4), ("equivalence", 3), ("view_report", 1),
            ("nonredundant_core", 3))


@dataclass(frozen=True)
class Read:
    kind: str
    subject: Optional[str] = None
    other: Optional[str] = None

    def key(self) -> Tuple:
        return (self.kind, self.subject, self.other)


def read_stream(catalog: FamilyCatalog, requests: int, seed: int) -> List[Read]:
    """A seeded stream of derived reads.

    Half of the binary questions stay inside one family, where the verdicts
    are mostly "yes"; the other half pair random views.
    """

    rng = random.Random(f"reads:{seed}")
    names = sorted(catalog.views)
    kinds = [kind for kind, _ in READ_MIX]
    weights = [weight for _, weight in READ_MIX]
    stream: List[Read] = []
    for _ in range(requests):
        kind = rng.choices(kinds, weights)[0]
        if kind in ("dominance", "equivalence"):
            if rng.random() < 0.5:
                family = rng.choice(catalog.families)
                first, second = rng.sample(family.members, 2)
            else:
                first, second = rng.sample(names, 2)
            stream.append(Read(kind, first, second))
        elif kind == "view_report":
            stream.append(Read(kind, rng.choice(names)))
        else:
            stream.append(Read(kind))
    return stream


# ----------------------------------------------------------- cold_questions
@dataclass(frozen=True)
class Question:
    subject: str
    query: Expression
    #: True when the question is derivable by construction: a projection of
    #: a join of the subject's own defining queries.
    derivable: bool


def _maybe_project(rng: random.Random, expression: Expression) -> Expression:
    attrs = expression.target_scheme.sorted_attributes()
    if len(attrs) < 2:
        return expression
    keep = rng.randint(1, len(attrs))
    if keep == len(attrs):
        return expression
    return normalize_expression(
        Projection(expression, RelationScheme(rng.sample(attrs, keep)))
    )


def _join(parts: List[Expression]) -> Expression:
    if len(parts) == 1:
        return parts[0]
    return normalize_expression(Join(tuple(parts)))


def question_stream(
    catalog: FamilyCatalog, questions: int, seed: int
) -> List[Question]:
    """``questions`` membership questions, each distinct up to renaming.

    Even positions are derivable by construction: a projection of a join of
    one to three of the subject's defining queries, each itself projected or
    not.  Odd positions join one of the subject's queries with a query of a
    view from another family and project; such a question is derivable only
    when the foreign query lies in the subject's capacity, which is rare.
    Two questions count as the same when they ask the same expression of
    views with the same defining queries, so renamed copies of a view never
    share a question.
    """

    rng = random.Random(f"questions:{seed}")
    names = sorted(catalog.views)
    family_of = {
        name: family.base for family in catalog.families for name in family.members
    }
    seen = set()
    stream: List[Question] = []
    attempts = 0
    while len(stream) < questions:
        attempts += 1
        if attempts > 20 * questions + 1000:
            raise RuntimeError(
                f"only {len(stream)} distinct questions after {attempts} draws; "
                "the catalog is too small for the requested stream"
            )
        subject = rng.choice(names)
        queries = list(catalog.views[subject].defining_queries)
        derivable = len(stream) % 2 == 0
        if derivable:
            parts = [
                _maybe_project(rng, query) if rng.random() < 0.5 else query
                for query in rng.sample(queries, rng.randint(1, min(3, len(queries))))
            ]
        else:
            foreign = rng.choice(
                [n for n in names if family_of[n] != family_of[subject]]
            )
            parts = [
                rng.choice(queries),
                rng.choice(list(catalog.views[foreign].defining_queries)),
            ]
        query = _maybe_project(rng, _join(parts))
        key = (frozenset(queries), query)
        if key in seen:
            continue
        seen.add(key)
        stream.append(Question(subject, query, derivable))
    return stream


# -------------------------------------------------------------- edit_stream
@dataclass(frozen=True)
class Edit:
    kind: str  # "add_view" | "drop_view"
    name: str
    view: Optional[View] = None
    #: The family base the added view derives from (checker hint).
    family_base: Optional[str] = None
    #: "copy" (renamed copy of the base, reuses every decision), "padded"
    #: (a fresh equivalent padding) or "weak" (a fresh weaker variant).
    variant: Optional[str] = None


#: Added views the stream keeps live at most; drops bring it back down.
MAX_ADDED = 6


def edit_stream(catalog: FamilyCatalog, edits: int, seed: int) -> List[Edit]:
    """A seeded stream of ``add_view``/``drop_view`` edits.

    Adds cycle through renamed copies of a family base, which reuse every
    decision, and new family variants (a fresh padded copy or a fresh weaker
    variant), which need new decisions.  Only views the stream added are
    dropped, so the base catalog survives every edit and each drop names a
    live view.
    """

    rng = random.Random(f"edits:{seed}")
    live: List[str] = []
    stream: List[Edit] = []
    adds = 0
    for index in range(edits):
        add = not live or (len(live) < MAX_ADDED and rng.random() < 0.5)
        if not add:
            name = live.pop(rng.randrange(len(live)))
            stream.append(Edit("drop_view", name))
            continue
        family = rng.choice(catalog.families)
        base = catalog.views[family.base]
        variant = ("copy", "padded", "copy", "weak")[adds % 4]
        adds += 1
        name = f"E{index}"
        if variant == "copy":
            view = _renamed_copy(base, f"e{index}")
        elif variant == "padded":
            view = redundant_view(
                base, extra_members=2, seed=rng.randrange(1 << 30),
                name_prefix=f"E{index}P",
            )
        else:
            view = perturbed_view(
                _renamed_copy(base, f"e{index}"), seed=rng.randrange(1 << 30)
            )
        live.append(name)
        stream.append(Edit("add_view", name, view, family.base, variant))
    return stream
