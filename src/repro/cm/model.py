"""The conceptual modeling language (CML) of the paper.

A :class:`ConceptualModel` captures the common features of EER and UML:

* *classes* (entity sets) with simple single-valued attributes, some of
  which may be designated *key* (identifier) attributes;
* *binary relationships* with ``min..max`` cardinality constraints on both
  ends and an optional semantic type (e.g. **partOf**);
* *ISA* (subclass) links, with optional *disjointness* and *completeness*
  (cover) constraints among subclasses;
* *reified relationships* — classes standing for n-ary or attributed
  relationships, connected to their participants by functional *roles*
  (Section 3.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.exceptions import ConceptualModelError
from repro.cm.cardinality import Cardinality, ConnectionCategory, ZERO_MANY


class SemanticType(enum.Enum):
    """Semantic flavor of a relationship, used by compatibility checks.

    The paper's Example 1.3 uses **partOf** to disambiguate otherwise
    indistinguishable functional relationships.
    """

    PLAIN = "plain"
    PART_OF = "partOf"


@dataclass(frozen=True, slots=True)
class CMClass:
    """A class (entity set) with attributes and an optional key.

    ``reified=True`` marks classes standing for reified relationships —
    the diamond-tagged ``Sell◇`` style nodes of Section 3.3.
    """

    name: str
    attributes: tuple[str, ...] = ()
    key: tuple[str, ...] = ()
    reified: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConceptualModelError("class name must be non-empty")
        if len(set(self.attributes)) != len(self.attributes):
            raise ConceptualModelError(
                f"class {self.name!r} repeats attributes: {self.attributes}"
            )
        missing = [a for a in self.key if a not in self.attributes]
        if missing:
            raise ConceptualModelError(
                f"key of class {self.name!r} mentions unknown attributes "
                f"{missing}"
            )

    def __str__(self) -> str:
        suffix = "◇" if self.reified else ""
        return f"{self.name}{suffix}"


@dataclass(frozen=True, slots=True)
class Relationship:
    """A directed binary relationship ``domain --name--> range``.

    ``to_card`` bounds how many *range* objects one *domain* object relates
    to (so the relationship is functional domain→range iff
    ``to_card.upper == 1``); ``from_card`` bounds the inverse.

    ``is_role=True`` marks the functional links from a reified relationship
    class to its participants.
    """

    name: str
    domain: str
    range: str
    to_card: Cardinality = ZERO_MANY
    from_card: Cardinality = ZERO_MANY
    semantic_type: SemanticType = SemanticType.PLAIN
    is_role: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConceptualModelError("relationship name must be non-empty")

    @property
    def is_functional(self) -> bool:
        """Functional in the domain→range direction."""
        return self.to_card.is_functional

    @property
    def is_inverse_functional(self) -> bool:
        return self.from_card.is_functional

    @property
    def is_many_many(self) -> bool:
        return not self.is_functional and not self.is_inverse_functional

    @property
    def category(self) -> ConnectionCategory:
        """Connection category read in the domain→range direction."""
        return ConnectionCategory.of(self.to_card, self.from_card)

    def __str__(self) -> str:
        return (
            f"{self.domain} --{self.name}[{self.from_card}/{self.to_card}]"
            f"--> {self.range}"
        )


#: The label used for ISA edges everywhere in the library.
ISA_LABEL = "isa"


class ConceptualModel:
    """A mutable container for a CM, validated on every addition.

    >>> cm = ConceptualModel("books")
    >>> _ = cm.add_class("Person", attributes=["pname"], key=["pname"])
    >>> _ = cm.add_class("Book", attributes=["bid"], key=["bid"])
    >>> _ = cm.add_relationship("writes", "Person", "Book",
    ...                         to_card="0..*", from_card="1..*")
    >>> cm.relationship("writes").is_many_many
    True
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ConceptualModelError("model name must be non-empty")
        self.name = name
        self._classes: dict[str, CMClass] = {}
        self._relationships: dict[str, Relationship] = {}
        # Role relationships by reified class, in insertion order.
        self._roles: dict[str, list[Relationship]] = {}
        self._isa: set[tuple[str, str]] = set()
        self._disjoint: list[frozenset[str]] = []
        self._covers: list[tuple[str, frozenset[str]]] = []

    # ------------------------------------------------------------------
    # Classes
    # ------------------------------------------------------------------
    def add_class(
        self,
        name: str,
        attributes: Sequence[str] = (),
        key: Sequence[str] = (),
        reified: bool = False,
    ) -> CMClass:
        """Declare a class; duplicate names are rejected."""
        if name in self._classes:
            raise ConceptualModelError(
                f"model {self.name!r} already has a class {name!r}"
            )
        cls = CMClass(name, tuple(attributes), tuple(key), reified)
        self._classes[name] = cls
        return cls

    def cm_class(self, name: str) -> CMClass:
        try:
            return self._classes[name]
        except KeyError:
            raise ConceptualModelError(
                f"model {self.name!r} has no class {name!r}"
            ) from None

    def has_class(self, name: str) -> bool:
        return name in self._classes

    def class_names(self) -> tuple[str, ...]:
        return tuple(self._classes)

    @property
    def classes(self) -> Mapping[str, CMClass]:
        return dict(self._classes)

    def is_reified(self, name: str) -> bool:
        return self.cm_class(name).reified

    # ------------------------------------------------------------------
    # Relationships
    # ------------------------------------------------------------------
    def add_relationship(
        self,
        name: str,
        domain: str,
        range: str,
        to_card: str | Cardinality = "0..*",
        from_card: str | Cardinality = "0..*",
        semantic_type: SemanticType = SemanticType.PLAIN,
        is_role: bool = False,
    ) -> Relationship:
        """Declare a binary relationship between existing classes."""
        if name in self._relationships:
            raise ConceptualModelError(
                f"model {self.name!r} already has a relationship {name!r}"
            )
        if name == ISA_LABEL:
            raise ConceptualModelError(
                f"{ISA_LABEL!r} is reserved for subclass links"
            )
        self.cm_class(domain)
        self.cm_class(range)
        rel = Relationship(
            name,
            domain,
            range,
            _as_cardinality(to_card),
            _as_cardinality(from_card),
            semantic_type,
            is_role,
        )
        self._relationships[name] = rel
        if is_role:
            self._roles.setdefault(domain, []).append(rel)
        return rel

    def add_reified_relationship(
        self,
        name: str,
        roles: Mapping[str, str],
        attributes: Sequence[str] = (),
        role_cards: Mapping[str, str | Cardinality] | None = None,
        semantic_type: SemanticType = SemanticType.PLAIN,
    ) -> CMClass:
        """Declare an n-ary / attributed relationship in reified form.

        Creates a reified class ``name`` plus one functional *role*
        relationship per entry of ``roles`` (role name → participant
        class). ``role_cards`` optionally bounds, per role, how many
        relationship instances a single participant joins (the cardinality
        on the role inverse — ``0..1`` marks "participates at most once").
        """
        if not roles:
            raise ConceptualModelError(
                f"reified relationship {name!r} needs at least one role"
            )
        reified = self.add_class(name, attributes=attributes, reified=True)
        cards = dict(role_cards or {})
        for role_name, participant in roles.items():
            inverse = _as_cardinality(cards.pop(role_name, "0..*"))
            self.add_relationship(
                role_name,
                name,
                participant,
                to_card="1..1",
                from_card=inverse,
                semantic_type=semantic_type,
                is_role=True,
            )
        if cards:
            raise ConceptualModelError(
                f"role_cards mention unknown roles {sorted(cards)}"
            )
        return reified

    def relationship(self, name: str) -> Relationship:
        try:
            return self._relationships[name]
        except KeyError:
            raise ConceptualModelError(
                f"model {self.name!r} has no relationship {name!r}"
            ) from None

    @property
    def relationships(self) -> Mapping[str, Relationship]:
        return dict(self._relationships)

    def relationships_of(self, class_name: str) -> tuple[Relationship, ...]:
        """Relationships whose domain or range is ``class_name``."""
        self.cm_class(class_name)
        return tuple(
            rel
            for rel in self._relationships.values()
            if class_name in (rel.domain, rel.range)
        )

    def roles_of(self, reified_name: str) -> tuple[Relationship, ...]:
        """The role relationships of a reified class, in insertion order."""
        cls = self.cm_class(reified_name)
        if not cls.reified:
            raise ConceptualModelError(f"{reified_name!r} is not reified")
        return tuple(self._roles.get(reified_name, ()))

    # ------------------------------------------------------------------
    # ISA, disjointness, covers
    # ------------------------------------------------------------------
    def add_isa(self, sub: str, super: str) -> None:
        """Declare ``sub`` ISA ``super``. Cycles are rejected."""
        self.cm_class(sub)
        self.cm_class(super)
        if sub == super:
            raise ConceptualModelError(f"class {sub!r} cannot ISA itself")
        if (sub, super) in self._isa:
            return
        self._isa.add((sub, super))
        if sub in self.superclasses(sub):
            self._isa.discard((sub, super))
            raise ConceptualModelError(
                f"adding {sub!r} ISA {super!r} would create an ISA cycle"
            )

    def add_disjointness(self, classes: Iterable[str]) -> None:
        """Declare pairwise disjointness among the given classes."""
        group = frozenset(classes)
        if len(group) < 2:
            raise ConceptualModelError(
                "disjointness needs at least two classes"
            )
        for name in group:
            self.cm_class(name)
        self._disjoint.append(group)

    def add_cover(self, super: str, subs: Iterable[str]) -> None:
        """Declare that ``subs`` cover ``super`` (completeness)."""
        sub_set = frozenset(subs)
        self.cm_class(super)
        for name in sub_set:
            if (name, super) not in self._isa:
                raise ConceptualModelError(
                    f"cover of {super!r} lists {name!r}, which is not a "
                    f"declared subclass"
                )
        self._covers.append((super, sub_set))

    @property
    def isa_links(self) -> frozenset[tuple[str, str]]:
        return frozenset(self._isa)

    @property
    def disjointness_groups(self) -> tuple[frozenset[str], ...]:
        return tuple(self._disjoint)

    @property
    def covers(self) -> tuple[tuple[str, frozenset[str]], ...]:
        return tuple(self._covers)

    def direct_superclasses(self, name: str) -> tuple[str, ...]:
        self.cm_class(name)
        return tuple(sorted(sup for sub, sup in self._isa if sub == name))

    def direct_subclasses(self, name: str) -> tuple[str, ...]:
        self.cm_class(name)
        return tuple(sorted(sub for sub, sup in self._isa if sup == name))

    def superclasses(self, name: str) -> frozenset[str]:
        """All strict ancestors of ``name`` under ISA (transitive)."""
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for sub, sup in self._isa:
                if sub == current and sup not in seen:
                    seen.add(sup)
                    frontier.append(sup)
        return frozenset(seen)

    def subclasses(self, name: str) -> frozenset[str]:
        """All strict descendants of ``name`` under ISA (transitive)."""
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for sub, sup in self._isa:
                if sup == current and sub not in seen:
                    seen.add(sub)
                    frontier.append(sub)
        return frozenset(seen)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable dump of the model."""
        lines = [f"conceptual model {self.name}:"]
        for cls in self._classes.values():
            attrs = ", ".join(
                f"_{a}_" if a in cls.key else a for a in cls.attributes
            )
            lines.append(f"  class {cls}({attrs})")
        for rel in self._relationships.values():
            lines.append(f"  {rel}")
        for sub, sup in sorted(self._isa):
            lines.append(f"  {sub} ISA {sup}")
        for group in self._disjoint:
            lines.append(f"  disjoint({', '.join(sorted(group))})")
        for sup, subs in self._covers:
            lines.append(f"  cover({sup} = {' ∪ '.join(sorted(subs))})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ConceptualModel({self.name!r}, classes={len(self._classes)}, "
            f"relationships={len(self._relationships)})"
        )


def _as_cardinality(value: str | Cardinality) -> Cardinality:
    if isinstance(value, Cardinality):
        return value
    return Cardinality.parse(value)
