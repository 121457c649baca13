"""Cardinality constraints on relationship participation.

The paper uses UML's ``min..max`` notation: on a relationship ``p`` from
``C`` to ``D``, the cardinality written at the ``D`` end bounds how many
``D`` objects a single ``C`` object relates to. ``_..1`` makes ``p``
*functional* from ``C`` to ``D``; ``1.._`` makes participation *total*.

This module also defines the *connection category* of a relationship or
composed path (one-one / many-one / one-many / many-many), the compatibility
rule between source and target connections (Section 3.2 observation (i)),
and cardinality composition along paths (Section 3.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.exceptions import CardinalityError

#: Unbounded upper cardinality ("*").
MANY = None


@dataclass(frozen=True, slots=True)
class Cardinality:
    """A ``min..max`` participation bound. ``upper=None`` means ``*``.

    >>> Cardinality.parse("0..*")
    Cardinality(lower=0, upper=None)
    >>> Cardinality.parse("1..1").is_functional
    True
    """

    lower: int
    upper: int | None

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise CardinalityError(f"lower bound must be >= 0, got {self.lower}")
        if self.upper is not None and self.upper < 1:
            raise CardinalityError(
                f"upper bound must be >= 1 or None, got {self.upper}"
            )
        if self.upper is not None and self.lower > self.upper:
            raise CardinalityError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    @classmethod
    def parse(cls, text: str) -> "Cardinality":
        """Parse UML-style text: ``"0..*"``, ``"1..1"``, ``"0..1"``, ``"*"``.

        A bare number ``"1"`` means ``1..1``; a bare ``"*"`` means ``0..*``.
        The four common bounds come back as the module's shared constants
        (:data:`ONE_ONE` and its siblings), so a model parsed from text
        holds one object per distinct bound, not one per relationship end.
        """
        text = text.strip()
        if text == "*":
            return ZERO_MANY
        if ".." in text:
            low_text, high_text = (part.strip() for part in text.split("..", 1))
        else:
            low_text = high_text = text
        try:
            lower = int(low_text)
        except ValueError:
            raise CardinalityError(f"bad lower bound in {text!r}") from None
        if high_text == "*":
            upper = MANY
        else:
            try:
                upper = int(high_text)
            except ValueError:
                raise CardinalityError(f"bad upper bound in {text!r}") from None
        shared = _CONSTANTS.get((lower, upper))
        return cls(lower, upper) if shared is None else shared

    @property
    def is_functional(self) -> bool:
        """True when the upper bound is 1 (``_..1``)."""
        return self.upper == 1

    @property
    def is_total(self) -> bool:
        """True when the lower bound is at least 1 (``1.._``)."""
        return self.lower >= 1

    def compose(self, other: "Cardinality") -> "Cardinality":
        """Cardinality of the composition of two traversal steps.

        Composing "each X relates to ``a..b`` Y" with "each Y relates to
        ``c..d`` Z" bounds "each X relates to at most ``b*d`` Z" (and at
        least ``a*c`` when every hop is total on distinct objects — a
        conservative lower bound suffices for the compatibility checks).
        """
        lower = self.lower * other.lower
        if self.upper is None or other.upper is None:
            upper = MANY
        else:
            upper = self.upper * other.upper
        if upper is not None and upper < 1:
            # Degenerate product 0 cannot be represented as an upper bound;
            # treat it as the tightest expressible bound.
            upper = 1
            lower = 0
        return Cardinality(lower, upper)

    def __str__(self) -> str:
        upper = "*" if self.upper is None else str(self.upper)
        return f"{self.lower}..{upper}"


#: Frequently used constants.
ONE_ONE = Cardinality(1, 1)
ZERO_ONE = Cardinality(0, 1)
ZERO_MANY = Cardinality(0, MANY)
ONE_MANY = Cardinality(1, MANY)
_CONSTANTS = {
    (card.lower, card.upper): card
    for card in (ONE_ONE, ZERO_ONE, ZERO_MANY, ONE_MANY)
}


class ConnectionCategory(enum.Enum):
    """Functionality classification of a connection between two classes.

    Categories are read left-to-right along the traversal direction:
    ``MANY_ONE`` means the connection is functional in the traversal
    direction (each source object sees at most one target object) but not
    in the inverse direction.
    """

    ONE_ONE = "one-one"
    MANY_ONE = "many-one"
    ONE_MANY = "one-many"
    MANY_MANY = "many-many"

    @classmethod
    def of(
        cls, forward: Cardinality, backward: Cardinality
    ) -> "ConnectionCategory":
        """Category from the forward and backward cardinalities.

        ``forward`` bounds targets-per-source; ``backward`` bounds
        sources-per-target.
        """
        if forward.is_functional and backward.is_functional:
            return cls.ONE_ONE
        if forward.is_functional:
            return cls.MANY_ONE
        if backward.is_functional:
            return cls.ONE_MANY
        return cls.MANY_MANY

    @property
    def functional_forward(self) -> bool:
        return self in (ConnectionCategory.ONE_ONE, ConnectionCategory.MANY_ONE)

    @property
    def functional_backward(self) -> bool:
        return self in (ConnectionCategory.ONE_ONE, ConnectionCategory.ONE_MANY)

    def reversed(self) -> "ConnectionCategory":
        """Category of the same connection traversed the other way."""
        mapping = {
            ConnectionCategory.MANY_ONE: ConnectionCategory.ONE_MANY,
            ConnectionCategory.ONE_MANY: ConnectionCategory.MANY_ONE,
        }
        return mapping.get(self, self)


def categories_compatible(
    source: ConnectionCategory, target: ConnectionCategory
) -> bool:
    """Whether a source connection may realize a target connection.

    Section 3.2 / Example 1.1: a target connection that is functional in a
    direction demands a source connection functional in that direction
    (pairing each author with *at most one* bookstore cannot be realized by
    a many-many composition). The converse is fine — a functional source
    connection is a special case of a many-many target.

    >>> categories_compatible(ConnectionCategory.MANY_MANY,
    ...                       ConnectionCategory.MANY_MANY)
    True
    >>> categories_compatible(ConnectionCategory.MANY_MANY,
    ...                       ConnectionCategory.MANY_ONE)
    False
    >>> categories_compatible(ConnectionCategory.ONE_ONE,
    ...                       ConnectionCategory.MANY_ONE)
    True
    """
    if target.functional_forward and not source.functional_forward:
        return False
    if target.functional_backward and not source.functional_backward:
        return False
    return True
