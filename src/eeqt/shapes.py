"""Admissible block patterns of coupling operators.

For 2- and 3-event classical systems the structural conditions on a single
coupling operator reduce to pattern conditions on which blocks vanish.  This
module classifies block patterns against the catalogued admissible shapes,
tags the classical-evolution topology each shape induces, and enumerates the
full catalogue.

Classification is by exact zero-pattern (blocks compared to zero at 1e-12),
not by operator values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .evolution import CouplingOperator

PATTERN_ZERO_TOL = 1e-12


class ShapeTag2x2(Enum):
    ANTIDIAGONAL = "antidiagonal"
    LOWER_ONLY = "lower_only"
    UPPER_ONLY = "upper_only"
    DIAGONAL = "diagonal"
    DIAGONAL_PARTIAL_A = "diagonal_partial_a"
    DIAGONAL_PARTIAL_D = "diagonal_partial_d"


class ShapeTag3x3(Enum):
    W1 = "w1"
    W2 = "w2"
    W3 = "w3"
    W4 = "w4"
    W5 = "w5"
    W6 = "w6"
    W7 = "w7"
    W8 = "w8"
    W9 = "w9"
    W10 = "w10"
    W11 = "w11"
    DIAGONAL = "diagonal"
    INADMISSIBLE = "inadmissible"


class TopologyTag(Enum):
    CASCADE = "cascade"
    INDEPENDENT_PROBABILITY = "independent_probability"
    FROZEN_UNDER_INIT = "frozen_under_init"
    TWO_ENTRY = "two_entry"
    SINGLE_FOCUS = "single_focus"


# Block positions (row, col), 0-indexed, of the nonzero entries of each
# catalogued 3x3 shape.  W10 and W11 are listed with identical patterns.
SHAPE_SUPPORTS_3X3 = {
    ShapeTag3x3.W1: frozenset({(0, 2), (1, 0), (2, 1)}),
    ShapeTag3x3.W2: frozenset({(0, 1), (1, 2), (2, 0)}),
    ShapeTag3x3.W3: frozenset({(0, 2), (1, 0), (2, 0)}),
    ShapeTag3x3.W4: frozenset({(0, 1), (1, 0), (2, 0)}),
    ShapeTag3x3.W5: frozenset({(0, 2), (2, 1)}),
    ShapeTag3x3.W6: frozenset({(1, 2), (2, 1)}),
    ShapeTag3x3.W7: frozenset({(0, 1), (1, 2)}),
    ShapeTag3x3.W8: frozenset({(1, 0), (2, 0)}),
    ShapeTag3x3.W9: frozenset({(0, 1), (1, 0)}),
    ShapeTag3x3.W10: frozenset({(0, 2), (2, 0)}),
    ShapeTag3x3.W11: frozenset({(0, 2), (2, 0)}),
}

SHAPE_SUPPORTS_2X2 = {
    ShapeTag2x2.ANTIDIAGONAL: frozenset({(0, 1), (1, 0)}),
    ShapeTag2x2.LOWER_ONLY: frozenset({(1, 0)}),
    ShapeTag2x2.UPPER_ONLY: frozenset({(0, 1)}),
    ShapeTag2x2.DIAGONAL: frozenset({(0, 0), (1, 1)}),
    ShapeTag2x2.DIAGONAL_PARTIAL_A: frozenset({(0, 0)}),
    ShapeTag2x2.DIAGONAL_PARTIAL_D: frozenset({(1, 1)}),
}

TOPOLOGY_BY_TAG = {
    ShapeTag3x3.W1: TopologyTag.CASCADE,
    ShapeTag3x3.W2: TopologyTag.CASCADE,
    ShapeTag3x3.W3: TopologyTag.INDEPENDENT_PROBABILITY,
    ShapeTag3x3.W4: TopologyTag.INDEPENDENT_PROBABILITY,
    ShapeTag3x3.W5: TopologyTag.INDEPENDENT_PROBABILITY,
    ShapeTag3x3.W6: TopologyTag.FROZEN_UNDER_INIT,
    ShapeTag3x3.W7: TopologyTag.TWO_ENTRY,
    ShapeTag3x3.W8: TopologyTag.TWO_ENTRY,
    ShapeTag3x3.W11: TopologyTag.TWO_ENTRY,
    ShapeTag3x3.W9: TopologyTag.SINGLE_FOCUS,
    ShapeTag3x3.W10: TopologyTag.SINGLE_FOCUS,
}

# 2x2 admissibility: ((a=0 or b=0) and (c=0 or d=0)) and
#                    ((a=0 or c=0) and (b=0 or d=0))
# with blocks named a=(0,0), b=(0,1), c=(1,0), d=(1,1).
_CONJUNCTS_2X2 = (
    ("a=0 or b=0", (0, 0), (0, 1)),
    ("c=0 or d=0", (1, 0), (1, 1)),
    ("a=0 or c=0", (0, 0), (1, 0)),
    ("b=0 or d=0", (0, 1), (1, 1)),
)

# 3x3 admissibility conjuncts on off-diagonal blocks (1-indexed labels kept
# for readability of the rejection message; positions are 0-indexed).
_CONJUNCTS_3X3 = (
    ("a31=0 or a23=0", (2, 0), (1, 2)),
    ("a21=0 or a23=0", (1, 0), (1, 2)),
    ("a12=0 or a13=0", (0, 1), (0, 2)),
    ("a12=0 or a32=0", (0, 1), (2, 1)),
    ("a23=0 or a13=0", (1, 2), (0, 2)),
    ("a13=0 or a23=0", (0, 2), (1, 2)),
)


def _violated_conjuncts(support, conjuncts):
    return tuple(
        label for label, pos1, pos2 in conjuncts
        if pos1 in support and pos2 in support
    )


@dataclass(frozen=True)
class Classification2x2:
    tag: ShapeTag2x2 | None
    admissible: bool
    violated: tuple
    support: frozenset


@dataclass(frozen=True)
class Classification3x3:
    """Shape tag and structural-condition verdict for a 3x3 coupling.

    ``admissible`` evaluates the printed structural condition directly on the
    zero-pattern; ``tag`` matches the catalogued shapes.  The two disagree
    for the W2 cascade pattern, whose (0,1)/(1,2)/(2,0) support violates the
    first printed conjunct even though the shape is catalogued; both verdicts
    are reported rather than reconciled.
    """

    tag: ShapeTag3x3
    admissible: bool
    violated: tuple
    support: frozenset


def admissible_2x2(coupling: CouplingOperator) -> Classification2x2:
    """Classify a 2-event coupling against the six catalogued patterns."""
    if coupling.classical_dim != 2:
        raise ValueError("admissible_2x2 requires classical_dim == 2")
    support = coupling.support(PATTERN_ZERO_TOL)
    violated = _violated_conjuncts(support, _CONJUNCTS_2X2)
    if violated:
        return Classification2x2(None, False, violated, support)
    if not support:
        # the zero operator trivially satisfies everything
        return Classification2x2(ShapeTag2x2.DIAGONAL, True, (), support)
    for tag, shape_support in SHAPE_SUPPORTS_2X2.items():
        if support == shape_support:
            return Classification2x2(tag, True, (), support)
    raise AssertionError(f"unreachable: admissible 2x2 support {support} uncatalogued")


def structural_condition_3x3(support) -> tuple:
    """Violated conjuncts of the printed 3-event structural condition."""
    return _violated_conjuncts(support, _CONJUNCTS_3X3)


def admissible_3x3(coupling: CouplingOperator) -> Classification3x3:
    """Classify a 3-event coupling against the eleven catalogued shapes.

    Supports that are proper subsets of a catalogued shape get the tag of the
    lowest-numbered superset (the degenerate-case convention also used for
    the 2x2 family).  W10 is preferred over its duplicate W11.
    """
    if coupling.classical_dim != 3:
        raise ValueError("admissible_3x3 requires classical_dim == 3")
    support = coupling.support(PATTERN_ZERO_TOL)
    violated = structural_condition_3x3(support)
    admissible = not violated
    diagonal_part = {pos for pos in support if pos[0] == pos[1]}
    offdiag = support - diagonal_part
    if not offdiag:
        return Classification3x3(ShapeTag3x3.DIAGONAL, admissible, violated, support)
    for tag, shape_support in SHAPE_SUPPORTS_3X3.items():
        if offdiag == shape_support:
            return Classification3x3(tag, admissible, violated, support)
    for tag, shape_support in SHAPE_SUPPORTS_3X3.items():
        if offdiag < shape_support:
            return Classification3x3(tag, admissible, violated, support)
    return Classification3x3(ShapeTag3x3.INADMISSIBLE, admissible, violated, support)


def classify_topology(tag: ShapeTag3x3) -> TopologyTag:
    """Classical-evolution topology induced by an admissible 3x3 shape."""
    try:
        return TOPOLOGY_BY_TAG[tag]
    except KeyError:
        raise ValueError(f"{tag} has no associated topology") from None


@dataclass(frozen=True)
class CataloguePattern:
    label: str
    classical_dim: int
    support: frozenset
    tag: object  # ShapeTag2x2 | ShapeTag3x3
    duplicate_of: str | None = None

    def instantiate(self, entries) -> CouplingOperator:
        """Fill the support positions with the given quantum operators.

        ``entries`` maps each support position to a matrix, or is a single
        sequence of matrices assigned to the sorted support positions.
        """
        if not isinstance(entries, dict):
            entries = dict(zip(sorted(self.support), entries))
        return CouplingOperator.from_entries(
            self.classical_dim, {pos: entries[pos] for pos in self.support})


def enumerate_admissible_patterns(classical_dim: int) -> list:
    """Full catalogue of admissible patterns for 2- or 3-event systems.

    For dim 3 the list has eleven entries of which ten are distinct; the
    duplicated pattern is flagged via ``duplicate_of``.
    """
    if classical_dim == 2:
        return [
            CataloguePattern(tag.name, 2, support, tag)
            for tag, support in SHAPE_SUPPORTS_2X2.items()
        ]
    if classical_dim == 3:
        patterns = []
        for tag, support in SHAPE_SUPPORTS_3X3.items():
            duplicate = "W10" if tag is ShapeTag3x3.W11 else None
            patterns.append(CataloguePattern(tag.name, 3, support, tag, duplicate))
        return patterns
    raise ValueError(f"unsupported classical_dim {classical_dim} (expected 2 or 3)")
