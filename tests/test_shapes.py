import itertools

import numpy as np
import pytest

from eeqt.evolution import CouplingOperator, check_cp_conditions, classical_rate_equations
from eeqt.shapes import (
    SHAPE_SUPPORTS_3X3,
    CataloguePattern,
    Classification3x3,
    ShapeTag2x2,
    ShapeTag3x3,
    TopologyTag,
    admissible_2x2,
    admissible_3x3,
    classify_topology,
    enumerate_admissible_patterns,
    structural_condition_3x3,
)
from eeqt.states import basis_projector, random_projector

from conftest import random_hybrid_state

OFFDIAG_3 = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def coupling_with_support(n, positions, rng=None, dim=2):
    blocks = np.zeros((n, n, dim, dim), dtype=complex)
    for a, b in positions:
        entry = basis_projector(dim, 0) if rng is None else random_projector(dim, rng)
        blocks[a, b] = entry
    return CouplingOperator(blocks)


def orthogonal_entries(positions):
    """One distinct computational-basis projector per position."""
    dim = max(len(positions), 1)
    return {pos: basis_projector(dim, k) for k, pos in enumerate(sorted(positions))}


def test_antidiagonal_pattern_classifies(rng):
    cls = admissible_2x2(coupling_with_support(2, {(0, 1), (1, 0)}, rng))
    assert cls.tag is ShapeTag2x2.ANTIDIAGONAL
    assert cls.admissible and not cls.violated


def test_top_row_pattern_rejected(rng):
    cls = admissible_2x2(coupling_with_support(2, {(0, 0), (0, 1)}, rng))
    assert cls.tag is None
    assert not cls.admissible
    assert "a=0 or b=0" in cls.violated


def test_zero_coupling_is_vacuously_diagonal():
    cls = admissible_2x2(CouplingOperator(np.zeros((2, 2, 2, 2))))
    assert cls.tag is ShapeTag2x2.DIAGONAL
    assert cls.admissible


@pytest.mark.parametrize("positions,tag", [
    ({(1, 0)}, ShapeTag2x2.LOWER_ONLY),
    ({(0, 1)}, ShapeTag2x2.UPPER_ONLY),
    ({(0, 0), (1, 1)}, ShapeTag2x2.DIAGONAL),
    ({(0, 0)}, ShapeTag2x2.DIAGONAL_PARTIAL_A),
    ({(1, 1)}, ShapeTag2x2.DIAGONAL_PARTIAL_D),
])
def test_remaining_2x2_catalogue_tags(positions, tag, rng):
    assert admissible_2x2(coupling_with_support(2, positions, rng)).tag is tag


def test_w9_and_w10_classify(rng):
    assert admissible_3x3(coupling_with_support(3, {(0, 1), (1, 0)}, rng)).tag \
        is ShapeTag3x3.W9
    assert admissible_3x3(coupling_with_support(3, {(0, 2), (2, 0)}, rng)).tag \
        is ShapeTag3x3.W10


def test_overfull_top_row_is_inadmissible(rng):
    cls = admissible_3x3(coupling_with_support(3, {(0, 1), (0, 2), (1, 0)}, rng))
    assert not cls.admissible
    assert "a12=0 or a13=0" in cls.violated
    assert cls.tag is ShapeTag3x3.INADMISSIBLE


def test_catalogued_supports_match_exactly(rng):
    for tag, support in SHAPE_SUPPORTS_3X3.items():
        cls = admissible_3x3(coupling_with_support(3, support, rng))
        expected = ShapeTag3x3.W10 if tag is ShapeTag3x3.W11 else tag
        assert cls.tag is expected


def test_w2_catalogue_conflict_is_reported_not_hidden(rng):
    # the three-step cycle (0,1),(1,2),(2,0) is catalogued, yet its support
    # violates the first structural conjunct; both verdicts must survive
    cls = admissible_3x3(coupling_with_support(3, SHAPE_SUPPORTS_3X3[ShapeTag3x3.W2],
                                               rng))
    assert cls.tag is ShapeTag3x3.W2
    assert not cls.admissible
    assert cls.violated == ("a31=0 or a23=0",)


def test_structural_condition_enumeration_is_exhaustive():
    # all 2^6 off-diagonal zero/nonzero assignments: the classification's
    # admissible flag must equal direct evaluation of the conjunction
    def direct(support):
        return (((2, 0) not in support or (1, 2) not in support)
                and ((1, 0) not in support or (1, 2) not in support)
                and ((0, 1) not in support or (0, 2) not in support)
                and ((0, 1) not in support or (2, 1) not in support)
                and ((1, 2) not in support or (0, 2) not in support))

    n_admissible = 0
    for mask in itertools.product([False, True], repeat=6):
        support = {pos for pos, on in zip(OFFDIAG_3, mask) if on}
        cls = admissible_3x3(coupling_with_support(3, support))
        assert cls.admissible == direct(support), support
        assert bool(structural_condition_3x3(support)) != direct(support)
        n_admissible += cls.admissible
    assert n_admissible == 23


def test_subset_supports_inherit_a_catalogue_tag(rng):
    # degenerate patterns (one entry of a two-entry shape) keep a tag
    cls = admissible_3x3(coupling_with_support(3, {(0, 1)}, rng))
    assert cls.admissible
    assert cls.tag in (ShapeTag3x3.W2, ShapeTag3x3.W4, ShapeTag3x3.W7,
                       ShapeTag3x3.W9)


def test_diagonal_3x3_support(rng):
    cls = admissible_3x3(coupling_with_support(3, {(0, 0), (2, 2)}, rng))
    assert cls.tag is ShapeTag3x3.DIAGONAL
    assert cls.admissible


@pytest.mark.parametrize("tag,topology", [
    (ShapeTag3x3.W1, TopologyTag.CASCADE),
    (ShapeTag3x3.W2, TopologyTag.CASCADE),
    (ShapeTag3x3.W3, TopologyTag.INDEPENDENT_PROBABILITY),
    (ShapeTag3x3.W4, TopologyTag.INDEPENDENT_PROBABILITY),
    (ShapeTag3x3.W5, TopologyTag.INDEPENDENT_PROBABILITY),
    (ShapeTag3x3.W6, TopologyTag.FROZEN_UNDER_INIT),
    (ShapeTag3x3.W7, TopologyTag.TWO_ENTRY),
    (ShapeTag3x3.W8, TopologyTag.TWO_ENTRY),
    (ShapeTag3x3.W11, TopologyTag.TWO_ENTRY),
    (ShapeTag3x3.W9, TopologyTag.SINGLE_FOCUS),
    (ShapeTag3x3.W10, TopologyTag.SINGLE_FOCUS),
])
def test_topology_assignments(tag, topology):
    assert classify_topology(tag) is topology


def test_topology_undefined_for_non_shapes():
    with pytest.raises(ValueError):
        classify_topology(ShapeTag3x3.INADMISSIBLE)
    with pytest.raises(ValueError):
        classify_topology(ShapeTag3x3.DIAGONAL)


def test_single_focus_shapes_freeze_the_spectator_probability(rng):
    # W9 exchanges events 0 and 1, so dp2/dt vanishes identically; W10 the
    # same with events 0 and 2
    for tag, frozen in ((ShapeTag3x3.W9, 2), (ShapeTag3x3.W10, 1)):
        coupling = coupling_with_support(3, SHAPE_SUPPORTS_3X3[tag], rng, dim=3)
        for _ in range(5):
            state = random_hybrid_state(3, 3, rng)
            rates = classical_rate_equations(state, [coupling])
            assert abs(rates[frozen]) < 1e-12


def test_enumeration_dim2_has_six_patterns():
    patterns = enumerate_admissible_patterns(2)
    assert len(patterns) == 6
    assert {p.tag for p in patterns} == set(ShapeTag2x2)
    assert all(p.duplicate_of is None for p in patterns)


def test_enumeration_dim3_has_eleven_entries_ten_distinct():
    patterns = enumerate_admissible_patterns(3)
    assert len(patterns) == 11
    duplicates = [p for p in patterns if p.duplicate_of]
    assert [p.label for p in duplicates] == ["W11"]
    assert duplicates[0].duplicate_of == "W10"
    distinct = {p.support for p in patterns}
    assert len(distinct) == 10


def test_enumeration_rejects_other_dims():
    with pytest.raises(ValueError):
        enumerate_admissible_patterns(4)


def test_enumerated_patterns_pass_exact_cp_check():
    # soundness: instantiated catalogue patterns map block-diagonal operators
    # to block-diagonal operators
    for dim in (2, 3):
        for pattern in enumerate_admissible_patterns(dim):
            coupling = pattern.instantiate(orthogonal_entries(pattern.support))
            report = check_cp_conditions([coupling])
            assert report.ok, (pattern.label, report.summary())


def test_instantiate_assigns_entries_in_sorted_position_order(rng):
    pattern = CataloguePattern("W9", 3, frozenset({(0, 1), (1, 0)}),
                               ShapeTag3x3.W9)
    a, b = random_projector(2, rng), random_projector(2, rng)
    coupling = pattern.instantiate([a, b])
    np.testing.assert_array_equal(coupling.blocks[0, 1], a)
    np.testing.assert_array_equal(coupling.blocks[1, 0], b)
    cls = admissible_3x3(coupling)
    assert isinstance(cls, Classification3x3)
    assert cls.tag is ShapeTag3x3.W9


def test_instantiate_rejects_support_outside_the_classical_space():
    pattern = CataloguePattern("bad", 2, frozenset({(-1, 0)}), ShapeTag2x2.LOWER_ONLY)
    with pytest.raises(ValueError):
        pattern.instantiate([basis_projector(2, 0)])
