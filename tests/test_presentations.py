"""Presentations, abelianization, and the rational perfectness tests."""

import random

import pytest

from corpus import CIRCLE, FULL_2_SIMPLEX, NAMED_COMPLEXES, RP2, TORUS
from minors_oracle import exponent_matrix, invariant_factors_by_minors
from snclab.complexes import AbelianGroup, ComplexError, build_complex, from_simplices
from snclab.presentations import (
    Presentation,
    PresentationError,
    SuperperfectVerdict,
    abelianization,
    free_reduce,
    higman_presentation,
    is_q_perfect,
    is_q_superperfect_sufficient,
    pi1_presentation,
    sl2z_presentation,
)


def test_relator_index_validation():
    with pytest.raises(PresentationError):
        Presentation.build(2, [[1, 3]])
    with pytest.raises(PresentationError):
        Presentation.build(2, [[0]])


def test_free_reduction_and_simplify():
    assert free_reduce([1, 2, -2, -1, 3]) == (3,)
    p = Presentation.build(2, [[1, -1], [2, 1, -1, -2], [1, 2]])
    assert p.simplified().relators == ((1, 2),)


def test_pi1_circle():
    p = pi1_presentation(CIRCLE)
    assert p.generators == 1
    assert p.relators == ()
    assert abelianization(p) == AbelianGroup(1)


def test_pi1_full_simplex_contractible():
    p = pi1_presentation(FULL_2_SIMPLEX)
    # a single generator killed by the single 2-cell; no Tietze moves are
    # applied, so the presentation stays <x | x> with trivial abelianization
    assert p.generators == 1
    assert abelianization(p.simplified()) == AbelianGroup(0)


def test_pi1_rp2_abelianization():
    p = pi1_presentation(RP2)
    assert abelianization(p) == AbelianGroup(0, (2,))


def test_pi1_torus():
    p = pi1_presentation(TORUS)
    assert abelianization(p) == AbelianGroup(2)


def test_pi1_requires_connected():
    two_points = from_simplices([(0,), (1,)])
    # the search from either vertex misses the other; an out-of-range
    # basepoint of a disconnected or empty complex gets the connectivity
    # message, as it did when connectivity was checked first
    for k, basepoint in ((two_points, 0), (two_points, 1), (two_points, 17),
                         (from_simplices([(0, 1), (2, 3, 4)]), 4),
                         (from_simplices([(0, 1), (2, 3, 4)]), -1),
                         (build_complex([[]]), 0)):
        with pytest.raises(ComplexError, match="^pi_1 needs a connected complex$"):
            pi1_presentation(k, basepoint)
    for basepoint in (17, 3, -1):
        with pytest.raises(ComplexError, match="^basepoint out of range$"):
            pi1_presentation(CIRCLE, basepoint=basepoint)


def test_pi1_deterministic():
    a = pi1_presentation(RP2)
    b = pi1_presentation(RP2)
    assert a == b


def test_abelianization_examples():
    assert abelianization(Presentation.build(1, [[1, 1]])) == AbelianGroup(0, (2,))
    assert abelianization(higman_presentation()) == AbelianGroup(0)
    assert abelianization(Presentation.build(2, [[1, 2, -1, -2]])) == AbelianGroup(2)


def test_q_perfect():
    assert is_q_perfect(higman_presentation())
    assert is_q_perfect(Presentation.build(1, [[1, 1]]))
    assert not is_q_perfect(Presentation.build(1, []))


def test_q_superperfect_sufficient():
    assert is_q_superperfect_sufficient(sl2z_presentation()) is SuperperfectVerdict.CONFIRMED
    assert is_q_superperfect_sufficient(Presentation.build(0, [])) is SuperperfectVerdict.CONFIRMED
    assert is_q_superperfect_sufficient(Presentation.build(1, [])) is SuperperfectVerdict.INCONCLUSIVE
    # the one-sided test never confirms when b1 or b2 is positive
    assert (
        is_q_superperfect_sufficient(Presentation.build(2, [[1, 2, -1, -2]]))
        is SuperperfectVerdict.INCONCLUSIVE
    )


def random_connected_complex(rng: random.Random):
    n = rng.randint(3, 6)
    simplices = [(i, i + 1) for i in range(n - 1)]
    for _ in range(rng.randint(0, 4)):
        a, b = rng.sample(range(n), 2)
        simplices.append(tuple(sorted((a, b))))
    for _ in range(rng.randint(0, 4)):
        tri = rng.sample(range(n), 3)
        simplices.append(tuple(sorted(tri)))
    return from_simplices(simplices)


def test_abelianized_pi1_matches_h1_on_random_complexes():
    rng = random.Random(424242)
    complexes = [random_connected_complex(rng) for _ in range(100)]
    complexes += [k for k in NAMED_COMPLEXES.values() if k.is_connected()]
    for k in complexes:
        assert abelianization(pi1_presentation(k)) == k.homology(1)


def test_abelianization_against_minors_oracle():
    rng = random.Random(999)
    for _ in range(100):
        gens = rng.randint(1, 4)
        relators = []
        for _ in range(rng.randint(0, 4)):
            length = rng.randint(1, 6)
            relators.append(
                [rng.choice([1, -1]) * rng.randint(1, gens) for _ in range(length)]
            )
        p = Presentation.build(gens, relators)
        got = abelianization(p)
        factors = invariant_factors_by_minors(exponent_matrix(p))
        nonzero = [d for d in factors if d != 0]
        expected = AbelianGroup.from_invariant_factors(gens - len(nonzero), nonzero)
        assert got == expected
        confirmed = gens == len(nonzero) == len(relators)
        assert (is_q_superperfect_sufficient(p) is SuperperfectVerdict.CONFIRMED) == confirmed
