"""The homology kernel's bulk checks against their per-cell and per-letter
oracles (tests/homology_oracles.py): the same verdicts and messages."""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from homology_oracles import build_complex_verdict, presentation_verdict, verdict
from snclab.complexes import build_complex
from snclab.presentations import Presentation, free_reduce

NOT_A_LIST = st.one_of(st.integers(-2, 3), st.none(), st.text(max_size=2))


# one defect per malformed cell, in a random place among valid faces
DEFECTS = {
    "bool": st.booleans(),
    "float": st.sampled_from([0.0, 1.0, -1.5]),
    "null": st.none(),
    "negative": st.integers(-3, -1),
}


@st.composite
def cell(draw, k, below):
    kind = draw(st.sampled_from(["valid"] * 6 + ["arity", "dangling", "not a list", *DEFECTS]))
    if kind == "not a list":
        return draw(NOT_A_LIST)
    size = draw(st.sampled_from([0, k, k + 2])) if kind == "arity" else k + 1
    faces = draw(st.lists(st.integers(0, max(below - 1, 0)), min_size=size, max_size=size))
    if faces and kind in DEFECTS:
        faces[draw(st.integers(0, size - 1))] = draw(DEFECTS[kind])
    elif faces and kind == "dangling":
        faces[draw(st.integers(0, size - 1))] = draw(st.integers(below, below + 2))
    return tuple(faces) if draw(st.booleans()) else faces


@st.composite
def cell_lists(draw):
    """Up to four layers, each cell drawn against the length of the layer
    below; sometimes a layer, or the whole list, is not a list."""
    if draw(st.integers(0, 15)) == 0:
        return draw(st.one_of(NOT_A_LIST, st.just([]), st.just(())))
    cells = [draw(st.lists(st.none(), max_size=3))]
    for k in range(1, draw(st.integers(1, 4))):
        cells.append(draw(st.lists(cell(k, len(cells[-1])), max_size=4)))
    if draw(st.integers(0, 7)) == 0:
        cells[draw(st.integers(0, len(cells) - 1))] = draw(NOT_A_LIST)
    return cells


def normalized(cells):
    """The cells build_complex keeps: tuples, empty top layers dropped."""
    out = [tuple(() for _ in cells[0])] + [tuple(map(tuple, layer)) for layer in cells[1:]]
    while len(out) > 1 and not out[-1]:
        out.pop()
    return tuple(out)


@settings(max_examples=1000)
@given(cell_lists())
def test_malformed_cell_lists_get_the_per_cell_message(cells):
    expected = build_complex_verdict(cells)
    assert verdict(build_complex, cells) == expected
    if expected is None:
        assert build_complex(cells).cells == normalized(cells)


@st.composite
def repeated_face_complexes(draw):
    """Delta-complexes up to dimension 4 on one or two vertices, each cell
    drawn from the first few cells below, so faces repeat, cancel and often
    leave d d = 0 before a later cell breaks it."""
    cells = [[None] * draw(st.integers(1, 2))]
    for k in range(1, draw(st.integers(2, 5))):
        below = min(len(cells[-1]), 3)
        layer = st.lists(st.integers(0, below - 1), min_size=k + 1, max_size=k + 1)
        cells.append(draw(st.lists(layer, min_size=1, max_size=4)))
    return cells


@settings(max_examples=500)
@given(repeated_face_complexes())
def test_composite_check_on_face_tuples_matches_dict_composite(cells):
    assert verdict(build_complex, cells) == build_complex_verdict(cells)


def test_composite_check_sees_late_failures_in_every_dimension():
    # seeded draws of the shapes above: every dimension 2..4 has complexes
    # whose first cells pass and a later one fails, and complexes that pass
    rng = random.Random(23)
    seen = set()
    for _ in range(3000):
        cells = [[None] * rng.randint(1, 2)]
        for k in range(1, rng.randint(2, 5)):
            below = min(len(cells[-1]), 3)
            cells.append([[rng.randrange(below) for _ in range(k + 1)]
                          for _ in range(rng.randint(1, 4))])
        expected = build_complex_verdict(cells)
        assert verdict(build_complex, cells) == expected
        if expected is None:
            seen.add(("passes", len(cells) - 1))
        else:
            k, j = map(int, re.fullmatch(r"boundary composite is nonzero on cell \((\d),(\d)\)",
                                         expected).groups())
            if j > 0:
                seen.add(("late failure", k))
    assert seen >= {("late failure", k) for k in (2, 3, 4)} | {("passes", 4)}, seen


LETTER = st.one_of(
    st.integers(-4, 4), st.integers(-4, 4), st.booleans(),
    st.sampled_from([1.0, -2.0]), st.none(), st.text(max_size=1),
)
WORD = st.one_of(
    st.lists(st.integers(-3, 3), max_size=4),
    st.lists(LETTER, max_size=4),
    st.tuples(LETTER, LETTER),
    NOT_A_LIST,
)
RELATORS = st.one_of(st.lists(WORD, max_size=4), st.tuples(WORD), NOT_A_LIST)


@settings(max_examples=500)
@given(st.integers(-1, 3), RELATORS)
def test_malformed_relators_get_the_per_letter_message(generators, relators):
    expected = presentation_verdict(generators, relators)
    assert verdict(Presentation.build, generators, relators) == expected
    if expected is None:
        p = Presentation.build(generators, relators)
        assert p.relators == tuple(map(tuple, relators))
        reduced = tuple(w for w in map(free_reduce, relators) if w)
        assert p.simplified() == Presentation(generators, reduced)


@given(st.integers(-1, 3), st.lists(st.lists(st.integers(-4, 4), max_size=4), max_size=4))
def test_constructor_range_check_matches_per_letter_oracle(generators, words):
    words = tuple(map(tuple, words))
    assert verdict(Presentation, generators, words) == presentation_verdict(generators, words)
