"""Every JSON reader, on any JSON value, returns or raises its own layer error."""

import argparse
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snclab import cli
from snclab.complexes import ComplexError, DeltaComplex, complex_from_json_dict
from snclab.presentations import Presentation, PresentationError, presentation_from_json_dict
from snclab.resolution import LocalModel, ResolutionError, model_from_json_dict
from snclab.seifert import (
    BaseCohomology,
    H2Decomposition,
    SeifertError,
    base_from_json_dict,
    decomposition_from_json_dict,
)
from snclab.voronoi import SiteSet, VoronoiError, region_from_json_dict

# the readers' own keys, so that objects often reach past the top level
KEYS = st.sampled_from(
    ["dim", "sites", "simplices", "I", "m", "F", "roots", "d", "h", "k", "c", "iM",
     "cells", "labels", "generators", "relators"]
) | st.text(max_size=4)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=12,
)


class Accepted(Exception):
    """Raised in place of the resolver once the roots reader has returned."""


def load_sites(value):
    with mock.patch.object(cli, "_load", return_value=value):
        return cli._load_sites("sites.json")


def load_roots(value):
    # the namespace --seed and --max-steps give cmd_resolve
    args = argparse.Namespace(action="run", file="roots.json", seed=0, max_steps=None)

    def accept(roots, policy, max_steps):
        raise Accepted(roots)

    with mock.patch.object(cli, "_load", return_value=value), \
            mock.patch.object(cli, "resolve", accept):
        try:
            cli.cmd_resolve(args)
        except Accepted as accepted:
            return accepted.args[0]
    raise AssertionError("the roots reader neither returned nor raised")


READERS = [
    (load_sites, VoronoiError, SiteSet, ("dim", "sites")),
    (load_roots, ResolutionError, list, ("roots",)),
    (region_from_json_dict, VoronoiError, tuple, ("simplices",)),
    (model_from_json_dict, ResolutionError, LocalModel, ("I", "m", "F")),
    (base_from_json_dict, SeifertError, BaseCohomology, ("d", "h")),
    (decomposition_from_json_dict, SeifertError, H2Decomposition, ("k", "c", "iM")),
    (complex_from_json_dict, ComplexError, DeltaComplex, ("cells",)),
    (presentation_from_json_dict, PresentationError, Presentation, ("generators", "relators")),
]


@pytest.mark.parametrize("reader, error, result, keys", READERS,
                         ids=[r[0].__name__ for r in READERS])
@given(data=st.data())
def test_reader_returns_or_raises_its_layer_error(reader, error, result, keys, data):
    # any JSON value, or an object holding every key of the reader
    value = data.draw(JSON | st.fixed_dictionaries(dict.fromkeys(keys, JSON)))
    try:
        out = reader(value)
    except error:
        return
    assert isinstance(out, result)
