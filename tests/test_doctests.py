"""Run the usage examples embedded in the library docstrings and in the
test-side move graph (tests/movegraph.py)."""

import doctest

import pytest

import movegraph
from crystaltiles import bz, cli, crossings, lusztig, potentials, strings, tiling, verify, words

MODULES = [words, tiling, lusztig, crossings, strings, bz, potentials, cli, verify, movegraph]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.split(".")[-1])
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
