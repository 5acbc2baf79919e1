"""Run the usage examples embedded in the library docstrings."""

import doctest

import pytest

from crystaltiles import bz, cli, crossings, lusztig, potentials, strings, tiling, verify, words

MODULES = [words, tiling, lusztig, crossings, strings, bz, potentials, cli, verify]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.split(".")[-1])
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
