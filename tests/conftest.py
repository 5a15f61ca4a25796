import os
import sys
import tempfile

import pytest
from hypothesis import configuration

sys.path.insert(0, os.path.dirname(__file__))

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Even without an example database, hypothesis caches the constants of
    # local modules in its home directory (./.hypothesis by default) while
    # pytest collects, so point it at a directory removed when the run ends.
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()
