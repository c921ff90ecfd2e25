"""Suite-wide defaults.

The run ledger is on by default for real usage, but the test suite
must not append hundreds of records to the developer's actual cache
root — every engine call here would otherwise log itself.  Tests that
exercise the ledger opt back in explicitly (``ledger=True`` or a
monkeypatched ``REPRO_LEDGER``) against a tmp cache dir.

No test writes into a real cache root in any tier either: for the
whole session ``REPRO_CACHE_DIR`` points at a fresh temporary directory,
whatever the environment said, and the directory is removed when the
session ends.  Task results, compiled traces and any ledger a test
turns on land there unless the test roots its cache at a ``tmp_path``.
"""

import os
import shutil
import tempfile

import pytest

os.environ.setdefault("REPRO_LEDGER", "off")

_CACHE_DIR = pytest.StashKey[str]()


def pytest_configure(config):
    cache_dir = tempfile.mkdtemp(prefix="repro-test-cache-")
    config.stash[_CACHE_DIR] = cache_dir
    os.environ["REPRO_CACHE_DIR"] = cache_dir


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_CACHE_DIR], ignore_errors=True)
