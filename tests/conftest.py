"""Shared fixtures."""

import pytest

from rotref import cyclo, groups, verify

# every module-level per-process cache of the package, as (module, name);
# tests/test_tooling.py fails when a `_..._CACHE` in src/rotref is missing
CACHES = (
    (groups, "_CATALOG_CACHE"),
    (groups, "_WREATH_CACHE"),
    (verify, "_WREATH_ARR_CACHE"),
    (verify, "_CATALOG_ARR_CACHE"),
    (cyclo, "_INV_CACHE"),
)


@pytest.fixture
def fresh_caches(monkeypatch):
    """Give every cache in CACHES a fresh dict for this test, so that it
    builds or counts what an earlier test may have cached; calling the
    returned function empties them all again mid-test."""

    def reset():
        for module, name in CACHES:
            monkeypatch.setattr(module, name, {})

    reset()
    return reset
