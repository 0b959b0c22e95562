"""Each test starts with an empty host store (`io._kept`, where the stack
parser keeps the hosts it packed), and every patch a test makes through
`monkeypatch` empties it again.  A kept host keeps the views built on it
(the facet graph, the assembly map), so without this a fault that a test
patches into a view would not reach a command on a file that an earlier
test, or the same test before the patch, had parsed."""

import threading

import pytest

from morseshed import io


@pytest.fixture(autouse=True)
def empty_host_store(monkeypatch):
    monkeypatch.setattr(io, "_kept", threading.local())
    for name in ("setattr", "setitem"):
        patch = getattr(monkeypatch, name)

        def emptying(*args, _patch=patch, **kwargs):
            _patch(*args, **kwargs)
            vars(io._kept).pop("hosts", None)

        setattr(monkeypatch, name, emptying)  # on this test's instance alone
