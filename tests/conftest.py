"""Shared fixtures."""

import numpy as np
import pytest

FACTORIZATIONS = ("qr", "svd", "lstsq")


@pytest.fixture
def count_numpy_calls(monkeypatch):
    """Count ``np.linalg.qr``/``svd``/``lstsq`` and ``np.cumsum`` calls by the
    row count of their first argument.

    Returns ``counts(rows, names=FACTORIZATIONS)``, the number of calls so
    far to the named functions on arrays with ``rows`` rows (any row count
    when ``rows`` is None).  Sketch sizes in these tests differ from ``n``,
    so per-trial work on sketched ``s x r`` blocks is told apart from work
    on the problem by its row count.
    """
    calls = []
    for module, name in [(np.linalg, n) for n in FACTORIZATIONS] + [(np, "cumsum")]:
        original = getattr(module, name)

        def counting(a, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, np.shape(a)[0]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    def counts(rows, names=FACTORIZATIONS):
        return sum(1 for name, n in calls if name in names and rows in (None, n))

    return counts
