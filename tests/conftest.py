"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def count_factorizations(monkeypatch):
    """Count ``np.linalg.qr``/``svd``/``lstsq`` calls on matrices with ``n`` rows.

    Returns ``counts(n)``, the number of such calls made so far.  Sketch
    sizes in these tests differ from ``n``, so per-trial work on sketched
    ``s x r`` blocks is not counted.
    """
    rows = []
    for name in ("qr", "svd", "lstsq"):
        original = getattr(np.linalg, name)

        def counting(a, *args, _original=original, **kwargs):
            rows.append(np.shape(a)[0])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return lambda n: rows.count(n)
