"""Shared fixtures."""

import math

import numpy as np
import pytest

FACTORIZATIONS = ("qr", "svd", "lstsq")


@pytest.fixture
def count_numpy_calls(monkeypatch):
    """Count ``np.linalg.qr``/``svd``/``lstsq``/``eigvalsh``, ``np.cumsum`` and
    ``np.searchsorted`` calls by the shape of their first argument.

    Returns ``counts(rows, names=FACTORIZATIONS, stack=None)``, the number
    of calls so far to the named functions on matrices with ``rows`` rows
    (any row count when None) in stacks of ``stack`` matrices (any stack
    size when None).  The first argument of shape ``(..., rows, cols)`` is a
    stack of ``prod(...)`` matrices; a matrix or a vector of ``rows``
    entries is a stack of one.  Sketch sizes in these tests differ from
    ``n``, so per-trial work on sketched ``s x r`` blocks is told apart from
    work on the problem by its row count, and a call for a whole chunk of
    trials from one call per trial by its stack size.
    """
    calls = []
    patched = [(np.linalg, n) for n in (*FACTORIZATIONS, "eigvalsh")]
    patched += [(np, "cumsum"), (np, "searchsorted")]
    for module, name in patched:
        original = getattr(module, name)

        def counting(a, *args, _original=original, _name=name, **kwargs):
            shape = np.shape(a)
            rows = shape[-2] if len(shape) >= 2 else shape[0]
            calls.append((_name, rows, math.prod(shape[:-2])))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    def counts(rows, names=FACTORIZATIONS, stack=None):
        return sum(1 for name, n, k in calls
                   if name in names and rows in (None, n) and stack in (None, k))

    return counts
