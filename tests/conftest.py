"""Shared fixtures and helpers."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from levsketch import CSV_COLUMNS, RngStream

FACTORIZATIONS = ("qr", "svd", "lstsq")


@pytest.fixture
def count_numpy_calls(monkeypatch):
    """Count ``np.linalg.qr``/``svd``/``lstsq``/``eigvalsh``, ``np.cumsum`` and
    ``np.searchsorted`` calls by the shape of their first argument, and the
    in-place QRs of ``levsketch.linalg`` as ``"qr"``: one per
    ``lapack_lite.dgeqrf`` factorization (workspace queries are not counted)
    of a matrix with ``m`` rows, its first argument.

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

    geqrf = np.linalg.lapack_lite.dgeqrf

    def counting_geqrf(m, n, a, lda, tau, work, lwork, info):
        if lwork != -1:
            calls.append(("qr", m, 1))
        return geqrf(m, n, a, lda, tau, work, lwork, info)

    monkeypatch.setattr(np.linalg.lapack_lite, "dgeqrf", counting_geqrf)

    def counts(rows, names=FACTORIZATIONS, stack=None):
        return sum(1 for name, n, k in calls
                   if name in names and rows in (None, n) and stack in (None, k))

    return counts


def trial_rows(report):
    """A report's trials, one namespace per trial with an attribute per CSV
    column: the run's constants and stream keys around ``report.scores``
    transposed through ``.tolist()``, so values are Python ``bool``, ``int``,
    ``float`` and ``str``, not numpy scalars."""
    seed = report.config.master_seed
    rows = zip(*[column.tolist() for column in report.scores])
    return [SimpleNamespace(**dict(zip(CSV_COLUMNS, (
                t, report.s, report.beta, *row, RngStream.algorithm_id, seed, t + 1))))
            for t, row in enumerate(rows)]


def dense_operator(plan):
    """The dense ``s x n`` sketching operator of a plan, built by hand and
    independent of the library: weight ``weights[t]`` in column
    ``draws[t]`` of row ``t``, zeros elsewhere."""
    s_mat = np.zeros((plan.n_samples, plan.n_source_rows))
    for t in range(plan.n_samples):
        s_mat[t, plan.draws[t]] += plan.weights[t]
    return s_mat
