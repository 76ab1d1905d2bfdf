"""Synthetic least-squares problem generators for the bench harness.

Four kinds: incoherent Gaussian designs, designs with one planted
high-leverage row (coherent), exactly consistent systems, and problems
loaded from matrix files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import GenerationFailedError, InvalidParameterError, RankDeficientError
from .leverage import profile_from_basis
from .linalg import LstsqSolution, as_int, as_real, exact_lstsq, read_only
from .mmio import as_path, read_matrix
from .sketch import MAX_SEED, RngStream

PROBLEM_KINDS = (
    "gaussian-incoherent",
    "spiked-coherent",
    "consistent",
    "custom-file",
)

_MAX_ATTEMPTS = 5

#: Most entries ``n_rows * (n_cols + rhs_cols)`` of A and b (0.8 GB) a generated
#: problem may have; larger shapes fail before anything is allocated.
MAX_ENTRIES = 100_000_000


@dataclass(frozen=True)
class ProblemSpec:
    """Recipe for one synthetic (or file-backed) least-squares instance."""

    kind: str
    n_rows: int = 2000
    n_cols: int = 5
    rhs_cols: int = 1
    noise_scale: float = 1.0
    coherence_target: float = 0.0
    seed: int = 0
    a_path: str | None = None
    b_path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in PROBLEM_KINDS:
            raise InvalidParameterError(
                f"unknown problem kind {self.kind!r}; choose from {PROBLEM_KINDS}"
            )
        for name in ("n_rows", "n_cols"):
            as_int(getattr(self, name), name)
        as_int(self.rhs_cols, "rhs_cols", 1)
        as_int(self.seed, "problem seed", 0, MAX_SEED)  # the stream-0 seed check, before any work
        as_real(self.noise_scale, "noise_scale", 0, math.inf, "[)")
        if self.kind == "custom-file":
            # A file problem's shape is its files': it reads no other setting.
            for f in fields(self):
                if f.name not in ("kind", "a_path", "b_path") and getattr(self, f.name) != f.default:
                    raise InvalidParameterError(
                        f"a custom-file problem reads only a_path and b_path, "
                        f"got {f.name} = {getattr(self, f.name)!r}")
            # A path that cannot be read, "" included, fails as an OSError when read.
            if self.a_path is None or self.b_path is None:
                raise InvalidParameterError(
                    "custom-file problems need a_path and b_path"
                )
            as_path(self.a_path, "a_path")
            as_path(self.b_path, "b_path")
            return
        if self.a_path is not None or self.b_path is not None:
            raise InvalidParameterError(
                f"a {self.kind} problem is generated and reads no a_path or b_path")
        if not (self.n_rows > self.n_cols >= 1):
            raise InvalidParameterError(
                f"need n_rows > n_cols >= 1, got {self.n_rows}x{self.n_cols}"
            )
        entries = self.n_rows * (self.n_cols + self.rhs_cols)
        if entries > MAX_ENTRIES:
            raise InvalidParameterError(
                f"a {self.n_rows}x{self.n_cols} problem with {self.rhs_cols} right-hand "
                f"side(s) has {entries} entries, over the budget of {MAX_ENTRIES}"
            )
        # A spike's leverage is at least the mean leverage r/n; the other
        # kinds plant none but take the same kind of setting.
        lo = self.n_cols / self.n_rows if self.kind == "spiked-coherent" else 0
        as_real(self.coherence_target, "coherence_target", lo, 1)


def _plant_spike(arr: np.ndarray, target: float) -> None:
    """Rescale row 0 in place so its leverage score hits ``target`` exactly.

    With row 0 equal to ``t*u`` and ``M`` the Gram matrix of the remaining
    rows, the leverage of row 0 is ``t^2 q / (1 + t^2 q)`` where
    ``q = u^T M^{-1} u``; solving for ``t`` is closed-form.
    """
    u = arr[0, :].copy()
    rest = arr[1:, :]
    m_gram = rest.T @ rest
    z = np.linalg.solve(m_gram, u)
    q = float(u @ z)
    if q <= 0.0 or target >= 1.0:
        scale = 1e8  # target 1 is unreachable exactly; saturate instead
    else:
        scale = np.sqrt(target / (q * (1.0 - target)))
    arr[0, :] = scale * u


def generate_problem(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray, dict]:
    """Build one problem instance ``(a, b, meta)``.

    ``a`` and ``b`` are read-only arrays: a generated problem's draws as
    drawn (row-major), a file's matrices as :func:`~levsketch.mmio.read_matrix`
    returns them.
    ``meta`` records the planted solution ``x_true`` when one exists, how
    many attempts generation took, ``exact``: the
    :func:`~levsketch.linalg.exact_lstsq` solve of ``(a, b)``, and
    ``profile``: the leverage profile of its basis, which gives the
    coherence.  The QR is the full-rank check, so a problem is factored once
    and its scores computed once.  Generation is deterministic in
    ``spec.seed``.

    Raises
    ------
    GenerationFailedError
        If a full-column-rank design cannot be produced within the retry
        budget.
    InvalidParameterError
        If ``spec.noise_scale`` is so large that ``b`` overflows.
    """
    if spec.kind == "custom-file":
        a = np.asarray(read_matrix(spec.a_path))
        b = np.asarray(read_matrix(spec.b_path))
        return a, b, _meta(None, exact_lstsq(a, b), 1)

    g = RngStream(spec.seed, stream_index=0).generator
    n, r = spec.n_rows, spec.n_cols
    last_error = "no attempt made"
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        a = g.standard_normal((n, r))
        if spec.kind == "spiked-coherent":
            try:
                _plant_spike(a, spec.coherence_target)
            except np.linalg.LinAlgError:
                last_error = "singular Gram matrix while planting the spike"
                continue
        x_true = g.standard_normal((r, spec.rhs_cols))
        b = a @ x_true
        if spec.kind != "consistent" and spec.noise_scale > 0.0:
            with np.errstate(over="ignore"):  # float(): a Fraction would make an object array
                b = b + float(spec.noise_scale) * g.standard_normal((n, spec.rhs_cols))
            if not np.isfinite(b).all():  # every redraw would overflow too
                raise InvalidParameterError(
                    f"noise_scale = {spec.noise_scale!r} makes b overflow float64"
                )
        try:
            exact = exact_lstsq(a, b)
        except RankDeficientError:
            last_error = "design matrix came out rank deficient"
            continue
        return read_only(a), read_only(b), _meta(read_only(x_true), exact, attempt)
    raise GenerationFailedError(
        f"gave up after {_MAX_ATTEMPTS} attempts: {last_error}"
    )


def _meta(x_true: np.ndarray | None, exact: LstsqSolution, attempts: int) -> dict:
    return {
        "x_true": x_true,
        "attempts": attempts,
        "exact": exact,
        "profile": profile_from_basis(exact.basis),
    }
