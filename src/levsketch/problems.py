"""Synthetic least-squares problem generators for the bench harness.

Four kinds: incoherent Gaussian designs, designs with one planted
high-leverage row (coherent), exactly consistent systems, and problems
loaded from matrix files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GenerationFailedError, InvalidParameterError, RankDeficientError
from .leverage import leverage_scores
from .linalg import DenseMatrix
from .mmio import read_matrix
from .sketch import RngStream

PROBLEM_KINDS = (
    "gaussian-incoherent",
    "spiked-coherent",
    "consistent",
    "custom-file",
)

_MAX_ATTEMPTS = 5


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
        if self.kind == "custom-file":
            if not self.a_path or not self.b_path:
                raise InvalidParameterError(
                    "custom-file problems need a_path and b_path"
                )
            return
        if not (self.n_rows > self.n_cols >= 1):
            raise InvalidParameterError(
                f"need n_rows > n_cols >= 1, got {self.n_rows}x{self.n_cols}"
            )
        if self.rhs_cols < 1:
            raise InvalidParameterError(f"need rhs_cols >= 1, got {self.rhs_cols}")
        if self.noise_scale < 0.0:
            raise InvalidParameterError(
                f"noise_scale must be >= 0, got {self.noise_scale}"
            )
        if self.kind == "spiked-coherent":
            lo = self.n_cols / self.n_rows
            if not (lo <= self.coherence_target <= 1.0):
                raise InvalidParameterError(
                    f"coherence_target must lie in [{lo:.3g}, 1], got "
                    f"{self.coherence_target}"
                )


def _plant_spike(arr: np.ndarray, target: float) -> np.ndarray:
    """Rescale row 0 so its leverage score hits ``target`` exactly.

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
    out = arr.copy()
    out[0, :] = scale * u
    return out


def generate_problem(spec: ProblemSpec) -> tuple[DenseMatrix, DenseMatrix, dict]:
    """Build one problem instance ``(a, b, meta)``.

    ``meta`` records the kind, the planted solution when one exists, the
    achieved coherence, and how many attempts generation took.  Generation
    is deterministic in ``spec.seed``.

    Raises
    ------
    GenerationFailedError
        If a full-column-rank design cannot be produced within the retry
        budget.
    """
    if spec.kind == "custom-file":
        a = read_matrix(spec.a_path)
        b = read_matrix(spec.b_path)
        profile = leverage_scores(a)  # also verifies full rank
        meta = {
            "kind": spec.kind,
            "x_true": None,
            "coherence": profile.coherence,
            "attempts": 1,
        }
        return a, b, meta

    rng = RngStream(spec.seed, stream_index=0)
    g = rng.generator
    n, r = spec.n_rows, spec.n_cols
    last_error = "no attempt made"
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        arr = g.standard_normal((n, r))
        if spec.kind == "spiked-coherent":
            try:
                arr = _plant_spike(arr, spec.coherence_target)
            except np.linalg.LinAlgError:
                last_error = "singular Gram matrix while planting the spike"
                continue
        a = DenseMatrix.from_array(arr)
        try:
            # Rank check and coherence in one QR, before x_true is drawn.
            coherence = leverage_scores(a).coherence
        except RankDeficientError:
            last_error = "design matrix came out rank deficient"
            continue
        x_true = g.standard_normal((r, spec.rhs_cols))
        barr = arr @ x_true
        if spec.kind != "consistent" and spec.noise_scale > 0.0:
            barr = barr + spec.noise_scale * g.standard_normal((n, spec.rhs_cols))
        b = DenseMatrix.from_array(barr)
        meta = {
            "kind": spec.kind,
            "x_true": DenseMatrix.from_array(x_true),
            "coherence": coherence,
            "attempts": attempt,
        }
        return a, b, meta
    raise GenerationFailedError(
        f"gave up after {_MAX_ATTEMPTS} attempts: {last_error}"
    )
