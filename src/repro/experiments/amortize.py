"""Shared sweep-backend plumbing for the λ-sweep drivers.

Every λ-sweep driver (and the CV grid searches) exposes
``sweep_backend``, one of :data:`SWEEP_BACKEND_CHOICES`:

* ``"direct"`` (default) — per-point :func:`repro.core.soft.solve_soft_criterion`
  solves, bit-identical to previous releases;
* ``"exact"`` / ``"auto"`` / ``"multigrid"`` — one
  :class:`~repro.linalg.workspace.SolveWorkspace` per replicate (or per
  fixed graph or CV fold) amortizes assembly, factorization and warm
  starts across the grid.  ``"exact"`` stays bit-compatible with direct
  full-system solves; ``"auto"`` (Woodbury continuation below the
  measured crossover, multigrid above it) and ``"multigrid"`` are
  approximate to solver tolerance (validated at atol 1e-8 in the parity
  suite).
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.linalg.workspace import SWEEP_BACKENDS, SolveWorkspace

__all__ = ["SWEEP_BACKEND_CHOICES", "check_sweep_backend", "make_workspace"]

SWEEP_BACKEND_CHOICES = ("direct",) + SWEEP_BACKENDS


def check_sweep_backend(sweep_backend: str) -> str:
    """Validate a driver-level sweep backend name."""
    if sweep_backend not in SWEEP_BACKEND_CHOICES:
        raise ConfigurationError(
            f"sweep_backend must be one of {SWEEP_BACKEND_CHOICES}, "
            f"got {sweep_backend!r}"
        )
    return sweep_backend


def make_workspace(weights, sweep_backend: str, *, dtype_policy: str = "float64"):
    """A :class:`SolveWorkspace` for the backend, or ``None`` for direct.

    ``dtype_policy`` selects the smoothing precision for the multigrid
    path (``"float32"`` halves smoothing-matrix memory; the outer PCG
    stays float64 — see docs/SCALING.md).  The ``exact`` backend and
    ``auto``'s Woodbury path accept the knob but never read it.
    """
    check_sweep_backend(sweep_backend)
    if sweep_backend == "direct":
        return None
    return SolveWorkspace(weights, backend=sweep_backend, dtype_policy=dtype_policy)
