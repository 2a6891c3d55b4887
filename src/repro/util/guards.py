"""Invariant guards: conservation and finiteness checks on live state.

A fault-tolerant run must never produce *silently wrong* physics: after
a transport retry, a rank failure, or a recovery the state either
satisfies the same conservation invariants as an undisturbed run or the
violation is reported.  :class:`InvariantGuard` packages the checks the
simulation driver and the parallel stepper thread through their phase
boundaries (after scatter, after push, after redistribution / recovery):

* **particle count** — the global number of particles equals the number
  the run started with (redistribution and recovery permute, never drop);
* **charge** — the global sum of particle charge is conserved to a
  relative tolerance (float reassociation across ranks moves the sum by
  a few ulps, physics loss moves it by whole particles);
* **finiteness** — no NaN/Inf in particle positions/momenta or in the
  field arrays a phase just produced.

Severity is configurable:

* ``"off"`` — the guard is not installed at all; the hot path carries
  only dormant ``is None`` branches (zero cost).
* ``"warn"`` — violations emit a :class:`UserWarning` and the run
  continues (useful to survey a chaos run end-to-end).
* ``"strict"`` — violations raise
  :class:`~repro.util.errors.SimulationIntegrityError`.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.util.errors import SimulationIntegrityError
from repro.util.validation import require

__all__ = ["InvariantGuard", "GUARD_MODES"]

#: Valid guard severities, in increasing strictness.
GUARD_MODES = ("off", "warn", "strict")

#: Relative tolerance on charge conservation: summation order changes
#: across redistributions / recoveries reassociate the float sum.
_CHARGE_RTOL = 1e-9


class InvariantGuard:
    """Conservation and finiteness checker with configurable severity.

    Parameters
    ----------
    mode:
        ``"warn"`` or ``"strict"`` (``"off"`` means "don't construct a
        guard" — the call sites skip a ``None`` attribute instead, so a
        disabled guard costs nothing).
    """

    def __init__(self, mode: str = "warn") -> None:
        require(mode in ("warn", "strict"), f"guard mode must be warn|strict, got {mode!r}")
        self.mode = mode
        self.expected_count: int | None = None
        self.expected_charge: float | None = None
        #: violations reported so far (message strings, in order)
        self.violations: list[str] = []
        #: optional telemetry sink called with each violation message
        #: (before the warning / raise); ``None`` = no telemetry attached
        self.on_violation = None

    # ------------------------------------------------------------------
    def capture(self, particles) -> None:
        """Record the conserved quantities from per-rank particle sets."""
        self.expected_count = int(sum(p.n for p in particles))
        self.expected_charge = float(sum(float(np.sum(p.q)) for p in particles))

    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        self.violations.append(message)
        if self.on_violation is not None:
            self.on_violation(message)
        if self.mode == "strict":
            raise SimulationIntegrityError(message)
        warnings.warn(f"invariant violation: {message}", UserWarning, stacklevel=3)

    # ------------------------------------------------------------------
    def check_particles(self, particles, where: str) -> None:
        """Count, charge, and finiteness checks on per-rank particle sets."""
        count = int(sum(p.n for p in particles))
        if self.expected_count is not None and count != self.expected_count:
            self._fail(
                f"[{where}] global particle count {count} != expected "
                f"{self.expected_count} ({self.expected_count - count} lost)"
            )
        if self.expected_charge is not None:
            charge = float(sum(float(np.sum(p.q)) for p in particles))
            tol = _CHARGE_RTOL * max(abs(self.expected_charge), 1.0)
            if not np.isfinite(charge) or abs(charge - self.expected_charge) > tol:
                self._fail(
                    f"[{where}] global charge {charge!r} != expected "
                    f"{self.expected_charge!r} (tol {tol:.3g})"
                )
        for p in particles:
            if p.n and not np.isfinite(p.block[:5]).all():  # x, y, ux, uy, uz
                self._fail(f"[{where}] non-finite particle position/momentum")
                break

    def check_fields(self, fields, where: str, *, names=("rho", "jx", "jy", "jz")) -> None:
        """Finiteness check on the named field arrays."""
        for name in names:
            arr = getattr(fields, name)
            if not np.isfinite(arr).all():
                self._fail(f"[{where}] non-finite values in field {name!r}")
                return

    # ------------------------------------------------------------------
    def after_scatter(self, pic) -> None:
        """Post-scatter hook: the deposited sources must be finite."""
        self.check_fields(pic.fields, "scatter")

    def after_push(self, pic) -> None:
        """Post-push hook: particles conserved and finite, fields finite."""
        self.check_particles(pic.particles, "push")
        self.check_fields(pic.fields, "push", names=("ex", "ey", "ez", "bx", "by", "bz"))

    def after_redistribution(self, particles) -> None:
        """Post-redistribution/recovery hook on fresh per-rank sets."""
        self.check_particles(particles, "redistribution")

    def __repr__(self) -> str:
        return f"InvariantGuard(mode={self.mode!r}, violations={len(self.violations)})"
