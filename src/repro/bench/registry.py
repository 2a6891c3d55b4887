"""Case registry: the decorator-registered cases of :mod:`repro.bench.suites`.

The paper's tables and figures are not bench cases: ``python -m repro
paper`` (:mod:`repro.workloads.paper`) reproduces them.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.bench.core import BenchCase

__all__ = [
    "register",
    "all_cases",
    "cases_for_suite",
    "available_suites",
    "ensure_registered",
]

_REGISTRY: dict[str, BenchCase] = {}
_BOOTSTRAPPED = False


def register(
    name: str,
    *,
    suites: tuple[str, ...] = ("full",),
    tier: int = 2,
    repeats: int = 3,
    warmup: int = 1,
    setup: Callable[[], Any] | None = None,
    description: str = "",
) -> Callable:
    """Register a plain function as a bench case (names must be unique)."""

    def decorator(fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
        if name in _REGISTRY:
            raise ValueError(f"bench case {name!r} already registered")
        _REGISTRY[name] = BenchCase(
            name=name,
            fn=fn,
            setup=setup,
            suites=tuple(suites),
            tier=tier,
            repeats=repeats,
            warmup=warmup,
            description=description or (fn.__doc__ or "").strip().splitlines()[0]
            if (description or fn.__doc__)
            else "",
        )
        return fn

    return decorator


def all_cases() -> list[BenchCase]:
    """Every registered case, in registration order."""
    ensure_registered()
    return list(_REGISTRY.values())


def cases_for_suite(suite: str) -> list[BenchCase]:
    """Cases belonging to ``suite`` (``"all"`` selects everything)."""
    if suite == "all":
        return all_cases()
    return [c for c in all_cases() if suite in c.suites]


def available_suites() -> list[str]:
    """Sorted names of all suites any case belongs to."""
    names = {s for c in all_cases() for s in c.suites}
    return sorted(names | {"all"})


def ensure_registered() -> None:
    """Import all case-defining modules exactly once."""
    global _BOOTSTRAPPED
    if _BOOTSTRAPPED:
        return
    _BOOTSTRAPPED = True
    import repro.bench.suites  # noqa: F401  (registers the smoke/full cases)
