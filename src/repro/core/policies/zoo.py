"""The extended redistribution-policy zoo (beyond the paper's three).

The paper's Stop-At-Rise rule is one point in a large policy space;
Sauget & Latu (2011) and Miller et al. (2020) both show the winning
rebalancing strategy is workload-dependent.  This module adds the
competitive alternatives that ``repro paper``'s ``ablation_policy_zoo``
judges per workload class:

* :class:`OnlineTunedSAR` (``sar-ewma``) — Stop-At-Rise with
  ``T_redistribution`` adapted from *all* observed redistribution costs
  through an exponentially weighted moving average, instead of trusting
  the single most recent sample.
* :class:`CostModelPredictivePolicy` (``costmodel``) — fires when the
  §4 machine model projects a net reduction of ``vm.elapsed()`` over a
  lookahead horizon: staying unbalanced costs ``rise`` extra seconds on
  each of the next ``horizon`` iterations, rebalancing costs the
  EWMA-smoothed measured redistribution time (floored by the model's
  communication lower bound).
* :class:`ImbalanceThresholdPolicy` (``imbalance``) — fires on the
  observed max/mean particle-count imbalance crossing a threshold, with
  hysteresis so a marginal rebalance cannot oscillate.
* :class:`OptimalPlannerPolicy` (``planner``) — fits the measured
  degradation rate, then picks the next redistribution iteration by
  minimizing the projected per-iteration overhead ``C/n + a(n-1)/2``
  (closed form ``sqrt(2C/a)``).

Every policy emits one replayable decision record per evaluation and
round-trips through the spec registry and ``state_dict`` like the
classic three.
"""

from __future__ import annotations

from repro.core.policies.base import Param, RedistributionPolicy
from repro.core.policies.classic import DynamicSARPolicy
from repro.core.policies.registry import register_policy
from repro.util import require

__all__ = [
    "OnlineTunedSAR",
    "CostModelPredictivePolicy",
    "ImbalanceThresholdPolicy",
    "OptimalPlannerPolicy",
]


class _EwmaCost:
    """Shared EWMA smoothing of measured redistribution costs.

    ``self.redistribution_cost`` holds the smoothed estimate; the first
    observation seeds it directly so an arbitrary constructor default
    never dilutes real measurements.
    """

    def _init_ewma(self, alpha: float) -> None:
        require(0.0 < alpha <= 1.0, f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._cost_seeded = False

    def _blend_cost(self, cost: float) -> float:
        if not self._cost_seeded:
            self._cost_seeded = True
            return float(cost)
        return self.alpha * float(cost) + (1.0 - self.alpha) * self.redistribution_cost

    def _ewma_state(self) -> dict:
        return {"alpha": self.alpha, "cost_seeded": self._cost_seeded}

    def _load_ewma(self, state: dict) -> None:
        self.alpha = float(state["alpha"])
        self._cost_seeded = bool(state["cost_seeded"])


@register_policy
class OnlineTunedSAR(_EwmaCost, DynamicSARPolicy):
    """Stop-At-Rise with an online-tuned ``T_redistribution``.

    Identical trigger condition to :class:`DynamicSARPolicy`, but the
    threshold is the EWMA of *every* measured redistribution cost rather
    than the last sample alone — one anomalously cheap (or expensive)
    redistribution no longer swings the trigger for the rest of the run
    (Miller et al. 2020 tune cadence against a smoothed cost model the
    same way).
    """

    name = "sar-ewma"
    PARAMS = {
        "alpha": Param(float, 0.3, help="EWMA weight of the newest cost sample"),
    }

    def __init__(self, alpha: float = 0.3, initial_cost: float = 0.0) -> None:
        super().__init__(initial_cost)
        self._init_ewma(alpha)

    def record_redistribution(self, iteration: int, cost: float) -> None:
        super().record_redistribution(iteration, self._blend_cost(cost))

    def state_dict(self) -> dict:
        return {**super().state_dict(), **self._ewma_state()}

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._load_ewma(state)

    def __repr__(self) -> str:
        return (
            f"OnlineTunedSAR(alpha={self.alpha:g}, "
            f"T_redistribution={self.redistribution_cost:g})"
        )


@register_policy
class CostModelPredictivePolicy(_EwmaCost, DynamicSARPolicy):
    """Fire when the machine model projects a net ``vm.elapsed()`` win.

    Projection over a lookahead of ``horizon`` iterations: without a
    redistribution every future iteration keeps paying the observed
    rise ``t1 - t0`` over the balanced (window-minimum) time, so the
    imbalance tax is ``rise * horizon``; a redistribution costs the
    EWMA-smoothed measured cost, floored by the §4 model's all-to-all
    start-up lower bound ``2 τ (p - 1)`` (so a fluke near-zero measured
    cost cannot make redistribution look free).  Fire when the tax
    exceeds the cost.  The model/rank count arrive through
    :meth:`bind` and are transient — every decision record carries the
    evaluated threshold, so records replay without the machine.
    """

    name = "costmodel"
    PARAMS = {
        "horizon": Param(int, 50, help="lookahead iterations the projection covers"),
        "alpha": Param(float, 0.5, help="EWMA weight of the newest cost sample"),
    }

    def __init__(self, horizon: int = 50, alpha: float = 0.5, initial_cost: float = 0.0) -> None:
        require(horizon >= 1, f"horizon must be >= 1, got {horizon}")
        super().__init__(initial_cost)
        self.horizon = int(horizon)
        self._init_ewma(alpha)
        self._model = None
        self._p = 0

    def bind(self, vm) -> None:
        self._model = vm.model
        self._p = vm.p

    def _model_floor(self) -> float:
        if self._model is None or self._p < 2:
            return 0.0
        return 2.0 * self._model.tau * (self._p - 1)

    def should_redistribute(self, iteration: int) -> bool:
        fired = False
        rise: float | None = None
        saved: float | None = None
        floor = self._model_floor()
        threshold = max(self.redistribution_cost, floor)
        if self._i0 is None or self._i1 is None:
            reason = "no iteration observed since the last redistribution"
        elif self._i1 <= self._i0:
            reason = "window too short: need an iteration after i0"
        else:
            rise = self._t1 - self._t0
            if rise <= 0.0:
                reason = "iteration time has not risen"
            else:
                saved = rise * self.horizon
                fired = saved >= threshold
                reason = None
        self._emit(
            {
                "policy": self.name,
                "iteration": iteration,
                "i0": self._i0,
                "i1": self._i1,
                "t0": self._t0,
                "t1": self._t1,
                "rise": rise,
                "horizon": self.horizon,
                "projected_saving": saved,
                "threshold": threshold,
                "model_floor": floor,
                "fired": fired,
                "reason": reason,
            }
        )
        return fired

    def record_redistribution(self, iteration: int, cost: float) -> None:
        super().record_redistribution(iteration, self._blend_cost(cost))

    def state_dict(self) -> dict:
        return {
            **super().state_dict(),
            **self._ewma_state(),
            "horizon": self.horizon,
        }

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._load_ewma(state)
        self.horizon = int(state["horizon"])

    def __repr__(self) -> str:
        return (
            f"CostModelPredictivePolicy(horizon={self.horizon}, "
            f"alpha={self.alpha:g}, T_redistribution={self.redistribution_cost:g})"
        )


@register_policy
class ImbalanceThresholdPolicy(RedistributionPolicy):
    """Fire when max/mean particle-count imbalance crosses a threshold.

    Hysteresis prevents oscillation: after firing, the policy disarms
    until the imbalance either recovers below ``threshold -
    hysteresis`` (the rebalance worked) or escalates ``hysteresis``
    beyond the level that triggered the last fire (the rebalance did
    not help enough, so waiting longer would only lose time).
    """

    name = "imbalance"
    PARAMS = {
        "threshold": Param(float, 1.5, help="max/mean imbalance that triggers"),
        "hysteresis": Param(float, 0.25, help="re-arm band below/above the trigger"),
    }
    needs_load = True

    def __init__(self, threshold: float = 1.5, hysteresis: float = 0.25) -> None:
        require(threshold > 1.0, f"threshold must be > 1 (max/mean), got {threshold}")
        require(hysteresis >= 0.0, f"hysteresis must be >= 0, got {hysteresis}")
        self.threshold = float(threshold)
        self.hysteresis = float(hysteresis)
        self._imbalance: float | None = None
        self._armed = True
        self._fired_at: float | None = None

    def record_load(self, iteration: int, counts: list[int]) -> None:
        total = sum(counts)
        if total <= 0 or not counts:
            imbalance = 1.0
        else:
            imbalance = max(counts) * len(counts) / total
        self._imbalance = float(imbalance)
        if not self._armed:
            recovered = imbalance <= self.threshold - self.hysteresis
            escalated = (
                self._fired_at is not None
                and imbalance >= self._fired_at + self.hysteresis
            )
            if recovered or escalated:
                self._armed = True

    def should_redistribute(self, iteration: int) -> bool:
        fired = False
        if self._imbalance is None:
            reason = "no load observation yet"
        elif not self._armed:
            reason = "hysteresis: disarmed until the imbalance recovers or escalates"
        elif self._imbalance < self.threshold:
            reason = "imbalance below threshold"
        else:
            fired = True
            reason = None
        self._emit(
            {
                "policy": self.name,
                "iteration": iteration,
                "imbalance": self._imbalance,
                "threshold": self.threshold,
                "hysteresis": self.hysteresis,
                "armed": self._armed,
                "fired": fired,
                "reason": reason,
            }
        )
        return fired

    @classmethod
    def replay(cls, record: dict) -> bool:
        if record.get("imbalance") is None or not record.get("armed"):
            return False
        return record["imbalance"] >= record["threshold"]

    def record_redistribution(self, iteration: int, cost: float) -> None:
        self._fired_at = self._imbalance
        self._armed = False

    def state_dict(self) -> dict:
        return {
            "type": type(self).__name__,
            "threshold": self.threshold,
            "hysteresis": self.hysteresis,
            "imbalance": self._imbalance,
            "armed": self._armed,
            "fired_at": self._fired_at,
        }

    def load_state(self, state: dict) -> None:
        self.threshold = float(state["threshold"])
        self.hysteresis = float(state["hysteresis"])
        self._imbalance = None if state["imbalance"] is None else float(state["imbalance"])
        self._armed = bool(state["armed"])
        self._fired_at = None if state["fired_at"] is None else float(state["fired_at"])

    def __repr__(self) -> str:
        return (
            f"ImbalanceThresholdPolicy(threshold={self.threshold:g}, "
            f"hysteresis={self.hysteresis:g})"
        )


def _optimal_period(cost: float, slope: float, horizon: int) -> tuple[float, str]:
    """Period ``n`` minimizing the projected per-iteration overhead.

    With a linear degradation rate ``slope`` and redistribution cost
    ``cost``, redistributing every ``n`` iterations costs on average
    ``f(n) = cost/n + slope * (n - 1) / 2`` extra seconds per iteration,
    least at ``n* = sqrt(2 cost / slope)``.  Returns ``(n*, optimizer)``
    with ``n*`` clamped to ``[1, horizon]``; the closed form is the only
    optimizer, so the logged ``n_star`` is the same on every host.
    """
    if cost <= 0.0:
        return 1.0, "closed-form"
    n_star = (2.0 * cost / slope) ** 0.5
    return min(max(n_star, 1.0), float(horizon)), "closed-form"


@register_policy
class OptimalPlannerPolicy(_EwmaCost, RedistributionPolicy):
    """Plan the next redistribution iteration by optimization.

    Fits a linear degradation rate ``a`` to the iteration times observed
    since the last redistribution (least squares over a sliding window),
    smooths the redistribution cost ``C`` with an EWMA, and solves for
    the period ``n*`` minimizing the projected per-iteration overhead
    ``C/n + a (n - 1) / 2`` — the continuous optimum of the classic
    rebalance-cadence trade-off, ``sqrt(2C/a)`` clamped to
    ``[1, horizon]``.  Fires once ``n*`` iterations have elapsed since the
    last redistribution.  The plan is refit at every evaluation from
    serialized history, so restored runs re-derive identical decisions.
    """

    name = "planner"
    PARAMS = {
        "horizon": Param(int, 200, help="longest period the planner will schedule"),
        "window": Param(int, 64, help="iteration-time samples kept for the fit"),
        "alpha": Param(float, 0.5, help="EWMA weight of the newest cost sample"),
    }

    def __init__(self, horizon: int = 200, window: int = 64, alpha: float = 0.5,
                 initial_cost: float = 0.0) -> None:
        require(horizon >= 1, f"horizon must be >= 1, got {horizon}")
        require(window >= 2, f"window must be >= 2, got {window}")
        require(initial_cost >= 0.0, f"initial_cost must be >= 0, got {initial_cost}")
        self.horizon = int(horizon)
        self.window = int(window)
        self.redistribution_cost = float(initial_cost)
        self._init_ewma(alpha)
        self._hist_i: list[int] = []
        self._hist_t: list[float] = []
        self._epoch_start: int | None = None

    def record_iteration(self, iteration: int, t_iter: float) -> None:
        if self._epoch_start is None:
            self._epoch_start = iteration
        self._hist_i.append(int(iteration))
        self._hist_t.append(float(t_iter))
        if len(self._hist_i) > self.window:
            del self._hist_i[0]
            del self._hist_t[0]

    def _fit_slope(self) -> float:
        """Least-squares degradation rate over the history window."""
        n = len(self._hist_i)
        x0 = self._hist_i[0]
        xs = [float(i - x0) for i in self._hist_i]
        mean_x = sum(xs) / n
        mean_t = sum(self._hist_t) / n
        var = sum((x - mean_x) ** 2 for x in xs)
        if var == 0.0:
            return 0.0
        cov = sum((x - mean_x) * (t - mean_t) for x, t in zip(xs, self._hist_t))
        return cov / var

    def should_redistribute(self, iteration: int) -> bool:
        fired = False
        slope: float | None = None
        n_star: float | None = None
        elapsed: int | None = None
        optimizer: str | None = None
        if len(self._hist_i) < 2:
            reason = "need >= 2 observations to fit the degradation rate"
        else:
            elapsed = self._hist_i[-1] - self._epoch_start + 1
            slope = self._fit_slope()
            if slope <= 0.0:
                reason = "no degradation trend"
            else:
                n_star, optimizer = _optimal_period(
                    self.redistribution_cost, slope, self.horizon
                )
                fired = elapsed >= n_star
                reason = None
        self._emit(
            {
                "policy": self.name,
                "iteration": iteration,
                "n_obs": len(self._hist_i),
                "slope": slope,
                "cost": self.redistribution_cost,
                "n_star": n_star,
                "elapsed": elapsed,
                "horizon": self.horizon,
                "optimizer": optimizer,
                "fired": fired,
                "reason": reason,
            }
        )
        return fired

    @classmethod
    def replay(cls, record: dict) -> bool:
        if record.get("reason") is not None:
            return False
        return record["elapsed"] >= record["n_star"]

    def record_redistribution(self, iteration: int, cost: float) -> None:
        self.redistribution_cost = self._blend_cost(cost)
        self._hist_i.clear()
        self._hist_t.clear()
        self._epoch_start = None

    def state_dict(self) -> dict:
        return {
            "type": type(self).__name__,
            "horizon": self.horizon,
            "window": self.window,
            "redistribution_cost": self.redistribution_cost,
            "hist_i": list(self._hist_i),
            "hist_t": list(self._hist_t),
            "epoch_start": self._epoch_start,
            **self._ewma_state(),
        }

    def load_state(self, state: dict) -> None:
        self.horizon = int(state["horizon"])
        self.window = int(state["window"])
        self.redistribution_cost = float(state["redistribution_cost"])
        self._hist_i = [int(i) for i in state["hist_i"]]
        self._hist_t = [float(t) for t in state["hist_t"]]
        self._epoch_start = (
            None if state["epoch_start"] is None else int(state["epoch_start"])
        )
        self._load_ewma(state)

    def __repr__(self) -> str:
        return (
            f"OptimalPlannerPolicy(horizon={self.horizon}, window={self.window}, "
            f"alpha={self.alpha:g}, T_redistribution={self.redistribution_cost:g})"
        )
