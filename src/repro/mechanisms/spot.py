"""Spot-auction transit: uniform-price per-window clearing.

Models the *Spot Transit* result family (PAPERS.md): instead of posting
a small tier book, the ISP runs a uniform-price auction per delivery
window.  Demand bids are the calibrated CED curves — at clearing price
``p`` flow ``i`` takes ``(v_i/p)^alpha`` — so clearing supply ``S``
means solving ``sum_i (v_i/p)^alpha = S``, which has the closed form

.. math::  p_c(S) = (\\sum_i v_i^\\alpha / S)^{1/\\alpha}

(:func:`clearing_price` — strictly decreasing in supply).  A
profit-maximizing auctioneer offers the supply whose clearing price is
the bundle's Eq. 5 uniform optimum, so each auction lot prices at
``demand_model.uniform_price`` of its members — which is also what makes
the mechanism exact for non-CED demand families.

Lots are contiguous runs of the cost-sorted flow order (cheap routes
clear cheap, long hauls clear dear), one lot per auction window.  With
many windows the lot prices approach per-flow optimal pricing, which is
why spot beats a 3-tier posted book on elastic (cost-dominated) demand
— but by Jensen's inequality spot revenue can never exceed the per-flow
posted optimum (``p^{1-alpha}`` is convex), the invariant the tests pin.

Everything is vectorized over the FlowTable columns: one argsort, one
``array_split``, closed-form prices per lot.
"""

from __future__ import annotations

import numpy as np

from repro.core.bundling import stable_argsort
from repro.core.market import Market
from repro.errors import MechanismError
from repro.mechanisms.base import (
    ASSIGN_SPOT,
    Mechanism,
    MechanismDesign,
    score_partition,
)


def _clearing_valuations(valuations, alpha: float, caller: str) -> np.ndarray:
    v = np.asarray(valuations, dtype=float)
    if v.size == 0 or np.any(v <= 0) or not np.all(np.isfinite(v)):
        raise MechanismError(f"{caller} requires finite positive valuations")
    if alpha <= 1.0:
        raise MechanismError(f"clearing requires alpha > 1, got {alpha}")
    return v


def clearing_price(valuations, supply: float, alpha: float) -> float:
    """Uniform price at which CED bids absorb exactly ``supply`` Mbps.

    Solves ``sum_i (v_i/p)^alpha = S`` for ``p``; strictly decreasing in
    ``S``.  Valuations are normalized before exponentiation so large
    ``alpha`` does not overflow (same trick as the CED closed forms).
    """
    v = _clearing_valuations(valuations, alpha, "clearing_price")
    if not np.isfinite(supply) or supply <= 0:
        raise MechanismError(f"supply must be positive, got {supply}")
    vmax = float(v.max())
    w_sum = float(np.sum((v / vmax) ** alpha))
    return vmax * (w_sum / float(supply)) ** (1.0 / alpha)


def cleared_supply(valuations, price: float, alpha: float) -> float:
    """Total CED demand (Mbps) absorbed at a uniform price — the inverse
    of :func:`clearing_price`."""
    v = _clearing_valuations(valuations, alpha, "cleared_supply")
    if not np.isfinite(price) or price <= 0:
        raise MechanismError(f"price must be positive, got {price}")
    return float(np.sum((v / float(price)) ** alpha))


class SpotAuction(Mechanism):
    """Uniform-price per-window auction over cost-ordered lots.

    Args:
        windows: Auction windows per billing period; each window clears
            one contiguous lot of the cost-sorted flows.  More windows
            means finer price discrimination (→ per-flow optimal as
            ``windows -> n_flows``).
    """

    name = "spot-auction"
    reclears = True

    def __init__(self, windows: int = 24) -> None:
        if int(windows) < 1:
            raise MechanismError(f"windows must be >= 1, got {windows}")
        self.windows = int(windows)

    def lots(self, costs: np.ndarray) -> "list[np.ndarray]":
        """Cost-ordered contiguous auction lots (index arrays)."""
        order = stable_argsort(np.asarray(costs, dtype=float))
        k = min(self.windows, order.size)
        return list(np.array_split(order, k))

    def design_on(self, market: Market, provider_asn: int = 64500) -> MechanismDesign:
        bundles = self.lots(market.costs)
        prices = market.demand_model.bundle_prices(
            market.valuations, market.costs, bundles
        )
        assignment = np.full(market.n_flows, ASSIGN_SPOT, dtype=np.int8)
        return score_partition(
            market,
            bundles,
            prices,
            mechanism=self.name,
            posted_tiers=0,
            provider_asn=provider_asn,
            assignment=assignment,
        )

    def describe(self) -> str:
        return f"{self.name}(W={self.windows})"
