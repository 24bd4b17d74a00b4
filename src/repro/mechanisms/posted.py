"""Posted tiered prices — the paper's mechanism, behind the new seam.

:class:`PostedTiers` runs the same steps as :meth:`Market.tiered_outcome`
and :meth:`TierDesign.from_outcome`: the partition comes from one of the
six bundling strategies, each tier is priced at its profit-maximizing
uniform price, and the partition is scored once, by
:func:`~repro.mechanisms.base.score_partition`.  A test asserts designs,
capture tables, and snapshot digests are byte-identical to the legacy
direct path — this class adds provenance, not behavior.
"""

from __future__ import annotations

from repro.core.bundling import BundlingStrategy, ProfitWeightedBundling
from repro.core.market import Market
from repro.errors import MechanismError
from repro.mechanisms.base import Mechanism, MechanismDesign, score_partition


class PostedTiers(Mechanism):
    """The default mechanism: posted tiers from a bundling strategy.

    Args:
        strategy: Bundling strategy (default: profit-weighted, the
            paper's recommendation).
        n_tiers: Tier budget.
    """

    name = "posted-tiers"
    reclears = False

    def __init__(
        self, strategy: "BundlingStrategy | None" = None, n_tiers: int = 3
    ) -> None:
        if n_tiers < 1:
            raise MechanismError(f"n_tiers must be >= 1, got {n_tiers}")
        self.strategy = strategy or ProfitWeightedBundling()
        self.n_tiers = int(n_tiers)

    def design_on(self, market: Market, provider_asn: int = 64500) -> MechanismDesign:
        bundles = self.strategy.bundle(market.bundling_inputs(), self.n_tiers)
        prices = market.demand_model.bundle_prices(
            market.valuations, market.costs, bundles
        )
        return score_partition(
            market,
            bundles,
            prices,
            mechanism=self.name,
            posted_tiers=len(bundles),
            provider_asn=provider_asn,
        )

    def describe(self) -> str:
        return f"{self.name}({self.strategy.name}, B={self.n_tiers})"
