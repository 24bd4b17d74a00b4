"""The pricing-mechanism seam: one protocol, many market designs.

The paper prices transit one way — posted tiered prices derived from a
bundling strategy — and that assumption used to be hardwired through
every layer (core design, streaming repricer, serve snapshots, ecosystem
pricing).  :class:`Mechanism` extracts the seam: a mechanism turns a
calibrated :class:`~repro.core.market.Market` into a
:class:`MechanismDesign` — per-flow prices, a frozen
:class:`~repro.accounting.tier_designer.TierDesign`, and the paper's
profit-capture score — and every downstream consumer (repricer,
snapshot, quote engine, ecosystem) works off that design without caring
how the prices were formed.

The crucial representational trick: *every* mechanism emits its result
as a tier design.  A spot auction's per-window lots are tiers whose
rates happen to be clearing prices; a paid-peering split is a two-tier
design whose first tier is the negotiated peering rate; a hybrid is a
posted book followed by spot lots.  Because the wire format downstream
(:class:`~repro.serve.snapshot.PricingSnapshot`, the fleet shared-memory
segments) already speaks tiers, no new formats are needed — a snapshot
built from a spot design quotes spot flows exactly like posted ones.

Mechanism provenance rides in the snapshot's ``config_digest``: the
default posted-tiers mechanism leaves digests byte-identical to the
pre-mechanism code (warm caches survive), while any other mechanism
appends a readable ``|mechanism=<name>`` tag (see
:func:`tag_config_digest`).
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.accounting.tier_designer import TierDesign
from repro.core.cost import CostModel
from repro.core.demand import DemandModel
from repro.core.flow import FlowSet
from repro.core.market import Market, TierSummary
from repro.errors import MechanismError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve -> stream)
    from repro.serve.snapshot import PricingSnapshot

#: Registered mechanism names, in presentation order.  Kept in sync with
#: :data:`repro.config.MECHANISMS` (a literal copy there avoids importing
#: this package from the config layer); a test asserts they match.
MECHANISM_NAMES = ("posted-tiers", "spot-auction", "paid-peering", "hybrid")

#: The default mechanism — the paper's posted tiered prices.  Designs,
#: captures, and digests under this name are byte-identical to the
#: pre-mechanism code paths.
DEFAULT_MECHANISM = "posted-tiers"

#: Per-flow assignment codes carried by :attr:`MechanismDesign.assignment`.
ASSIGN_POSTED = 0
ASSIGN_SPOT = 1
ASSIGN_PEERED = 2


def tag_config_digest(config_digest: str, mechanism_name: str) -> str:
    """Stamp mechanism provenance into a snapshot/stream config digest.

    The default posted-tiers mechanism returns the digest unchanged, so
    every pre-mechanism digest (and the warm caches keyed on them) stays
    valid.  Any other mechanism appends a readable ``|mechanism=<name>``
    suffix; downstream consumers treat the digest as an opaque string, so
    the tag changes identity without changing any wire format.
    """
    if mechanism_name == DEFAULT_MECHANISM:
        return str(config_digest)
    return f"{config_digest}|mechanism={mechanism_name}"


@dataclasses.dataclass(frozen=True)
class MechanismDesign:
    """What a mechanism produced on one calibrated market.

    Attributes:
        mechanism: Name of the mechanism that produced it.
        prices: Per-flow unit prices ($/Mbps/month; equal within a tier).
        profit: Absolute ISP profit at those prices ($/month).
        profit_capture: Fraction of the blended-to-max profit gap closed.
        consumer_surplus: Aggregate customer surplus at those prices.
        tiers: Per-tier summaries sorted by price (posted + spot alike).
        tier_design: The frozen, operable design (rates + destination
            map) every downstream consumer speaks — ``None`` when the
            flows carry no destination addresses (pure counterfactual
            datasets), in which case the design can be scored but not
            published or snapshotted.
        posted_tiers: Leading tiers (ids ``1..posted_tiers``) that are
            posted contracts governed by the drift gate; the rest are
            spot lots re-cleared every window.
        assignment: Optional per-flow mechanism assignment
            (:data:`ASSIGN_POSTED` / :data:`ASSIGN_SPOT` /
            :data:`ASSIGN_PEERED`), ``None`` when every flow trades the
            same way.
        gamma / blended_rate / reference_distance_miles / provider_asn:
            Calibration frame needed to publish the design (mirrors
            :class:`~repro.stream.repricer.DesignPublication`).
    """

    mechanism: str
    prices: np.ndarray
    profit: float
    profit_capture: float
    consumer_surplus: float
    tiers: "list[TierSummary]"
    tier_design: "Optional[TierDesign]"
    posted_tiers: int
    gamma: float
    blended_rate: float
    reference_distance_miles: float
    provider_asn: int
    assignment: "Optional[np.ndarray]" = None

    @property
    def n_tiers(self) -> int:
        return len(self.tiers)

    @property
    def tier_prices(self) -> "tuple[float, ...]":
        """Per-tier rates sorted ascending (works without destinations)."""
        return tuple(t.price for t in self.tiers)

    @property
    def spot_tiers(self) -> int:
        """Trailing tiers that re-clear every window (spot lots)."""
        return self.n_tiers - self.posted_tiers

    @property
    def welfare(self) -> float:
        """Social welfare: ISP profit plus consumer surplus."""
        return self.profit + self.consumer_surplus


class Mechanism(abc.ABC):
    """A market design: turns a calibrated market into priced tiers.

    Subclasses set :attr:`name` (their registry key) and implement
    :meth:`design_on`.  :attr:`reclears` marks mechanisms whose prices
    are re-cleared every stream window (spot and hybrid): the repricer
    publishes their designs every priced window, while the drift gate
    keeps governing only the posted component.
    """

    #: Registry name (one of :data:`MECHANISM_NAMES`).
    name: str = ""
    #: True when the mechanism re-clears prices every stream window.
    reclears: bool = False

    @abc.abstractmethod
    def design_on(self, market: Market, provider_asn: int = 64500) -> MechanismDesign:
        """Design prices on an already-calibrated market."""

    def design(
        self,
        flows: FlowSet,
        demand_model: DemandModel,
        cost_model: CostModel,
        blended_rate: float = 20.0,
        provider_asn: int = 64500,
    ) -> MechanismDesign:
        """Calibrate a market on columnar flows, then design prices.

        This is the protocol entry point named in the seam:
        ``design(FlowTable, DemandModel, CostModel) -> MechanismDesign``.
        """
        market = Market(flows, demand_model, cost_model, blended_rate)
        return self.design_on(market, provider_asn=provider_asn)

    def capture(
        self,
        flows: FlowSet,
        demand_model: DemandModel,
        cost_model: CostModel,
        blended_rate: float = 20.0,
    ) -> float:
        """Profit capture of this mechanism on columnar flows."""
        return self.design(flows, demand_model, cost_model, blended_rate).profit_capture

    def reclear_on(
        self,
        market: Market,
        prior_design: TierDesign,
        posted_tiers: int,
        provider_asn: int = 64500,
    ) -> MechanismDesign:
        """Re-clear the spot component, holding the posted book fixed.

        Called by the repricer on windows where the drift gate *holds*
        but the mechanism :attr:`reclears`: spot lots re-price at the
        window's clearing prices while posted contracts keep their
        rates.  The default is a full redesign, correct for mechanisms
        with no posted component (pure spot); :class:`~repro.mechanisms.
        hybrid.Hybrid` overrides it to pin the held posted book.
        """
        del prior_design, posted_tiers  # no posted component by default
        return self.design_on(market, provider_asn=provider_asn)

    def snapshot(
        self,
        design: MechanismDesign,
        *,
        version: int,
        config_digest: str,
        published_at_ms: int = 0,
    ) -> "PricingSnapshot":
        """Freeze a design into a quote-ready, mechanism-tagged snapshot.

        Same wire format as every posted-tiers snapshot — the mechanism
        tag lives inside the (opaque) config digest — so ``QuoteEngine``
        and the fleet shared-memory path serve spot and peering designs
        unchanged.
        """
        from repro.serve.snapshot import PricingSnapshot

        if design.tier_design is None:
            raise MechanismError(
                "cannot snapshot a design without destination addresses"
            )
        return PricingSnapshot.build(
            design.tier_design,
            version=version,
            config_digest=tag_config_digest(config_digest, self.name),
            blended_rate=design.blended_rate,
            gamma=design.gamma,
            reference_distance_miles=design.reference_distance_miles,
            published_at_ms=published_at_ms,
        )

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return f"{type(self).__name__}({self.describe()!r})"


def score_partition(
    market: Market,
    bundles: list,
    prices: np.ndarray,
    *,
    mechanism: str,
    posted_tiers: int,
    provider_asn: int = 64500,
    assignment: "Optional[np.ndarray]" = None,
) -> MechanismDesign:
    """Score an arbitrary partition + price vector into a MechanismDesign.

    The mechanism-layer analogue of :meth:`Market.tiered_outcome`: the
    same :meth:`Market.score` (so posted mechanisms reproduce legacy
    numbers bit-for-bit), but over any partition — spot lots, peering
    splits, hybrid books.
    """
    if not bundles:
        raise MechanismError(f"{mechanism}: empty partition")
    profit, surplus, tiers = market.score(bundles, prices)
    tier_design = None
    if market.flows.dsts is not None:
        tier_design = TierDesign.from_bundles(
            market, bundles, prices, provider_asn=provider_asn
        )
    return MechanismDesign(
        mechanism=mechanism,
        prices=prices,
        profit=profit,
        profit_capture=market.profit_capture(profit),
        consumer_surplus=float(surplus),
        tiers=tiers,
        tier_design=tier_design,
        posted_tiers=int(posted_tiers),
        gamma=float(market.gamma),
        blended_rate=float(market.blended_rate),
        reference_distance_miles=float(market.flows.distances.max()),
        provider_asn=int(provider_asn),
        assignment=assignment,
    )


def mechanism_by_name(
    name: str,
    *,
    strategy=None,
    n_tiers: int = 3,
    spot_windows: int = 24,
    elasticity_split: float = 0.5,
    exchange_radius_miles: "Optional[float]" = None,
    bargaining: float = 0.5,
) -> Mechanism:
    """Build a registered mechanism from its name.

    Each mechanism consumes the subset of the keyword knobs it
    understands (the rest are ignored), so one call site — the CLI, the
    config layer, ``design_for_as`` — can hold a single knob set.

    Raises:
        MechanismError: For an unregistered name.
    """
    from repro.mechanisms.hybrid import Hybrid
    from repro.mechanisms.peering import PaidPeering
    from repro.mechanisms.posted import PostedTiers
    from repro.mechanisms.spot import SpotAuction

    if name == "posted-tiers":
        return PostedTiers(strategy=strategy, n_tiers=n_tiers)
    if name == "spot-auction":
        return SpotAuction(windows=spot_windows)
    if name == "paid-peering":
        return PaidPeering(
            exchange_radius_miles=exchange_radius_miles, bargaining=bargaining
        )
    if name == "hybrid":
        return Hybrid(
            strategy=strategy,
            n_tiers=n_tiers,
            spot_windows=spot_windows,
            elasticity_split=elasticity_split,
        )
    raise MechanismError(
        f"unknown mechanism {name!r}; expected one of {MECHANISM_NAMES}"
    )
