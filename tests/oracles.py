"""Per-flow and unoptimised reference implementations (test oracles).

Each function here is the original, straightforward form of an
algorithm that ``src/`` now runs vectorized or with redundant work cut.
The equivalence tests compare the two and require identical results.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.errors import DataError
from repro.synth.distributions import weighted_cv, weighted_mean


def token_bucket_reference(weights: np.ndarray, n_bundles: int) -> list:
    """The original per-flow budget scan of the token-bucket grouping."""
    w = np.asarray(weights, dtype=float)
    order = np.argsort(-w, kind="stable")
    budgets = np.full(n_bundles, w.sum() / n_bundles)
    members: list = [[] for _ in range(n_bundles)]
    for i in order:
        j = first_open_bundle(members, budgets)
        members[j].append(int(i))
        budgets[j] -= w[i]
        if budgets[j] < 0 and j + 1 < n_bundles:
            budgets[j + 1] += budgets[j]
    return [np.array(m) for m in members if m]


def first_open_bundle(members: list, budgets: np.ndarray) -> int:
    """First bundle that is empty or still has positive budget."""
    for j, bundle_members in enumerate(members):
        if not bundle_members or budgets[j] > 0:
            return j
    # Budgets sum to zero after exhaustion only when every bundle is sealed;
    # remaining flows join the last bundle (cannot happen before all budgets
    # are spent, but guard for float round-off).
    return len(members) - 1


def contiguous_dp_reference(objective, n: int, max_bundles: int) -> list:
    """The original scalar loop of the contiguous-partition DP."""
    n_bundles = min(max_bundles, n)
    neg_inf = -np.inf
    dp = np.full((n_bundles + 1, n + 1), neg_inf)
    dp[0][0] = 0.0
    choice = np.zeros((n_bundles + 1, n + 1), dtype=int)
    for b in range(1, n_bundles + 1):
        for i in range(b, n + 1):
            best_val = neg_inf
            best_j = b - 1
            for j in range(b - 1, i):
                if dp[b - 1][j] == neg_inf:
                    continue
                val = dp[b - 1][j] + objective.slice_score(j, i)
                if val > best_val:
                    best_val = val
                    best_j = j
            dp[b][i] = best_val
            choice[b][i] = best_j
    best_b = int(np.argmax(dp[1:, n])) + 1
    cuts = [n]
    i = n
    for b in range(best_b, 0, -1):
        i = int(choice[b][i])
        cuts.append(i)
    cuts.reverse()
    if cuts[0] != 0:
        cuts.insert(0, 0)
    return cuts


def hybrid_spot_flows_reference(ratio: np.ndarray, n_spot: int) -> np.ndarray:
    """The ``n_spot`` flows of highest ratio, ties to the highest index.

    The original full stable sort that ``Hybrid.spot_flows`` replaced
    with a partition at the cut.
    """
    order = np.argsort(ratio, kind="stable")
    return np.sort(order[ratio.size - n_spot :])


def calibrate_positive_reference(
    values: np.ndarray,
    mean_target: float,
    cv_target: float,
    weights=None,
    lam_bracket: "tuple[float, float]" = (1e-3, 20.0),
) -> np.ndarray:
    """``calibrate_positive`` without its per-call CV memo.

    Recomputes the transform and its CV at every probe, including the
    probes Brent's method and the bracket checks repeat.  Inputs are
    assumed valid and non-constant (the tests only pass such samples).
    """
    x = np.asarray(values, dtype=float)
    shifted = np.log(x) - np.log(x).max()
    lam_cap = 700.0 / float(-shifted.min())

    def cv_of(lam: float) -> float:
        return weighted_cv(np.exp(lam * shifted), weights)

    lo = min(lam_bracket[0], lam_cap / 2.0)
    hi = min(lam_bracket[1], lam_cap)
    for _ in range(60):
        if cv_of(lo) < cv_target:
            break
        lo /= 2.0
    while hi < lam_cap and cv_of(hi) <= cv_target:
        hi = min(lam_cap, hi * 2.0)
    if not cv_of(lo) < cv_target < cv_of(hi):
        raise DataError("CV target unreachable")
    lam = optimize.brentq(lambda L: cv_of(L) - cv_target, lo, hi, xtol=1e-12)
    calibrated = np.exp(lam * shifted)
    return calibrated * (mean_target / weighted_mean(calibrated, weights))
