"""Tests for the synthetic-data substrate (datasets and trace pipeline)."""

import hashlib

import numpy as np
import pytest

from repro.errors import DataError
from repro.synth.datasets import (
    DATASET_NAMES,
    DATASETS,
    dataset_spec,
    load_dataset,
    table1_row,
)
from repro.synth import distributions
from repro.synth.distributions import (
    calibrate_positive,
    lognormal_sigma_for_cv,
    sample_lognormal,
    weighted_cv,
    weighted_mean,
)
from repro.synth.trace import generate_network_trace
from tests import oracles


class TestDistributions:
    def test_sigma_for_cv_inverts(self, rng):
        for cv in (0.5, 1.0, 2.0):
            sigma = lognormal_sigma_for_cv(cv)
            sample = rng.lognormal(0.0, sigma, 200_000)
            assert np.std(sample) / np.mean(sample) == pytest.approx(cv, rel=0.1)
        # Heavy tails (Internet2's CV=4.5) converge slowly; only check the
        # order of magnitude on a finite sample.
        sigma = lognormal_sigma_for_cv(4.5)
        sample = rng.lognormal(0.0, sigma, 400_000)
        assert 2.5 < np.std(sample) / np.mean(sample) < 7.0

    def test_sample_lognormal_mean(self, rng):
        sample = sample_lognormal(rng, 200_000, mean=7.0, cv=0.8)
        assert sample.mean() == pytest.approx(7.0, rel=0.05)

    def test_sample_lognormal_validation(self, rng):
        with pytest.raises(DataError):
            sample_lognormal(rng, 0, mean=1.0, cv=1.0)
        with pytest.raises(DataError):
            sample_lognormal(rng, 5, mean=-1.0, cv=1.0)
        with pytest.raises(DataError):
            lognormal_sigma_for_cv(0.0)

    def test_weighted_mean_and_cv(self):
        values = np.array([1.0, 3.0])
        weights = np.array([3.0, 1.0])
        assert weighted_mean(values, weights) == pytest.approx(1.5)
        assert weighted_mean(values) == pytest.approx(2.0)
        assert weighted_cv(values) == pytest.approx(0.5)


class TestCalibrationSolve:
    @staticmethod
    def _counting_cv(calls, real=weighted_cv):
        def counting(values, weights=None):
            calls.append(hashlib.sha256(values.tobytes()).hexdigest())
            return real(values, weights)

        return counting

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_one_cv_per_lambda_and_same_bytes(self, seed, weighted, monkeypatch):
        rng = np.random.default_rng(seed)
        x = rng.lognormal(0.0, 1.0, 5_000)
        w = rng.lognormal(0.0, 1.0, 5_000) if weighted else None
        solved, reference = [], []
        monkeypatch.setattr(oracles, "weighted_cv", self._counting_cv(reference))
        want = oracles.calibrate_positive_reference(x, 3.0, 1.7, weights=w)
        monkeypatch.setattr(distributions, "weighted_cv", self._counting_cv(solved))
        got = calibrate_positive(x, 3.0, 1.7, weights=w)
        assert got.tobytes() == want.tobytes()
        # Every transform the solve evaluates is a distinct lambda's, and
        # the unmemoized solve repeats some of them.
        assert len(solved) == len(set(solved)) == len(set(reference))
        assert len(reference) > len(solved)


class TestDatasetSpecs:
    def test_three_datasets(self):
        assert set(DATASET_NAMES) == {"eu_isp", "cdn", "internet2"}
        assert set(DATASETS) == set(DATASET_NAMES)

    def test_spec_lookup(self):
        spec = dataset_spec("eu_isp")
        assert spec.w_avg_distance_miles == 54.0
        assert spec.aggregate_gbps == 37.0

    def test_unknown_dataset(self):
        with pytest.raises(DataError, match="unknown dataset"):
            dataset_spec("att")

    def test_paper_table1_values_encoded(self):
        cdn = dataset_spec("cdn")
        assert (cdn.w_avg_distance_miles, cdn.distance_cv) == (1988.0, 0.59)
        assert (cdn.aggregate_gbps, cdn.demand_cv) == (96.0, 2.28)
        i2 = dataset_spec("internet2")
        assert (i2.aggregate_gbps, i2.demand_cv) == (4.0, 4.53)


class TestLoadDataset:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_table1_statistics_match_exactly(self, name):
        spec = dataset_spec(name)
        flows = load_dataset(name, n_flows=150, seed=3)
        row = flows.table1_row()
        assert row["w_avg_distance_miles"] == pytest.approx(
            spec.w_avg_distance_miles, rel=1e-6
        )
        assert row["distance_cv"] == pytest.approx(spec.distance_cv, rel=1e-6)
        assert row["aggregate_gbps"] == pytest.approx(spec.aggregate_gbps, rel=1e-6)
        assert row["demand_cv"] == pytest.approx(spec.demand_cv, rel=1e-6)

    def test_deterministic(self):
        a = load_dataset("eu_isp", n_flows=50, seed=9)
        b = load_dataset("eu_isp", n_flows=50, seed=9)
        assert np.array_equal(a.demands, b.demands)
        assert np.array_equal(a.distances, b.distances)

    def test_seeds_differ(self):
        a = load_dataset("eu_isp", n_flows=50, seed=1)
        b = load_dataset("eu_isp", n_flows=50, seed=2)
        assert not np.array_equal(a.demands, b.demands)

    def test_datasets_differ_at_same_seed(self):
        a = load_dataset("eu_isp", n_flows=50, seed=1)
        b = load_dataset("internet2", n_flows=50, seed=1)
        assert not np.array_equal(a.distances, b.distances)

    def test_region_labels_attached(self):
        flows = load_dataset("eu_isp", n_flows=100, seed=1)
        assert flows.regions is not None
        assert set(flows.regions) <= {"metro", "national", "international"}
        # A 54-mile-scale ISP must have traffic in several regions.
        assert len(set(flows.regions)) >= 2

    def test_too_few_flows_rejected(self):
        with pytest.raises(DataError):
            load_dataset("eu_isp", n_flows=2)

    def test_demand_cv_sets_the_flow_floor(self):
        # Internet2's CV of 4.53 cannot be realized by 20 samples.
        with pytest.raises(DataError, match="at least"):
            load_dataset("internet2", n_flows=20)
        assert len(load_dataset("internet2", n_flows=23, seed=1)) == 23

    def test_correlation_direction(self):
        # EU ISP couples demand negatively with distance (local flows are
        # heavier); check the rank correlation sign on a big sample.
        flows = load_dataset("eu_isp", n_flows=800, seed=4)
        ranks_q = np.argsort(np.argsort(flows.demands))
        ranks_d = np.argsort(np.argsort(flows.distances))
        rho = np.corrcoef(ranks_q, ranks_d)[0, 1]
        assert rho < -0.1


class TestTable1Row:
    def test_structure(self):
        row = table1_row("internet2", n_flows=60, seed=2)
        assert row["dataset"] == "internet2"
        assert set(row["paper"]) == set(row["measured"])

    def test_paper_and_measured_agree(self):
        row = table1_row("cdn", n_flows=120, seed=1)
        for field, value in row["paper"].items():
            assert row["measured"][field] == pytest.approx(value, rel=1e-6)


class TestTracePipeline:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_network_trace("eu_isp", n_flows=60, seed=5)

    def test_every_flow_exports_records(self, trace):
        keys = {r.key for r in trace.records}
        # Sampling can drop a tiny flow entirely, but most must survive.
        assert len(keys) >= 0.8 * len(trace.ground_truth)

    def test_multi_hop_flows_export_from_each_router(self, trace):
        by_key = {}
        for r in trace.records:
            by_key.setdefault(r.key, set()).add(r.router)
        for flow in trace.ground_truth:
            if flow.key in by_key and len(flow.path) > 1:
                assert by_key[flow.key] <= set(flow.path)

    def test_flowset_demand_close_to_ground_truth(self, trace):
        flows = trace.to_flowset()
        truth = sum(f.demand_mbps for f in trace.ground_truth)
        assert flows.demands.sum() == pytest.approx(truth, rel=0.1)

    def test_eu_distance_heuristic_is_entry_exit(self, trace):
        flows = trace.to_flowset()
        assert flows.distances.max() < 2500  # European scale

    def test_internet2_distance_is_routed_path(self):
        trace = generate_network_trace("internet2", n_flows=30, seed=6)
        for flow in trace.ground_truth[:10]:
            routed = trace.distance_for(flow.key)
            direct = trace.topology.geographic_distance(
                flow.entry_pop, flow.exit_pop
            )
            assert routed >= direct - 1e-6

    def test_cdn_distance_uses_geoip(self):
        trace = generate_network_trace("cdn", n_flows=30, seed=6)
        for flow in trace.ground_truth[:10]:
            expected = trace.distance_for(flow.key)
            src = trace.geoip.lookup(flow.key.src_addr)
            dst = trace.geoip.lookup(flow.key.dst_addr)
            assert src is not None and dst is not None
            from repro.geo.coords import city_distance_miles

            assert expected == pytest.approx(city_distance_miles(src, dst))

    def test_regions_by_endpoints_for_cdn(self):
        trace = generate_network_trace("cdn", n_flows=40, seed=7)
        flows = trace.to_flowset()
        assert flows.regions is not None

    def test_trace_determinism(self):
        a = generate_network_trace("internet2", n_flows=20, seed=11)
        b = generate_network_trace("internet2", n_flows=20, seed=11)
        assert [f.key for f in a.ground_truth] == [f.key for f in b.ground_truth]

    def test_validation(self):
        with pytest.raises(DataError):
            generate_network_trace("eu_isp", n_flows=0)
        with pytest.raises(DataError):
            generate_network_trace("eu_isp", n_flows=5, duration_seconds=0.0)
