"""Seeding, random instances, the ratio study, and the solver-gap family."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from spnmap import (
    ExperimentConfig,
    LOG_ZERO,
    derive_seed,
    gap_network,
    max_product,
    network_stats,
    random_graph,
    random_spn,
    ratio,
    run_mis_experiment,
    validate,
)
from spnmap import experiments, solvers
from spnmap.experiments import _ratio_from_logs, gap_fragment
from oracles import all_assignments, brute_value, random_spn_by_nodes


class TestSeeding:
    def test_same_parts_same_seed(self):
        assert derive_seed(0, 5, 10.0, 3) == derive_seed(0, 5, 10.0, 3)

    def test_any_part_changes_the_seed(self):
        base = derive_seed(0, 5, 10.0, 3)
        assert derive_seed(1, 5, 10.0, 3) != base
        assert derive_seed(0, 6, 10.0, 3) != base
        assert derive_seed(0, 5, 20.0, 3) != base
        assert derive_seed(0, 5, 10.0, 4) != base

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(123, "x") < 1 << 64


class TestRandomGraph:
    def test_edge_count_rounds_half_up(self):
        # 4 vertices allow 6 edges; 25% of 6 is 1.5, which rounds to 2.
        assert len(random_graph(4, 25.0, seed=1).edges) == 2
        # 10% of 6 is 0.6, which rounds to 1.
        assert len(random_graph(4, 10.0, seed=1).edges) == 1

    def test_at_least_one_edge(self):
        assert len(random_graph(10, 0.001, seed=0).edges) == 1

    def test_full_density_is_complete(self):
        g = random_graph(5, 100.0, seed=0)
        assert len(g.edges) == 10

    def test_deterministic_in_the_seed(self):
        assert random_graph(8, 30.0, seed=9).edges == random_graph(8, 30.0, seed=9).edges
        assert random_graph(8, 30.0, seed=9).edges != random_graph(8, 30.0, seed=10).edges

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_graph(1, 10.0, seed=0)
        with pytest.raises(ValueError):
            random_graph(5, 0.0, seed=0)
        with pytest.raises(ValueError):
            random_graph(5, 101.0, seed=0)


class TestRatio:
    def test_gap_fragment_ratio(self):
        assert ratio(gap_fragment().network) == pytest.approx(2.2, rel=1e-12)

    def test_mixture_ratio(self, mixture_net):
        assert ratio(mixture_net) == pytest.approx(0.4 / 0.3, rel=1e-12)

    def test_ratio_is_one_without_sum_choices(self):
        net = random_spn(3, max_height=1, seed=4)  # single product over leaves
        assert ratio(net) == pytest.approx(1.0)

    def test_zero_over_zero_is_one(self):
        assert _ratio_from_logs(LOG_ZERO, LOG_ZERO) == 1.0

    def test_zero_denominator_is_infinite(self):
        assert _ratio_from_logs(math.log(0.5), LOG_ZERO) == math.inf

    def test_log_domain_division(self):
        assert _ratio_from_logs(math.log(0.4), math.log(0.3)) == pytest.approx(4 / 3)

    def test_ratio_beyond_float_range_is_infinite(self):
        assert _ratio_from_logs(800.0, 0.0) == math.inf
        assert ratio(gap_network(1000)) == math.inf

    def test_max_product_is_solved_once(self, monkeypatch):
        calls = []
        max_pass = solvers._max_pass

        def counted(network, evidence):
            calls.append(network)
            return max_pass(network, evidence)

        monkeypatch.setattr(solvers, "_max_pass", counted)
        assert ratio(gap_network(3)) == pytest.approx(2.2**3, rel=1e-12)
        assert ratio(gap_network(3), {0: 1}) == pytest.approx(2.2**2, rel=1e-12)
        assert len(calls) == 2


class TestExperimentConfig:
    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            ExperimentConfig((5,), (10.0,), repetitions=0)
        with pytest.raises(ValueError):
            ExperimentConfig((1,), (10.0,))
        with pytest.raises(ValueError):
            ExperimentConfig((5,), (0.0,))
        with pytest.raises(ValueError):
            ExperimentConfig((5,), (150.0,))


class TestRatioStudy:
    def test_rows_follow_the_grid_order(self):
        config = ExperimentConfig((5, 6), (20.0, 40.0), repetitions=3, base_seed=1)
        rows = run_mis_experiment(config)
        assert [(r.vertices, r.edge_pct) for r in rows] == [
            (5, 20.0),
            (5, 40.0),
            (6, 20.0),
            (6, 40.0),
        ]

    def test_node_counts_are_quadratic(self):
        config = ExperimentConfig((5, 10), (20.0,), repetitions=2)
        rows = run_mis_experiment(config)
        assert [r.node_count for r in rows] == [31, 111]

    def test_ratios_are_aggregated_correctly(self):
        from spnmap import mis_to_spn

        config = ExperimentConfig((5,), (40.0,), repetitions=8, base_seed=3)
        row = run_mis_experiment(config)[0]
        ratios = []
        for rep in range(8):
            seed = derive_seed(3, 5, 40.0, rep)
            graph = random_graph(5, 40.0, seed)
            ratios.append(ratio(mis_to_spn(graph).network))
        assert row.mean_ratio == pytest.approx(math.fsum(ratios) / 8, rel=1e-12)
        assert all(r >= 1.0 - 1e-9 for r in ratios)
        assert row.stddev_ratio >= 0.0
        assert row.mean_seconds_max_product > 0.0
        assert row.mean_seconds_argmax_product > 0.0

    def test_single_repetition_has_zero_stddev(self):
        config = ExperimentConfig((5,), (20.0,), repetitions=1)
        row = run_mis_experiment(config)[0]
        assert row.stddev_ratio == 0.0

    def test_deterministic_apart_from_timing(self):
        config = ExperimentConfig((6,), (30.0,), repetitions=4, base_seed=9)
        first = run_mis_experiment(config)[0]
        second = run_mis_experiment(config)[0]
        assert (first.vertices, first.edge_pct, first.node_count) == (
            second.vertices,
            second.edge_pct,
            second.node_count,
        )
        assert first.mean_ratio == second.mean_ratio
        assert first.stddev_ratio == second.stddev_ratio


class TestRandomNetworkGenerator:
    def test_respects_the_seed(self):
        a = random_spn(5, max_height=4, seed=2)
        b = random_spn(5, max_height=4, seed=2)
        assert a.nodes == b.nodes and a.root == b.root
        c = random_spn(5, max_height=4, seed=3)
        assert a.nodes != c.nodes

    def test_generated_networks_are_valid(self):
        for seed in range(60):
            n_vars = 1 + seed % 8
            height = seed % 6
            if n_vars > 1 and height < 1:
                continue  # rejected shape, covered below
            net = random_spn(n_vars, max_height=height, seed=seed)
            assert validate(net) == []

    def test_height_budget_is_respected(self):
        for seed in range(40):
            net = random_spn(4, max_height=3, seed=seed)
            assert network_stats(net).height <= 3
            assert {v.index for v in net.variables} == {0, 1, 2, 3}

    def test_values_match_the_oracle(self):
        from spnmap import evaluate

        net = random_spn(4, max_height=5, seed=17)
        for assignment in all_assignments(net):
            assert evaluate(net, assignment).linear == pytest.approx(
                brute_value(net, assignment), rel=1e-11
            )

    def test_tables_are_the_node_dict_oracles_bit_for_bit(self):
        def tables(net):
            t = net._tables
            columns = [c.tobytes() for c in (t.kind, t.child_offset, t.child_index, t.variable, t.param_offset)]
            dtypes = [c.dtype for c in t[1:]]
            return t.ids, columns, t.params.view(np.int64).tolist(), dtypes, net.root, net.variables

        shapes = [
            (v, h, s)
            for v in range(1, 21)
            for h in range(v > 1, 8)  # every valid height
            for s in (0, 1, 2, *(derive_seed(0, "structure", v, k) for k in range(3)))
        ]
        # The structures that perfbench's exact_enum tries, in its seed sequence.
        shapes += [
            (v, 6, derive_seed(0, "structure", v, k)) for v, tries in ((20, 25), (18, 4)) for k in range(tries)
        ]
        for shape in shapes:
            assert tables(random_spn(*shape)) == tables(random_spn_by_nodes(*shape)), shape

    def test_rejections_name_the_shape_as_the_oracle_does(self):
        for shape in ((0, 2), (3, -1), (3, 0), (-4, 0)):
            with pytest.raises(ValueError) as expected:
                random_spn_by_nodes(*shape)
            with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
                random_spn(*shape)

    def test_rejects_impossible_shapes(self):
        with pytest.raises(ValueError):
            random_spn(0, max_height=2)
        with pytest.raises(ValueError):
            random_spn(3, max_height=-1)
        with pytest.raises(ValueError):
            random_spn(3, max_height=0)

    def test_single_variable_zero_height_is_one_leaf(self):
        net = random_spn(1, max_height=0, seed=5)
        assert len(net.nodes) == 1


class TestGapFamily:
    def test_fragment_values(self):
        net = gap_fragment().network
        assert brute_value(net, {0: 0}) == pytest.approx(11 / 16, rel=1e-12)
        assert brute_value(net, {0: 1}) == pytest.approx(5 / 16, rel=1e-12)
        assert validate(net) == []

    def test_network_size_grows_linearly(self):
        for m in (2, 3, 5):
            net = gap_network(m)
            assert len(net.nodes) == 5 * m + 1
            assert len(net.variables) == m
            assert validate(net) == []

    def test_ratio_grows_geometrically(self):
        for m in (1, 2, 3, 4):
            net = gap_network(m) if m > 1 else gap_fragment().network
            assert ratio(net) == pytest.approx(2.2**m, rel=1e-9)
            assert ratio(net) > 2.0**m
