"""Evaluation and marginals against golden values and brute-force oracles."""

from __future__ import annotations

import itertools
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spnmap import (
    LOG_ZERO,
    LeafNode,
    Network,
    ProductNode,
    SumNode,
    Variable,
    argmax_product,
    batch_log_values,
    count_free_configurations,
    decode_configuration,
    enumerate_log_values,
    evaluate,
    evaluate_marginal,
    exact_map,
    log_partition,
    max_product,
    mis_to_spn,
    random_graph,
    random_spn,
)
from spnmap import inference
from spnmap.experiments import gap_network
from spnmap.inference import _enumeration_plan, _zero_shares, free_variables
from conftest import shared_leaf_dag, shared_sum_dag
from oracles import (
    all_assignments,
    batch_by_entry,
    below,
    brute_marginal,
    brute_value,
    exact_mass,
)


def one_variable_mixture() -> Network:
    """A sum over two leaves of variable 0."""
    nodes = {0: SumNode((1, 2), (0.5, 0.5)), 1: LeafNode(0, (0.2, 0.8)), 2: LeafNode(0, (0.6, 0.4))}
    return Network(nodes, 0, [Variable(0, 2)])


def wide_sum(variables: int) -> Network:
    """A sum of 130 children over ``variables`` ternary variables.

    With one variable the children are its leaves; with more, each child is
    a product of one leaf per variable.  Four leaves in five are 0 at two
    categories of three, and the others at one.
    """
    children, nodes = [], {}
    for i in range(130):
        first = 1 + len(nodes)
        for var in range(variables):
            nodes[first + var] = LeafNode(var, (0.0, 0.0, 1.0) if (i + var) % 5 else (0.25, 0.0, 0.75))
        if variables > 1:
            nodes[first + variables] = ProductNode(tuple(range(first, first + variables)))
        children.append(len(nodes))
    weights = [i % 7 + 1 for i in range(130)]
    nodes[0] = SumNode(tuple(children), tuple(w / sum(weights) for w in weights))
    return Network.from_nodes(nodes, 0)


def ternary_spn(variables: int, seed: int) -> Network:
    """A random network over ternary variables whose products split their scopes out of order.

    Sums of two children and products of two alternate from the root down;
    a leaf category is 0 about one time in five.
    """
    rng = random.Random(seed)
    nodes = {}

    def build(scope: list[int], height: int) -> int:
        nid = len(nodes)
        nodes[nid] = None  # its children take the next ids
        if len(scope) == 1:
            odds = [0.0 if rng.random() < 0.2 else rng.random() for _ in range(3)]
            odds[rng.randrange(3)] += 0.5
            nodes[nid] = LeafNode(scope[0], tuple(p / sum(odds) for p in odds))
        elif height % 2:
            nodes[nid] = SumNode((build(scope, height - 1), build(scope, height - 1)), (0.3, 0.7))
        else:
            order, cut = rng.sample(scope, len(scope)), rng.randrange(1, len(scope))
            nodes[nid] = ProductNode((build(order[:cut], height - 1), build(order[cut:], height - 1)))
        return nid

    build(list(range(variables)), 5)
    return Network(nodes, 0, [Variable(i, 3) for i in range(variables)])


def split_networks() -> list[tuple[Network, dict]]:
    """Networks whose products split the block variables out of order, with evidence.

    ``random_spn`` structures with one variable fixed near the front and
    one near the end, which fall outside the block or inside it as the
    block size varies; shared-leaf and shared-sum DAGs; ternary networks.
    """
    cases = [(random_spn(9, 5, seed=seed), {1: seed % 2, 7: 1}) for seed in range(3)]
    for seed in range(2):
        tree = random_spn(6, 4, seed=20 + seed)
        cases += [(shared_leaf_dag(tree), {}), (shared_sum_dag(tree), {4: 0})]
    return cases + [(ternary_spn(6, seed), {2: seed}) for seed in range(2)]


def small_networks(count: int, max_vars: int = 6):
    for seed in range(count):
        n_vars = 1 + seed % max_vars
        yield random_spn(n_vars, max_height=4, seed=seed)


def oracle_values(net: Network, evidence: dict) -> tuple[list[dict], np.ndarray]:
    """Every assignment consistent with the evidence, in order, and the root's log value at each."""
    assignments = list(all_assignments(net, evidence))
    columns = {v.index: np.array([a[v.index] for a in assignments]) for v in net.variables}
    return assignments, batch_by_entry(net, net._entry[net.root], columns)


def whole_blocks(net: Network, evidence: dict) -> np.ndarray:
    """``enumerate_log_values``'s values, checking that each chunk is one whole block.

    A block is the longest run of the last free variables, and at least one,
    whose cardinalities multiply to at most ``_BLOCK_SIZE``; the chunks start
    at the multiples of its width.
    """
    width = 1
    for i, var in enumerate(reversed(free_variables(net, evidence))):
        if i and width * var.cardinality > inference._BLOCK_SIZE:
            break
        width *= var.cardinality
    chunks = list(enumerate_log_values(net, evidence))
    assert [start for start, _ in chunks] == list(
        range(0, count_free_configurations(net, evidence), width)
    )
    assert all(len(values) == width for _, values in chunks)
    return np.concatenate([values for _, values in chunks])


class TestGoldenMixture:
    def test_point_values(self, mixture_net):
        assert evaluate(mixture_net, {0: 1, 1: 0}).linear == pytest.approx(0.4, abs=1e-12)
        assert evaluate(mixture_net, {0: 0, 1: 0}).linear == pytest.approx(0.3, abs=1e-12)
        assert evaluate(mixture_net, {0: 0, 1: 1}).linear == pytest.approx(0.15, abs=1e-12)
        assert evaluate(mixture_net, {0: 1, 1: 1}).linear == pytest.approx(0.15, abs=1e-12)

    def test_marginals(self, mixture_net):
        assert evaluate_marginal(mixture_net, {1: 0}).linear == pytest.approx(0.7, abs=1e-12)
        assert evaluate_marginal(mixture_net, {1: 1}).linear == pytest.approx(0.3, abs=1e-12)
        assert evaluate_marginal(mixture_net, {0: 0}).linear == pytest.approx(0.45, abs=1e-12)

    def test_empty_evidence_is_total_mass(self, mixture_net):
        assert evaluate_marginal(mixture_net).linear == pytest.approx(1.0, abs=1e-12)
        assert evaluate_marginal(mixture_net, {}).linear == pytest.approx(1.0, abs=1e-12)

    def test_node_values_cover_every_node(self, mixture_net):
        assignment = {0: 1, 1: 0}
        cats = np.array([[assignment[0], assignment[1]]])
        vals = {nid: batch_log_values(mixture_net, nid, cats)[0] for nid in mixture_net.nodes}
        for nid, value in vals.items():
            expected = math.log(brute_value(mixture_net, assignment, nid))
            assert value == pytest.approx(expected, rel=1e-12)
        assert vals[4] == pytest.approx(math.log(0.4))
        assert vals[3] == pytest.approx(math.log(0.9 * 0.8))


class TestArgumentChecks:
    def test_partial_assignment_is_rejected(self, mixture_net):
        with pytest.raises(ValueError, match="missing variable"):
            evaluate(mixture_net, {0: 1})

    def test_the_first_error_names_the_lowest_missing_variable(self):
        net = random_spn(6, 3, seed=1)
        for assignment, message in (
            ({}, "assignment is missing variable 0"),
            ({0: 0, 1: 1, 3: 0, 5: 1}, "assignment is missing variable 2"),
            ({5: 0, 4: 0, 3: 0, 2: 0, 1: 0}, "assignment is missing variable 0"),
            ({0: 0, 9: 0}, "evidence names unknown variable 9"),  # before any missing one
            ({1: 7}, "evidence assigns category 7 to variable 1 of cardinality 2"),
        ):
            with pytest.raises(ValueError) as raised:
                evaluate(net, assignment)
            assert str(raised.value) == message

    def test_unknown_variable(self, mixture_net):
        with pytest.raises(ValueError, match="unknown variable"):
            evaluate_marginal(mixture_net, {7: 0})

    def test_category_out_of_range(self, mixture_net):
        with pytest.raises(ValueError, match="cardinality"):
            evaluate_marginal(mixture_net, {0: 2})

    @pytest.mark.parametrize("n", [5, 20])
    def test_evidence_is_made_of_integers(self, n):
        # A float or a bool indexes one pass and not another, so each call
        # refuses it alike; numpy integers are integers.
        net = mis_to_spn(random_graph(n, 30.0, n)).network
        assert len(net.nodes) == {5: 31, 20: 421}[n]

        def bits(result):
            pd = result.pd_value and result.pd_value.log.hex()
            return result.configuration, result.value.log.hex(), pd

        def calls(evidence):
            total = {v: 0 for v in range(n) if v not in evidence} | evidence
            return {
                "evaluate": lambda: evaluate(net, total).log.hex(),
                "evaluate_marginal": lambda: evaluate_marginal(net, evidence).log.hex(),
                "max_product": lambda: bits(max_product(net, evidence)),
                "argmax_product": lambda: bits(argmax_product(net, evidence)),
                "exact_map": lambda: bits(exact_map(net, evidence)),
                "decode_configuration": lambda: decode_configuration(net, evidence, 1),
            }

        for evidence in ({0: 1.5}, {0.0: 1}, {True: 1}, {0: True}):
            for name, call in calls(evidence).items():
                with pytest.raises(ValueError, match="not a pair of integers"):
                    call()
        plain, wide = calls({0: 1}), calls({np.int64(0): np.int64(1)})
        for name in plain:
            assert wide[name]() == plain[name](), name


class TestOracleAgreement:
    def test_mixture_agrees_with_recursive_oracle(self, mixture_net):
        for assignment in all_assignments(mixture_net):
            expected = brute_value(mixture_net, assignment)
            assert evaluate(mixture_net, assignment).linear == pytest.approx(
                expected, rel=1e-12
            )

    def test_random_networks_agree_with_oracle(self):
        for net in small_networks(40):
            for assignment in all_assignments(net):
                got = evaluate(net, assignment).linear
                expected = brute_value(net, assignment)
                assert got == pytest.approx(expected, rel=1e-11, abs=1e-300)
                assert 0.0 <= got <= 1.0 + 1e-12

    def test_marginal_is_sum_over_consistent_assignments(self):
        for net in small_networks(25):
            evidence = {0: 0} if len(net.variables) > 1 else {}
            got = evaluate_marginal(net, evidence).linear
            assert got == pytest.approx(brute_marginal(net, evidence), rel=1e-9)

    def test_monotone_evidence(self):
        for net in small_networks(25, max_vars=5):
            if len(net.variables) < 2:
                continue
            wide = evaluate_marginal(net, {0: 1}).linear
            narrow_evidence = {0: 1, len(net.variables) - 1: 0}
            narrow = evaluate_marginal(net, narrow_evidence).linear
            assert narrow <= wide + 1e-15


class TestBatchEvaluation:
    def test_batch_matches_scalar_on_mixture(self, mixture_net):
        cats = np.array([[a[0], a[1]] for a in all_assignments(mixture_net)])
        batched = batch_log_values(mixture_net, mixture_net.root, cats)
        for row, assignment in zip(batched, all_assignments(mixture_net)):
            assert row == pytest.approx(evaluate(mixture_net, assignment).log, rel=1e-12)

    def test_batch_matches_scalar_on_random_networks(self):
        for net in small_networks(20):
            assignments = list(all_assignments(net))
            cats = np.array(
                [[a[v.index] for v in net.variables] for a in assignments]
            )
            batched = batch_log_values(net, net.root, cats)
            for row, assignment in zip(batched, assignments):
                expected = evaluate(net, assignment).log
                if expected == LOG_ZERO:
                    assert row == LOG_ZERO
                else:
                    assert row == pytest.approx(expected, rel=1e-12)

    def test_batch_rejects_wrong_width(self, mixture_net):
        with pytest.raises(ValueError, match="column"):
            batch_log_values(mixture_net, 0, np.zeros((4, 3), dtype=np.intp))
        with pytest.raises(KeyError, match="unknown node id 99"):  # as ``scope`` says it
            batch_log_values(mixture_net, 99, np.zeros((4, 2), dtype=np.intp))

    def test_batch_rejects_categories_outside_the_variable(self):
        net = one_variable_mixture()
        for category in (-1, 2):
            with pytest.raises(ValueError, match=f"category {category} to variable 0 of"):
                batch_log_values(net, 0, np.array([[0], [category]]))
        with pytest.raises(ValueError, match="integers"):
            batch_log_values(net, 0, np.array([[0.0], [1.0]]))

    def test_batch_reads_only_scope_columns(self, mixture_net):
        # Node 4 ranges over variable 0 only; garbage in column 1 is ignored.
        cats = np.array([[0, 99], [1, 99]])
        out = batch_log_values(mixture_net, 4, cats)
        assert out[0] == pytest.approx(math.log(0.6))
        assert out[1] == pytest.approx(math.log(0.4))
        # An inner sum of a DAG: its sub-DAG holds leaves that have a second
        # parent outside it, and columns outside its scope are out of range.
        dag = shared_leaf_dag(random_spn(4, max_height=3, seed=4))
        node_id = 7
        shared = dag.nodes[dag.nodes[dag.root].children[1]].children
        scope = sorted(dag.scope(node_id))
        assert isinstance(dag.nodes[node_id], SumNode) and len(scope) < 4
        assert set(shared) & below(dag, node_id)
        rows = list(itertools.product(range(2), repeat=len(scope)))
        cats = np.full((len(rows), 4), 99)
        cats[:, scope] = rows
        out = batch_log_values(dag, node_id, cats)
        for row, value in zip(rows, out):
            expected = math.log(brute_value(dag, dict(zip(scope, row)), node_id))
            assert value == pytest.approx(expected, rel=1e-12)


class TestEnumeration:
    def test_free_variables_and_count(self, mixture_net):
        assert [v.index for v in free_variables(mixture_net)] == [0, 1]
        assert [v.index for v in free_variables(mixture_net, {0: 1})] == [1]
        assert count_free_configurations(mixture_net) == 4
        assert count_free_configurations(mixture_net, {0: 1, 1: 0}) == 1

    def test_decode_is_lexicographic(self, mixture_net):
        assert decode_configuration(mixture_net, None, 0) == {0: 0, 1: 0}
        assert decode_configuration(mixture_net, None, 1) == {0: 0, 1: 1}
        assert decode_configuration(mixture_net, None, 2) == {0: 1, 1: 0}
        assert decode_configuration(mixture_net, None, 3) == {0: 1, 1: 1}

    def test_decode_respects_evidence(self, mixture_net):
        assert decode_configuration(mixture_net, {0: 1}, 0) == {0: 1, 1: 0}
        assert decode_configuration(mixture_net, {0: 1}, 1) == {0: 1, 1: 1}

    def test_decode_rejects_indices_outside_the_enumeration(self, mixture_net):
        for index in (5, -1):
            with pytest.raises(ValueError, match="outside the 2 configurations"):
                decode_configuration(one_variable_mixture(), {}, index)
        with pytest.raises(ValueError, match="outside the 2 configurations"):
            decode_configuration(mixture_net, {0: 1}, 2)

    def test_evidence_is_checked_as_exact_map_checks_it(self):
        net = random_spn(3, max_height=3, seed=1)
        calls = (
            lambda evidence: decode_configuration(net, evidence, 0),
            lambda evidence: count_free_configurations(net, evidence),
            lambda evidence: free_variables(net, evidence),
        )
        for evidence in ({7: 5}, {0: 9, 11: 1}):
            with pytest.raises(ValueError) as refused:
                exact_map(net, evidence)
            for call in calls:
                with pytest.raises(ValueError) as raised:
                    call(evidence)
                assert str(raised.value) == str(refused.value)

    def test_products_read_each_child_through_its_period(self):
        # The block is the last 12 of 14 binary variables, the first of them
        # changing fastest; each product's leaves come in variable order.
        net = mis_to_spn(random_graph(14, 30.0, 5)).network
        _, _, groups, _, _ = _enumeration_plan(net, {})
        (products,) = (reads for _, _, _, weights, _, reads, _ in groups if weights is None)
        assert products == [1, 1, *(2**k for k in range(1, 13))]

    def test_chunks_enumerate_every_assignment_in_order(self, monkeypatch):
        monkeypatch.setattr("spnmap.inference._BLOCK_SIZE", 3)  # blocks of the last variable
        net = random_spn(4, max_height=3, seed=11)
        values = []
        for start, chunk in enumerate_log_values(net, {1: 1}):
            assert start == len(values) and len(chunk) == 2
            values.extend(chunk.tolist())
        expected = [evaluate(net, a).log for a in all_assignments(net, {1: 1})]
        assert len(set(expected)) == len(expected) == 8
        assert values == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("block", [1, 3, 4, 27, None])
    def test_values_are_the_per_entry_batch_bit_for_bit(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr("spnmap.inference._BLOCK_SIZE", block)
        zero_at_one = {  # at x0 = 1 every term of the root is LOG_ZERO
            0: SumNode((1, 2), (0.5, 0.5)),
            1: ProductNode((3, 4)),
            2: ProductNode((5, 6)),
            3: LeafNode(0, (1.0, 0.0)),
            4: LeafNode(1, (0.4, 0.6)),
            5: LeafNode(0, (1.0, 0.0)),
            6: LeafNode(1, (0.9, 0.1)),
        }
        rng = np.random.default_rng(3)
        wide = {0: SumNode(tuple(range(1, 11)), tuple(rng.dirichlet(np.ones(10))))}
        for i in range(1, 11):  # ten products of three leaves, summed pairwise
            wide[i] = ProductNode((10 * i + 1, 10 * i + 2, 10 * i + 3))
            for var in range(3):
                p = rng.random()
                wide[10 * i + 1 + var] = LeafNode(var, (p, 1.0 - p))
        ternary = {0: SumNode((1, 2), (0.3, 0.7))}
        for i in (1, 2):  # 3**8 rows: three blocks of the last seven variables, 2187 rows each
            ternary[i] = ProductNode(tuple(range(10 * i, 10 * i + 8)))
            for var in range(8):
                ternary[10 * i + var] = LeafNode(var, tuple(rng.dirichlet(np.ones(3))))
        around = {  # a root over the first and last variables, not the middle one
            0: ProductNode((1, 2)),
            1: LeafNode(2, (0.3, 0.7)),
            2: LeafNode(0, (0.25, 0.75)),
        }
        cases = [
            # 8192 rows, two blocks of the default size
            (mis_to_spn(random_graph(14, 30.0, 5)).network, {3: 1}),
            (Network.from_nodes(wide, 0), {}),
            (Network.from_nodes(ternary, 0), {}),
            (shared_leaf_dag(random_spn(4, max_height=3, seed=4)), {}),
            (Network({0: LeafNode(0, (0.25, 0.75))}, 0, [Variable(0, 2), Variable(1, 3)]), {}),
            (Network(around, 0, [Variable(0, 2), Variable(1, 3), Variable(2, 2)]), {}),
            *split_networks(),
            (Network.from_nodes(zero_at_one, 0), {}),
        ]
        for net, evidence in cases:
            assignments, expected = oracle_values(net, evidence)
            values = whole_blocks(net, evidence)
            assert values.tobytes() == expected.tobytes()
            assert exact_map(net, evidence).configuration == assignments[int(np.argmax(expected))]
        assert LOG_ZERO in values and values.max() > LOG_ZERO

    @pytest.mark.parametrize("block", [4, None])
    def test_switching_evidence_keeps_the_oracles_bits(self, monkeypatch, block):
        # A network keeps the plan of the last evidence it enumerated with:
        # a repeat reuses it, a switch builds the new evidence's plan.
        if block is not None:
            monkeypatch.setattr("spnmap.inference._BLOCK_SIZE", block)
        for net, fixed in split_networks():
            oracles, previous, kept = {}, None, None
            for evidence in ({}, fixed, fixed, {}, {0: 1}, {0: 1}, fixed, {}):
                key = tuple(sorted(evidence.items()))
                if key not in oracles:
                    oracles[key] = oracle_values(net, evidence)
                assignments, expected = oracles[key]
                assert whole_blocks(net, evidence).tobytes() == expected.tobytes()
                assert (net._enumeration[1] is kept) == (net._enumeration[0] == previous)
                assert exact_map(net, evidence).configuration == assignments[int(np.argmax(expected))]
                previous, kept = evidence, net._enumeration[1]

    def test_enumerate_log_values_matches_decode(self, mixture_net):
        for start, values in enumerate_log_values(mixture_net):
            for offset, value in enumerate(values):
                assignment = decode_configuration(mixture_net, None, start + offset)
                assert value == pytest.approx(evaluate(mixture_net, assignment).log)


@st.composite
def mixed_network(draw):
    """A drawn valid network over variables of cardinality 2 to 5, and drawn evidence.

    Sums mix two or three children over one scope, products split theirs,
    and some leaf categories have probability 0.  The network may share
    leaves (``shared_leaf_dag``) and have one more variable that no leaf
    covers; the evidence fixes up to two variables, any of them.
    """
    cards = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    nodes = {}

    def distribution(card: int, least: int) -> tuple[float, ...]:
        weights = draw(st.lists(st.integers(least, 4), min_size=card, max_size=card).filter(any))
        return tuple(w / sum(weights) for w in weights)

    def build(scope: list[int], height: int) -> int:
        nid = len(nodes)
        nodes[nid] = None  # its children take the next ids
        if len(scope) == 1 and (height <= 0 or draw(st.booleans())):
            nodes[nid] = LeafNode(scope[0], distribution(cards[scope[0]], 0))
        elif len(scope) > 1 and (height <= 0 or draw(st.booleans())):
            order = draw(st.permutations(scope))
            cuts = range(1, len(scope))
            if height > 0:
                cuts = sorted(draw(st.sets(st.sampled_from(cuts), min_size=1, max_size=2)))
            parts = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(scope)])]
            nodes[nid] = ProductNode(tuple(build(part, height - 1) for part in parts))
        else:
            kids = tuple(build(scope, height - 1) for _ in range(draw(st.integers(2, 3))))
            nodes[nid] = SumNode(kids, distribution(len(kids), 1))
        return nid

    build(list(range(len(cards))), draw(st.integers(0, 3)))
    net = Network(nodes, 0, [Variable(i, card) for i, card in enumerate(cards)])
    if draw(st.booleans()):
        net = shared_leaf_dag(net)
    variables = list(net.variables)
    if draw(st.booleans()):
        variables.append(Variable(len(cards), draw(st.integers(2, 5))))
        net = Network(dict(net.nodes), net.root, variables)
    fixed = draw(st.lists(st.sampled_from(variables), max_size=2, unique=True))
    return net, {v.index: draw(st.integers(0, v.cardinality - 1)) for v in fixed}


class TestPeriodicBlocks:
    """Blocks whose boundary falls at every variable, a last one wider than the block included.

    The ``@given`` test is a static method: without its pytest plugin,
    Hypothesis fails a method that pytest calls on a new instance for each
    parameter (health check ``differing_executors``).
    """

    @staticmethod
    @pytest.mark.parametrize("block", [1, 4, 6, 27, None])
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(mixed_network())
    def test_values_and_first_maximum_are_the_oracles(block, drawn):
        net, evidence = drawn
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr("spnmap.inference._BLOCK_SIZE", block)
            values = whole_blocks(net, evidence)
            found = exact_map(net, evidence).configuration
        assignments, expected = oracle_values(net, evidence)
        assert values.tobytes() == expected.tobytes()
        assert found == assignments[int(np.argmax(expected))]

    @pytest.mark.parametrize("sparse", [False, True])
    def test_gathered_sums_keep_the_bits_masked_or_not(self, monkeypatch, sparse):
        forced(monkeypatch, sparse, 256)
        for net, evidence in split_networks():
            assert any(isinstance(g[5], np.ndarray) for g in _enumeration_plan(net, evidence)[2])
            _, expected = oracle_values(net, evidence)
            assert whole_blocks(net, evidence).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("block", [4, None])
    def test_gathering_every_group_gives_the_sliced_bits(self, monkeypatch, block):
        # Every group of an independent-set network reads its children as
        # slices; read through gather maps instead, they give the same bits.
        if block is not None:
            monkeypatch.setattr("spnmap.inference._BLOCK_SIZE", block)

        def cases():  # new networks each time: a network keeps the plan it enumerated with
            return [
                (mis_to_spn(random_graph(12, pct, seed)).network, evidence)
                for pct, seed, evidence in ((10.0, 1, {}), (40.0, 2, {0: 1}), (30.0, 5, {11: 1}))
            ]

        sliced = []
        for net, evidence in cases():
            assert not any(isinstance(g[5], np.ndarray) for g in _enumeration_plan(net, evidence)[2])
            sliced.append(whole_blocks(net, evidence))
        monkeypatch.setattr("spnmap.inference._sliced", lambda scopes, layouts: False)
        for (net, evidence), values in zip(cases(), sliced):
            assert all(isinstance(g[5], np.ndarray) for g in _enumeration_plan(net, evidence)[2])
            assert whole_blocks(net, evidence).tobytes() == values.tobytes()
            assignments, expected = oracle_values(net, evidence)
            assert values.tobytes() == expected.tobytes()
            assert exact_map(net, evidence).configuration == assignments[int(np.argmax(expected))]


@st.composite
def wide_network(draw):
    """A drawn valid network whose sums have 8 to 20 children, and drawn evidence.

    The root is a sum.  A sum's children split its scope into leaves, or
    are sums of their own, one level down at most; leaf categories are 0
    about one time in three, so that most of a sum's terms can be
    ``LOG_ZERO``.  The evidence fixes up to two variables.
    """
    cards = draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    nodes = {}

    def distribution(card: int) -> tuple[float, ...]:
        weights = draw(st.lists(st.integers(0, 2), min_size=card, max_size=card).filter(any))
        return tuple(w / sum(weights) for w in weights)

    def build(scope: list[int], nested: bool) -> int:
        nid = len(nodes)
        nodes[nid] = None  # its children take the next ids
        if nested and draw(st.booleans()):
            kids = tuple(build(scope, False) for _ in range(draw(st.integers(8, 20))))
            nodes[nid] = SumNode(kids, distribution(len(kids)))
        elif len(scope) == 1:
            nodes[nid] = LeafNode(scope[0], distribution(cards[scope[0]]))
        else:
            nodes[nid] = ProductNode(tuple(build([var], nested) for var in draw(st.permutations(scope))))
        return nid

    nodes[0] = None
    kids = tuple(build(list(range(len(cards))), draw(st.booleans())) for _ in range(draw(st.integers(8, 20))))
    nodes[0] = SumNode(kids, distribution(len(kids)))
    variables = [Variable(i, card) for i, card in enumerate(cards)]
    fixed = draw(st.lists(st.sampled_from(variables), max_size=2, unique=True))
    return Network(nodes, 0, variables), {v.index: draw(st.integers(0, v.cardinality - 1)) for v in fixed}


def forced(patch: pytest.MonkeyPatch, sparse: bool, narrow: int) -> None:
    """Have every group of sums mask its exponentials, or none, and add in place from ``narrow`` columns."""
    patch.setattr("spnmap.inference._SPARSE_SHARE", -1.0 if sparse else 1.0)
    patch.setattr("spnmap.logspace._NARROW", narrow)


class TestWideSums:
    """Sums of 8 children or more, most of whose terms can be ``LOG_ZERO``.

    Each case runs with every group of sums exponentiating only its live
    terms and with none, and with ``narrow`` 1, where every group adds its
    terms in place, and 256, where these narrow blocks take numpy's sum of a
    transposed copy.
    """

    @staticmethod  # as ``TestPeriodicBlocks``'s
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("narrow", [1, 256])
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(wide_network())
    def test_values_and_first_maximum_are_the_oracles(sparse, narrow, drawn):
        net, evidence = drawn
        with pytest.MonkeyPatch.context() as patch:
            forced(patch, sparse, narrow)
            values = np.concatenate([v for _, v in enumerate_log_values(net, evidence)])
            found = exact_map(net, evidence).configuration
        assignments, expected = oracle_values(net, evidence)
        assert values.tobytes() == expected.tobytes()
        assert found == assignments[int(np.argmax(expected))]

    @pytest.mark.parametrize("evidence", [{}, {0: 1}, {3: 0, 5: 1}])
    def test_an_independent_set_roots_share_of_zero_terms_is_counted_exactly(self, evidence):
        # Its terms are products of leaves, whose disjoint scopes make the
        # plan's count exact.
        net = mis_to_spn(random_graph(8, 30.0, 2)).network
        assignments = list(all_assignments(net, evidence))
        columns = {v.index: np.array([a[v.index] for a in assignments]) for v in net.variables}
        plan = net._plan
        root_kids = plan.entries[plan.groups[-1][2][0]]
        terms = [batch_by_entry(net, int(kid), columns) for kid in root_kids]
        assert _zero_shares(net, evidence)[plan.root] == pytest.approx(np.mean(np.stack(terms) == LOG_ZERO))

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("narrow", [1, 256])
    @pytest.mark.parametrize("variables", [1, 6])
    def test_a_sum_of_130_children(self, sparse, narrow, variables):
        # 130 terms split in two halves of 64 and 66 before the pairwise adds.
        net = wide_sum(variables)
        assert _enumeration_plan(net, {})[2][-1][4]  # the root's terms are mostly LOG_ZERO
        with pytest.MonkeyPatch.context() as patch:
            forced(patch, sparse, narrow)
            values = np.concatenate([v for _, v in enumerate_log_values(net)])
            found = exact_map(net).configuration
        assignments, expected = oracle_values(net, {})
        assert values.tobytes() == expected.tobytes()
        assert found == assignments[int(np.argmax(expected))]


#: How far ``log_partition`` may lie from the log of the exact total mass:
#: 5 units in the last place of 1.  Each enumerated value carries its own
#: leaf, weight and product roundings, and the sum over the values rounds
#: again; the largest error on the networks below is 3.87 units, on the 40%
#: independent-set network of seed 0.
MASS_ULPS = 5


def assert_exact_mass(net: Network) -> None:
    """``log_partition`` is within ``MASS_ULPS`` of the exact log of ``exact_mass``.

    The log is ``log1p`` of ``Z - 1``, which a double holds nearly exactly:
    the log of the numerator less that of the denominator loses about 9 bits.
    """
    exact = math.log1p(float(exact_mass(net) - 1))
    assert abs(log_partition(net) - exact) <= MASS_ULPS * 2.0**-52


class TestNormalization:
    def test_mixture_total_mass(self, mixture_net):
        assert log_partition(mixture_net) == pytest.approx(0.0, abs=1e-12)

    def test_random_networks_total_mass(self):
        for net in small_networks(20):
            assert log_partition(net) == pytest.approx(0.0, abs=1e-9)

    def test_small_chunks_do_not_change_the_total(self, mixture_net, monkeypatch):
        monkeypatch.setattr("spnmap.inference._BLOCK_SIZE", 1)  # a chunk per category of x0
        assert log_partition(mixture_net) == pytest.approx(0.0, abs=1e-12)

    def test_the_blocks_are_summed_without_bias(self, monkeypatch):
        # Against the log of the exact sum of the yielded values'
        # exponentials, each total lies within a unit in the last place of
        # 1 and their mean within a quarter of one.  A reduction that lost
        # a unit in the last place of each block's sum would lie about 0.7
        # below on average; blocks of 64 give each network many of them.
        monkeypatch.setattr("spnmap.inference._BLOCK_SIZE", 64)
        errors = []
        for net in (random_spn(variables, 6, seed=seed) for variables in (12, 13) for seed in range(4)):
            values = np.concatenate([chunk for _, chunk in enumerate_log_values(net)])
            exact = math.log1p(math.fsum([*np.exp(values).tolist(), -1.0]))
            errors.append((log_partition(net) - exact) / 2.0**-52)
        assert max(map(abs, errors)) <= 1
        assert abs(statistics.fmean(errors)) <= 0.25

    @pytest.mark.parametrize("variables", range(13, 19))
    def test_random_networks_of_several_blocks_reach_the_exact_mass(self, variables):
        for seed in range(3):
            assert_exact_mass(random_spn(variables, 6, seed=seed))

    @pytest.mark.parametrize("pct", [10.0, 30.0, 40.0])
    def test_independent_set_networks_reach_the_exact_mass(self, pct):
        for seed in range(3):  # 2**14 assignments, four blocks
            assert_exact_mass(mis_to_spn(random_graph(14, pct, seed)).network)


class TestLogDomainRobustness:
    def test_deep_products_underflow_linear_but_not_log(self):
        copies = 700
        net = gap_network(copies)
        value = evaluate(net, {i: 1 for i in range(copies)})
        assert value.log == pytest.approx(copies * math.log(5 / 16), rel=1e-12)
        assert value.linear == 0.0  # linear doubles cannot hold exp(-814)
        assert not value.is_zero

    def test_leaf_logs_follow_one_rule(self):
        net = Network.from_nodes({0: LeafNode(0, (1.0, 0.0))}, 0)
        assert evaluate(net, {0: 0}).log == 0.0
        assert evaluate(net, {0: 1}).log == LOG_ZERO
        net = Network.from_nodes({0: LeafNode(0, (0.5, 0.5))}, 0)
        assert evaluate(net, {0: 0}).log == pytest.approx(math.log(0.5))

    def test_exact_zero_propagates_as_sentinel(self):
        nodes = {
            0: ProductNode((1, 2)),
            1: LeafNode(0, (1.0, 0.0)),
            2: LeafNode(1, (0.5, 0.5)),
        }
        net = Network.from_nodes(nodes, 0)
        value = evaluate(net, {0: 1, 1: 0})
        assert value.is_zero
        assert evaluate_marginal(net, {0: 1}).is_zero
