"""Text formats: grammar goldens, error line numbers, round-trip identity."""

from __future__ import annotations

import functools
import math
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spnmap import (
    CnfFormula,
    Graph,
    LeafNode,
    ParseError,
    ProductNode,
    SumNode,
    amplify,
    cnf_to_spn,
    evaluate,
    mis_to_spn,
    parse_dimacs_cnf,
    parse_evidence,
    parse_graph,
    parse_spn,
    random_spn,
    serialize_graph,
    serialize_spn,
    validate,
)
from spnmap.formats import _BLOCK
from oracles import all_assignments

MIXTURE_DOC = """\
# three-component mixture over two binary variables
spn 8
node 0 sum
node 1 prod
node 2 prod
node 3 prod
node 4 leaf 0 0.6 0.4
node 5 leaf 0 0.1 0.9
node 6 leaf 1 0.3 0.7
node 7 leaf 1 0.8 0.2
edge 0 1 0.2
edge 0 2 0.5
edge 0 3 0.3
edge 1 4
edge 1 6
edge 2 4
edge 2 7
edge 3 5
edge 3 7
root 0
"""


def expect_parse_error(text: str, line: int, fragment: str) -> None:
    with pytest.raises(ParseError) as excinfo:
        parse_spn(text)
    assert excinfo.value.line == line
    assert fragment in str(excinfo.value)


class TestNetworkParsing:
    def test_golden_document(self, mixture_net):
        parsed = parse_spn(MIXTURE_DOC)
        assert validate(parsed) == []
        assert parsed.root == 0
        assert parsed.nodes == mixture_net.nodes
        assert evaluate(parsed, {0: 1, 1: 0}).linear == pytest.approx(0.4, abs=1e-12)

    def test_root_defaults_to_node_zero(self):
        doc = "spn 1\nnode 0 leaf 0 0.5 0.5\n"
        assert parse_spn(doc).root == 0

    def test_comments_and_blank_lines_are_ignored(self):
        doc = "# header\n\nspn 1   # trailing\n\nnode 0 leaf 0 0.5 0.5  # leaf\n\n"
        net = parse_spn(doc)
        assert len(net.nodes) == 1

    def test_edges_keep_their_order(self):
        doc = (
            "spn 4\n"
            "node 0 sum\n"
            "node 1 leaf 0 1 0\n"
            "node 2 leaf 0 0 1\n"
            "node 3 sum\n"
            "edge 0 2 0.75\n"
            "edge 3 1 0.375\n"
            "edge 0 1 0.25\n"
            "edge 3 2 0.625\n"
        )
        net = parse_spn(doc)
        node = net.nodes[0]
        assert isinstance(node, SumNode)
        assert node.children == (2, 1)
        assert node.weights == (0.75, 0.25)
        # Edges of two parents interleave; each parent's weights follow its children.
        assert net.nodes[3].children == (1, 2)
        assert net.nodes[3].weights == (0.375, 0.625)

    def test_node_ids_need_not_be_contiguous(self):
        doc = "spn 2\nnode 7 prod\nnode 3 leaf 0 0.5 0.5\nedge 7 3\nroot 7\n"
        net = parse_spn(doc)
        assert set(net.nodes) == {3, 7}
        assert isinstance(net.nodes[7], ProductNode)


class TestNetworkParseErrors:
    def test_missing_header(self):
        expect_parse_error("node 0 leaf 0 0.5 0.5\n", 1, "missing spn header")

    def test_empty_input(self):
        expect_parse_error("", 1, "missing spn header")

    def test_header_not_first(self):
        expect_parse_error("# c\nnode 0 sum\nspn 1\n", 2, "missing spn header")

    def test_edge_and_root_before_header(self):
        expect_parse_error("edge 0 1\nspn 2\n", 1, "missing spn header")
        expect_parse_error("root 0\nspn 1\nnode 0 leaf 0 0.5 0.5\n", 1, "missing spn header")

    def test_duplicate_header(self):
        expect_parse_error("spn 1\nspn 1\n", 2, "duplicate spn header")

    def test_header_count_mismatch_points_at_the_header(self):
        expect_parse_error("spn 3\nnode 0 leaf 0 0.5 0.5\n", 1, "declares 3")

    def test_duplicate_node_id(self):
        doc = "spn 2\nnode 0 sum\nnode 0 prod\n"
        expect_parse_error(doc, 3, "duplicate node id 0")

    def test_unknown_node_kind(self):
        expect_parse_error("spn 1\nnode 0 max\n", 2, "unknown node kind")

    def test_unknown_directive(self):
        expect_parse_error("spn 1\nnode 0 leaf 0 .5 .5\nvertex 1\n", 3, "unknown directive")

    def test_leaf_needs_two_probabilities(self):
        expect_parse_error("spn 1\nnode 0 leaf 0 1.0\n", 2, "at least two")

    def test_bad_number(self):
        expect_parse_error("spn 1\nnode 0 leaf 0 0.5 half\n", 2, "must be a number")

    def test_non_finite_probability(self):
        expect_parse_error("spn 1\nnode 0 leaf 0 0.5 inf\n", 2, "finite")

    def test_bad_integer(self):
        expect_parse_error("spn x\n", 1, "must be an integer")

    def test_edge_to_undeclared_node(self):
        doc = "spn 2\nnode 0 prod\nnode 1 leaf 0 .5 .5\nedge 0 1\nedge 0 9\n"
        expect_parse_error(doc, 5, "undeclared node 9")

    def test_edge_from_leaf(self):
        doc = "spn 2\nnode 0 leaf 0 .5 .5\nnode 1 leaf 0 .5 .5\nedge 0 1\n"
        expect_parse_error(doc, 4, "leaf nodes cannot have children")

    def test_sum_edge_requires_weight(self):
        doc = "spn 2\nnode 0 sum\nnode 1 leaf 0 .5 .5\nedge 0 1\n"
        expect_parse_error(doc, 4, "require a weight")

    def test_product_edge_rejects_weight(self):
        doc = "spn 2\nnode 0 prod\nnode 1 leaf 0 .5 .5\nedge 0 1 0.5\n"
        expect_parse_error(doc, 4, "must not carry a weight")

    def test_childless_sum_is_reported_at_its_declaration(self):
        doc = "spn 3\nnode 0 prod\nnode 1 sum\nnode 2 leaf 0 .5 .5\nedge 0 2\n"
        expect_parse_error(doc, 3, "sum node 1 has no children")

    def test_childless_product(self):
        doc = "spn 2\nnode 0 prod\nnode 1 leaf 0 .5 .5\nroot 1\n"
        expect_parse_error(doc, 2, "product node 0 has no children")

    def test_duplicate_root(self):
        doc = "spn 1\nnode 0 leaf 0 .5 .5\nroot 0\nroot 0\n"
        expect_parse_error(doc, 4, "duplicate root")

    def test_unknown_root(self):
        doc = "spn 1\nnode 0 leaf 0 .5 .5\nroot 5\n"
        expect_parse_error(doc, 3, "root 5 is not a declared node")

    def test_leaf_cardinality_conflict_points_at_the_later_leaf(self):
        doc = (
            "spn 3\n"
            "node 0 prod\n"
            "node 1 leaf 0 0.5 0.5\n"
            "node 2 leaf 0 0.2 0.3 0.5\n"
            "edge 0 1\nedge 0 2\n"
        )
        expect_parse_error(doc, 4, "cardinality")

    def test_variable_gap(self):
        doc = "spn 1\nnode 0 leaf 1 0.5 0.5\n"
        expect_parse_error(doc, 1, "cover 0..n-1")


#: Where ``str.splitlines`` breaks a line ("\r\n" is one break), and the other
#: characters where ``str.split`` breaks a token.
LINE_BREAKS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]
SPACES = [
    " ", "\t", "\x1f", "\xa0", "\u1680", *map(chr, range(0x2000, 0x200B)), "\u202f", "\u205f",
    "\u3000",
]


@functools.cache
def sat300_document() -> str:
    """The satisfiable two-clause formula amplified 300 times, serialized: 42603
    lines and 908887 characters, so the parser reads it in several blocks."""
    formula = CnfFormula(4, ((-1, 2, -3), (-1, 3, 4)))
    return serialize_spn(amplify(cnf_to_spn(formula), 300).network)


class TestLinesAndTokens:
    """``parse_spn`` splits lines as ``str.splitlines``, tokens as ``str.split``,
    and drops everything from ``#`` to the end of its line."""

    def test_the_character_lists_are_complete(self):
        chars = list(map(chr, range(sys.maxunicode + 1)))
        breaks = set(LINE_BREAKS) - {"\r\n"}
        assert {c for c in chars if len(f"a{c}b".splitlines()) == 2} == breaks
        assert {c for c in chars if c.isspace()} == set(SPACES) | breaks

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=map(repr, LINE_BREAKS))
    def test_every_line_break_ends_a_line(self, brk):
        lines = MIXTURE_DOC.splitlines()
        assert parse_spn(brk.join(lines)).nodes == parse_spn(MIXTURE_DOC).nodes
        lines[10] = "edge 0 9 0.2"  # the first edge
        expect_parse_error(brk.join(lines) + brk, 11, "edge to undeclared node 9")
        lines[7] = "node 5 leaf 0 0.1 0.9 0.0"
        expect_parse_error(brk.join(lines), 8, "(line 7 says 2)")

    def test_a_document_with_every_line_break(self):
        lines = MIXTURE_DOC.splitlines()
        breaks = LINE_BREAKS * 2
        doc = "".join(line + brk for line, brk in zip(lines, breaks))
        assert parse_spn(doc).nodes == parse_spn(MIXTURE_DOC).nodes
        for k in (1, 10, 19):
            edited = lines[:k] + ["vertex 1"] + lines[k + 1 :]
            doc = "".join(line + brk for line, brk in zip(edited, breaks))
            expect_parse_error(doc, k + 1, "unknown directive 'vertex'")
        # "\r" then "\n" is one break, but "\n" then "\r" is two.
        expect_parse_error("spn 1\n\rnode 0 sum\r\nnode 0 prod\n", 4, "duplicate node id 0")

    @pytest.mark.parametrize("space", SPACES, ids=map(repr, SPACES))
    def test_every_space_separates_tokens(self, space):
        doc = MIXTURE_DOC.replace(" ", space)
        assert parse_spn(doc).nodes == parse_spn(MIXTURE_DOC).nodes
        expect_parse_error(f"spn{space}1\nnode 0 leaf{space}0 0.5\n", 2, "at least two")

    def test_non_ascii_spaces(self):
        doc = "spn 1\nnode\xa00 leaf 0\u30000.25 0.75\n"
        assert parse_spn(doc).nodes[0].distribution == (0.25, 0.75)
        expect_parse_error("spn 1\nnode 0 leaf 0 0.5\xa0x\n", 2, "got 'x'")

    def test_comments_end_at_any_line_break(self):
        doc = (
            "spn 2#count\u2028node 0 prod # edge 0 9\r"
            "node 1 leaf 0 0.5 0.5#node 2 sum\nedge 0 1 #\n# root 5\n"
        )
        net = parse_spn(doc)
        assert net.nodes[0].children == (1,)
        assert net.root == 0
        expect_parse_error(doc.replace("edge 0 1 #", "edge 0 1 0.5 #"), 4, "must not carry")

    def test_integer_spellings(self):
        net = parse_spn("spn 2\nnode 1_0 prod\nnode \u0663 leaf 0 0.5 0.5\nedge 10 3\nroot +10\n")
        assert set(net.nodes) == {10, 3}
        assert net.nodes[10].children == (3,)
        assert net.root == 10

    def test_negative_and_huge_ids_round_trip(self):
        big = 10**20
        doc = (
            f"spn 3\nnode -7 sum\nnode {big} leaf 0 0.5 0.5\nnode {-big} leaf 0 0.1 0.9\n"
            f"edge -7 {-big} 0.25\nedge -7 {big} 0.75\nroot -7\n"
        )
        net = parse_spn(doc)
        assert net.nodes[-7].children == (-big, big)
        assert net.root == -7
        text = serialize_spn(net)
        assert [line.split()[1] for line in text.splitlines()[1:4]] == [f"{-big}", "-7", f"{big}"]
        assert parse_spn(text).nodes == net.nodes
        edited = doc.replace(f"edge -7 {big}", f"edge -7 {big + 1}")
        expect_parse_error(edited, 6, f"undeclared node {big + 1}")
        expect_parse_error(doc.replace("leaf 0 0.5", f"leaf {big} 0.5"), 1, "cover 0..n-1")

    @pytest.mark.parametrize(
        "line, text, message",
        [
            (1, "spn x", "node count must be an integer, got 'x'"),
            (1, "spn 21300", "header declares 21300 nodes, found 21301"),
            (3090, "node 3088 leaf 174 0 x", "probability must be a number, got 'x'"),
            (
                3090,
                "node 3088 leaf 174 0 1 0.5",
                "leaf disagrees on the cardinality of variable 174 (line 3060 says 2)",
            ),
            # The last line of the first 2**18-character block, and the first of the second.
            (
                11905,
                "node 11903 leaf 671 0 1 0.5",
                "leaf disagrees on the cardinality of variable 671 (line 11865 says 2)",
            ),
            (11906, "node 11904 prod 0.5", "unexpected tokens after prod node"),
            (30000, "edge 8516 99999", "edge to undeclared node 99999"),
            (42603, "root 0 0", "expected: root <id>"),
            (42603, "root 21301", "root 21301 is not a declared node"),
        ],
    )
    def test_errors_in_a_document_of_many_blocks(self, line, text, message):
        lines = sat300_document().splitlines()
        lines[line - 1] = text
        with pytest.raises(ParseError) as excinfo:
            parse_spn("\n".join(lines) + "\n")
        assert excinfo.value.line == line
        assert str(excinfo.value) == f"line {line}: {message}"

    def test_one_wide_space_in_one_block(self):
        # That block is read from 32-bit code points, the others from bytes.
        doc = sat300_document()
        at = doc.index(" ", 2 * _BLOCK + 1000)
        net, plain = parse_spn(f"{doc[:at]}\xa0{doc[at + 1 :]}"), parse_spn(doc)
        assert net.nodes == plain.nodes
        assert net.root == plain.root and net.variables == plain.variables


#: The first digit of three non-ASCII decimal digit runs, which ``int`` and ``float`` read.
WIDE_ZEROS = ("\u0660", "\u0966", "\uff10")
DIGITS = "0123456789"


def respelled(draw, sign: str, digits: str) -> str:
    """``sign`` and ``digits``, maybe with leading zeros, one ``_`` or non-ASCII digits."""
    digits = "0" * draw(st.integers(0, 2)) + digits
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(digits) - 1))
        if digits[cut - 1] in DIGITS and digits[cut] in DIGITS:
            digits = f"{digits[:cut]}_{digits[cut:]}"
    if draw(st.integers(0, 4)) == 0:
        zero = ord(draw(st.sampled_from(WIDE_ZEROS)))
        digits = "".join(chr(zero + int(d)) if d in DIGITS else d for d in digits)
    return sign + digits


@st.composite
def integer_token(draw, value: int) -> str:
    """A spelling of ``value`` that ``int`` reads."""
    signs = ["", "", "+", "-"] if value == 0 else ["", "+"]  # "-0" is 0
    sign = "-" if value < 0 else draw(st.sampled_from(signs))
    return respelled(draw, sign, str(abs(value)))


@st.composite
def float_token(draw) -> str:
    """A finite number as ``float`` reads it: a mantissa of up to 30 digits, 16, 17
    or 30 of them, or one just below or above 2**53, with or without a point and an
    exponent; or one of a few short forms.
    """
    fixed = ["0", "-0", "+0", "-0.0", ".5", "5.", "-.5", "+5.", "5e-1", "1E2", "0.1", "1"]
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(fixed))
    mantissa = draw(
        st.text(DIGITS, min_size=1, max_size=30)
        | st.sampled_from([16, 17, 30]).flatmap(lambda k: st.text(DIGITS, min_size=k, max_size=k))
        | st.integers(2**53 - 3, 2**53 + 3).map(str)
    )
    if draw(st.booleans()):
        point = draw(st.integers(0, len(mantissa)))
        mantissa = f"{mantissa[:point]}.{mantissa[point:]}"
    if draw(st.integers(0, 5)) == 0:
        mantissa += draw(st.sampled_from(["e", "E"])) + str(draw(st.integers(-20, 20)))
    return respelled(draw, draw(st.sampled_from(["", "", "+", "-"])), mantissa)


@st.composite
def spelled_document(draw) -> tuple:
    """The lines of a document of a sum over leaves, each number drawn in one of its
    spellings; where the first block is to end among them (see ``spread``); the ids;
    each leaf's variable and probability tokens; and the sum's weight tokens.
    """
    leaves = draw(st.integers(2, 5))
    ids = draw(
        st.lists(
            st.integers(-(10**25), 10**25) | st.integers(2**63 - 2, 2**63 + 2),
            min_size=leaves + 1,
            max_size=leaves + 1,
            unique=True,
        )
    )
    spell = lambda value: draw(integer_token(value))  # noqa: E731
    probs = [[draw(float_token()) for _ in range(2)] for _ in range(leaves)]
    weights = [draw(float_token()) for _ in range(leaves)]
    lines = [f"node {spell(ids[0])} sum"]
    for k, leaf in enumerate(ids[1:]):
        lines.append(f"node {spell(leaf)} leaf {spell(k % 2)} {' '.join(probs[k])}")
    for leaf, weight in zip(ids[1:], weights):
        lines.append(f"edge {spell(ids[0])} {spell(leaf)} {weight}")
    # A weight of 2 keeps the sum's total away from 1, which would renormalize it.
    lines += [f"edge {spell(ids[0])} {spell(ids[1])} 2", f"root {spell(ids[0])}"]
    lines.insert(0, f"spn {spell(leaves + 1)}")
    into = draw(st.integers(0, sum(map(len, lines[1:]))))
    return lines, into, ids, [(k % 2, p) for k, p in enumerate(probs)], weights


def spread(lines: list[str], into: int) -> str:
    """``lines`` as a document whose first block ends ``into`` characters after the header."""
    fill = _BLOCK - len(lines[0]) - 1 - into
    return "\n".join([lines[0], " " * fill, *lines[1:]]) + "\n"


class TestNumberSpellings:
    """Each number reads as ``int`` or ``float`` reads its token, bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(spelled_document())
    def test_numbers_read_as_int_and_float_do(self, drawn):
        lines, into, ids, leaves, weights = drawn
        net = parse_spn(spread(lines, into))
        assert len(net.nodes) == int(lines[0].split()[1])  # the header's count
        assert sorted(net.nodes) == sorted(ids) and net.root == ids[0]
        for leaf, (var, probs) in zip(ids[1:], leaves):
            node = net.nodes[leaf]
            assert node.variable == var
            assert [p.hex() for p in node.distribution] == [float(t).hex() for t in probs]
        expected = [float(t).hex() for t in weights] + [(2.0).hex()]
        assert [w.hex() for w in net.nodes[ids[0]].weights] == expected

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(spelled_document(), st.sampled_from(["inf", "-inf", "nan", "+NaN", "Infinity", "1e999"]))
    def test_infinite_and_nan_numbers_are_refused(self, drawn, token):
        lines, into, *_ = drawn
        for k, what, column in ((2, "probability", 4), (len(lines) - 3, "weight", 3)):
            words = lines[k].split()
            words[column] = token
            edited = [*lines[:k], " ".join(words), *lines[k + 1 :]]
            message = f"{what} must be finite, got {token!r}"
            expect_parse_error(spread(edited, into), k + 2, message)


@st.composite
def drawn_network(draw):
    """A ``random_spn`` network, or the MIS or CNF reduction of a drawn instance."""
    kind = draw(st.sampled_from(["random", "mis", "cnf"]))
    n = draw(st.integers(1 if kind != "cnf" else 3, 7))
    if kind == "random":
        height = draw(st.integers(1 if n > 1 else 0, 5))
        return random_spn(n, max_height=height, seed=draw(st.integers(0, 2**32)))
    if kind == "mis":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return mis_to_spn(Graph.from_edges(n, [p for p in pairs if draw(st.booleans())])).network
    clauses = []
    for _ in range(draw(st.integers(1, 5))):
        variables = draw(st.permutations(range(1, n + 1)))[:3]
        clauses.append(tuple(v if draw(st.booleans()) else -v for v in variables))
    return cnf_to_spn(CnfFormula(n, tuple(clauses))).network


class TestNetworkRoundTrip:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(drawn_network())
    def test_round_trip_is_the_identity(self, net):
        again = parse_spn(serialize_spn(net))
        assert again.nodes == net.nodes
        assert again.root == net.root
        assert again.variables == net.variables

    def every_network(self):
        yield parse_spn(MIXTURE_DOC)
        yield mis_to_spn(parse_graph("graph 4\nedge 1 2\nedge 2 3\nedge 3 4\n")).network
        yield cnf_to_spn(parse_dimacs_cnf("p cnf 4 2\n-1 2 -3 0\n-1 3 4 0\n")).network
        for seed in (0, 1, 2, 3):
            yield random_spn(1 + seed * 2, max_height=4, seed=seed)

    def test_round_trip_preserves_structure(self):
        for net in self.every_network():
            again = parse_spn(serialize_spn(net))
            assert again.root == net.root
            assert set(again.nodes) == set(net.nodes)
            for nid, node in net.nodes.items():
                assert type(again.nodes[nid]) is type(node)
                assert again.nodes[nid].children == node.children

    def test_round_trip_preserves_every_value(self):
        for net in self.every_network():
            again = parse_spn(serialize_spn(net))
            for assignment in all_assignments(net):
                a = evaluate(net, assignment).linear
                b = evaluate(again, assignment).linear
                assert b == pytest.approx(a, rel=1e-12, abs=1e-300)

    def test_seventeen_digits_survive(self):
        p = 1 / 3
        doc = f"spn 1\nnode 0 leaf 0 {1 - p!r} {p!r}\n"
        net = parse_spn(doc)
        assert net.nodes[0].distribution[1] == p
        again = parse_spn(serialize_spn(net))
        assert again.nodes[0].distribution == net.nodes[0].distribution

    def test_serialized_form_is_stable(self):
        text = serialize_spn(parse_spn(MIXTURE_DOC))
        assert serialize_spn(parse_spn(text)) == text


class TestGraphFormat:
    def test_golden(self, diamond_graph):
        doc = "graph 4\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 1\nedge 1 3\n"
        assert parse_graph(doc) == diamond_graph

    def test_round_trip(self, diamond_graph):
        assert parse_graph(serialize_graph(diamond_graph)) == diamond_graph

    def test_comments_allowed(self):
        g = parse_graph("# a path\ngraph 3\nedge 1 2  # first\nedge 2 3\n")
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_duplicate_edge_warns_and_collapses(self):
        with pytest.warns(UserWarning, match="duplicate edge"):
            g = parse_graph("graph 3\nedge 1 2\nedge 2 1\n")
        assert g.edges == frozenset({(0, 1)})

    def test_errors(self):
        for doc, line, fragment in [
            ("edge 1 2\n", 1, "missing graph header"),
            ("graph 3\ngraph 3\n", 2, "duplicate graph header"),
            ("graph 3\nedge 1 1\n", 2, "self loop"),
            ("graph 3\nedge 0 2\n", 2, "leaves the range"),
            ("graph 3\nedge 1 4\n", 2, "leaves the range"),
            ("graph 3\nnode 1\n", 2, "unknown directive"),
            ("graph -1\n", 1, "nonnegative"),
            ("", 1, "missing graph header"),
        ]:
            with pytest.raises(ParseError) as excinfo:
                parse_graph(doc)
            assert excinfo.value.line == line
            assert fragment in str(excinfo.value)


class TestDimacsFormat:
    def test_golden(self, two_clause_formula):
        doc = "c example\np cnf 4 2\n-1 2 -3 0\n-1 3 4 0\n"
        assert parse_dimacs_cnf(doc) == two_clause_formula

    def test_clauses_may_span_lines(self, two_clause_formula):
        doc = "p cnf 4 2\n-1 2\n-3 0 -1\n3 4 0\n"
        assert parse_dimacs_cnf(doc) == two_clause_formula

    def test_comment_lines_start_with_c(self):
        doc = "c top\np cnf 3 1\nc middle\n1 2 3 0\n"
        assert parse_dimacs_cnf(doc).clauses == ((1, 2, 3),)

    def test_errors(self):
        for doc, line, fragment in [
            ("1 2 3 0\n", 1, "before the problem line"),
            ("p cnf 3 1\np cnf 3 1\n", 2, "duplicate problem line"),
            ("p sat 3 1\n", 1, "expected: p cnf"),
            ("p cnf 0 1\n", 1, "must be positive"),
            ("p cnf 3 1\n1 2 0\n", 2, "exactly 3 literals"),
            ("p cnf 3 1\n1 2 3 4 0\n", 2, "exceeds variable count"),
            ("p cnf 3 1\n1 2 3\n", 2, "unterminated clause"),
            ("p cnf 3 2\n1 2 3 0\n", 2, "expected 2 clauses"),
            ("p cnf 3 1\n1 2 3 0\n1 2 3 0\n", 3, "more clauses"),
            ("p cnf 3 1\n1 1 2 0\n", 2, "repeats"),
            ("", 1, "missing problem line"),
        ]:
            with pytest.raises(ParseError) as excinfo:
                parse_dimacs_cnf(doc)
            assert excinfo.value.line == line, doc
            assert fragment in str(excinfo.value), doc


class TestEvidenceFormat:
    def test_golden(self):
        assert parse_evidence("0=1,3=0, 2=1") == {0: 1, 3: 0, 2: 1}
        assert parse_evidence("") == {}
        assert parse_evidence("  ") == {}
        assert parse_evidence("5=2") == {5: 2}

    def test_errors(self):
        for text in ["0", "a=1", "0=b", "-1=0", "0=-1", "0=1,0=0"]:
            with pytest.raises(ParseError):
                parse_evidence(text)


# Tokens that fuzzed documents are made of.  As a replacement, the empty
# token drops one and the last splices in three numbers.
EDIT_TOKENS = [
    *map(str, range(-1, 10)), "0.5", "0.25", "-0.0", "1e-300", "inf", "nan", "1e999",
    "sum", "prod", "leaf", "x", "0=1", "1=0,2=1", ",", "", "0.2 0.3 0.5",
]
TOKENS = st.sampled_from(EDIT_TOKENS)
# Each format's directives, each with a plausible token count; the first is the header.
FORMATS = st.sampled_from(
    [
        [("spn", 1, 1), ("node", 2, 5), ("edge", 2, 3), ("root", 1, 1)],
        [("graph", 1, 1), ("edge", 2, 2)],
        [("p cnf", 2, 2), ("1", 1, 4), ("-2", 1, 4), ("c", 0, 2)],
    ]
)


@st.composite
def token_document(draw) -> str:
    """One format's header, then lines of that format's directives and random tokens.

    Keeping to one format gets the parsers past their first checks.
    """
    directives = draw(FORMATS)
    body = draw(st.lists(st.sampled_from(directives), max_size=12))
    lines = []
    for head, low, high in [directives[0], *body]:
        lines.append(" ".join([head, *draw(st.lists(TOKENS, min_size=low, max_size=high))]))
    return "\n".join(lines)


def edit(lines: list[str], k: int, action: str, i: int = 0, token: str = "") -> list[str]:
    """``lines`` with line ``k`` deleted, duplicated, or with its token ``i`` replaced.

    ``i`` wraps around the line's tokens.
    """
    if action == "delete":
        return lines[:k] + lines[k + 1 :]
    if action == "duplicate":
        return lines[: k + 1] + lines[k:]
    tokens = lines[k].split() or [""]
    tokens[i % len(tokens)] = token
    return lines[:k] + [" ".join(tokens)] + lines[k + 1 :]


def single_edits(doc: str):
    """Every document one edit of ``doc`` away, with replacements from ``EDIT_TOKENS``."""
    lines = doc.splitlines()
    for k, line in enumerate(lines):
        yield edit(lines, k, "delete")
        yield edit(lines, k, "duplicate")
        for i in range(len(line.split())):
            for token in EDIT_TOKENS:
                yield edit(lines, k, "replace", i, token)


@st.composite
def mutated_mixture(draw) -> str:
    """``MIXTURE_DOC`` after one to three random edits."""
    lines = MIXTURE_DOC.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        lines = edit(lines, k, action, draw(st.integers(0, 5)), draw(TOKENS))
    return "\n".join(lines) + "\n"


def parses_or_raises_parse_error(text: str) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # duplicate graph edges
        for parse in (parse_spn, parse_graph, parse_dimacs_cnf, parse_evidence):
            try:
                parse(text)
            except ParseError:
                pass


class TestParserFuzzing:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.one_of(st.text(), token_document(), mutated_mixture()))
    def test_parsers_fail_only_with_parse_error(self, text):
        parses_or_raises_parse_error(text)

    # Exhaustive where random draws are sparse: most single edits that break
    # one consistency check are each one draw in thousands.
    @pytest.mark.parametrize(
        "doc",
        [
            MIXTURE_DOC,
            "graph 4\nedge 1 2\nedge 2 3\nedge 1 3\n",
            "p cnf 4 2\n-1 2 -3 0\n-1 3 4 0\n",
        ],
        ids=["spn", "graph", "cnf"],
    )
    def test_every_single_edit(self, doc):
        for lines in single_edits(doc):
            parses_or_raises_parse_error("\n".join(lines) + "\n")
