import tracemalloc

import pytest

from mbresolve import graphio
from mbresolve.errors import DisconnectedError, GraphParseError, MBResolveError
from mbresolve.families import FamilySpec, gen_family
from mbresolve.graph import build_graph


def sample_graphs():
    yield gen_family(FamilySpec.make("cycle", n=5))
    yield gen_family(FamilySpec.make("fig1", alpha=2))
    yield build_graph(4, [(0, 1), (1, 2), (2, 3)])  # no labels
    yield build_graph(1, [])


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_identity(self, fmt):
        for g in sample_graphs():
            text = graphio.dumps_text(g) if fmt == "text" else graphio.dumps_json(g)
            back = graphio.loads(text)
            assert back.n == g.n
            assert back.edges == g.edges
            assert back.labels == g.labels

    def test_file_round_trip(self, tmp_path):
        g = gen_family(FamilySpec.make("thm_d"))
        path = tmp_path / "t.graph"
        graphio.dump(g, path, header_comments=["demo"])
        back = graphio.load(path)
        assert (back.n, back.edges, back.labels) == (g.n, g.edges, g.labels)

    def test_autodetect_json(self, tmp_path):
        g = gen_family(FamilySpec.make("star", beta=3))
        path = tmp_path / "s.json"
        graphio.dump(g, path, fmt="json")
        assert graphio.load(path).edges == g.edges


class TestTextFormat:
    def test_comments_and_blanks_skipped(self):
        g = graphio.loads("# a comment\n\nn 3\n0 1\n# mid comment\n1 2\n")
        assert g.n == 3 and g.edge_count == 2

    def test_missing_header(self):
        with pytest.raises(GraphParseError):
            graphio.loads("0 1\n")

    def test_bad_edge_line_reports_line_number(self):
        with pytest.raises(GraphParseError) as exc:
            graphio.loads("n 3\n0 1\n1 two\n")
        assert exc.value.line == 3

    def test_bad_header_line(self):
        with pytest.raises(GraphParseError):
            graphio.loads("m 3\n0 1\n")

    def test_label_directive(self):
        g = graphio.loads("# label 0 hub\n# label 1 tip\nn 2\n0 1\n")
        assert g.labels == ("hub", "tip")

    def test_malformed_label_directive(self):
        with pytest.raises(GraphParseError):
            graphio.loads("# label x hub\nn 2\n0 1\n")

    def test_repeated_label_directive_refused(self):
        with pytest.raises(GraphParseError, match="second label directive for vertex 0") as exc:
            graphio.loads("# label 0 a\n# label 0 b\nn 2\n0 1\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("text", [
        "n \u00b2\n0 1\n",  # "²" is a digit to str.isdigit, but int() rejects it
        "# label \u00b2 hub\nn 2\n0 1\n",
    ])
    def test_superscript_count_or_label_id_rejected(self, text):
        with pytest.raises(GraphParseError):
            graphio.loads(text)

    def test_semantic_errors_propagate(self):
        with pytest.raises(DisconnectedError):
            graphio.loads("n 4\n0 1\n2 3\n")

    @pytest.mark.parametrize("labels", [["", "b"], [" a", "b "], ["a\nb", "c"]], ids=["empty", "padded", "two-lines"])
    def test_label_the_format_cannot_carry_refused(self, labels):
        g = build_graph(2, [(0, 1)], labels=labels)
        assert graphio.loads(graphio.dumps_json(g)).labels == g.labels
        with pytest.raises(MBResolveError, match="vertex 0's label"):
            graphio.dumps_text(g)

    def test_inner_whitespace_in_a_label_round_trips(self):
        g = build_graph(2, [(0, 1)], labels=["a  b", "c\td"])
        assert graphio.loads(graphio.dumps_text(g)).labels == g.labels

    @pytest.mark.parametrize("text", ['{"n": 1000000, "edges": []}', "n 1000000\n0 1\n", "# label 0 a\nn 1000000\n"],
                             ids=["json", "text", "text-labeled"])
    def test_short_edge_list_refused_before_allocating(self, text):
        # fewer than n - 1 edges cannot connect n vertices: no per-vertex structure is built
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedError) as exc:
                graphio.loads(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        message = str(exc.value)
        assert len(message) < 200 and "unreachable" in message, message


class TestJsonFormat:
    def test_minimal_object(self):
        g = graphio.loads('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        assert g.n == 3 and g.labels is None

    def test_invalid_json(self):
        with pytest.raises(GraphParseError):
            graphio.loads("{broken")

    def test_missing_fields(self):
        with pytest.raises(GraphParseError):
            graphio.loads('{"n": 3}')

    @pytest.mark.parametrize("text", [
        '{"n": 2.5, "edges": [[0, 1]]}',
        '{"n": "3", "edges": [[0, 1], [1, 2]]}',
        '{"n": true, "edges": []}',
        '{"n": 2, "edges": [[0, 1]], "labels": "ab"}',
        '{"n": 2, "edges": [[0, true]]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 2, "edges": {"0": 1}}',
        '{"n": 2, "edges": [[0, 1]], "labels": [null, 7]}',
    ], ids=["n-float", "n-string", "n-bool", "labels-string", "endpoint-bool", "edge-triple", "edges-object",
            "label-null"])
    def test_malformed_fields_rejected(self, text):
        with pytest.raises(GraphParseError):
            graphio.loads(text)

    def test_non_string_label_named_by_index(self):
        with pytest.raises(GraphParseError, match="got 7 at index 2"):
            graphio.loads('{"n": 3, "edges": [[0, 1], [1, 2]], "labels": ["a", "b", 7]}')
