"""Graph file formats.

Plain text: '#' starts a comment, the first data line is "n <N>", each
following data line is an edge "<u> <v>" with 0-based ids.  The directive
comment "# label <id> <text>" carries an optional vertex label, so the text
format round-trips every label that is one line of text, not empty and
without leading or trailing whitespace; dumps_text refuses any other label,
which only the JSON format carries.  A vertex takes at most one directive.

Structured: a JSON object {"n": ..., "edges": [[u, v], ...], "labels": [...]}
(labels optional, each a string), so JSON carries every string label.
Loading auto-detects the format from the first non-whitespace character.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import GraphParseError, MBResolveError
from .graph import Graph, build_graph


def loads(text: str) -> Graph:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _loads_json(text)
    return _loads_text(text)


def load(path: str | Path) -> Graph:
    return loads(Path(path).read_text(encoding="utf-8"))


def _loads_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphParseError('JSON graph needs "n" and "edges" fields')
    n, edges, labels = obj["n"], obj["edges"], obj.get("labels")
    if not _is_int(n):
        raise GraphParseError(f'"n" must be an integer, got {n!r}')
    if not isinstance(edges, list):
        raise GraphParseError(f'"edges" must be a list, got {edges!r}')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise GraphParseError(f"an edge must be a list of two integers, got {e!r}")
    if labels is not None:
        if not isinstance(labels, list):
            raise GraphParseError(f'"labels" must be a list, got {labels!r}')
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise GraphParseError(f'"labels" must hold strings, got {json.dumps(label)} at index {i}')
    return build_graph(n, [tuple(e) for e in edges], labels=labels)


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _loads_text(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("label "):
                parts = body.split(maxsplit=2)
                if len(parts) != 3 or not parts[1].isdecimal():
                    raise GraphParseError(f"malformed label directive: {line!r}", line=lineno)
                vertex = int(parts[1])
                if vertex in labels:
                    raise GraphParseError(f"a second label directive for vertex {vertex}: {line!r}", line=lineno)
                labels[vertex] = parts[2]
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n" or not fields[1].isdecimal():
                raise GraphParseError(f'first data line must be "n <count>", got {line!r}', line=lineno)
            n = int(fields[1])
            continue
        if len(fields) != 2:
            raise GraphParseError(f'edge line must be "<u> <v>", got {line!r}', line=lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"edge endpoints must be integers, got {line!r}", line=lineno) from None
        edges.append((u, v))
    if n is None:
        raise GraphParseError('missing "n <count>" line')
    label_list = None
    if labels:
        outside = sorted(i for i in labels if i >= n)
        if outside:
            raise GraphParseError(f"label ids outside 0..{n - 1}: {outside}")
        # a generator: build_graph reads it only once the edges connect all n vertices
        label_list = (labels.get(i, f"v{i}") for i in range(n))
    return build_graph(n, edges, labels=label_list)


def dumps_text(g: Graph, header_comments: list[str] | None = None) -> str:
    """The text format of g; a label it cannot carry (see the module docstring) raises MBResolveError."""
    lines = [f"# {c}" for c in (header_comments or [])]
    if g.labels is not None:
        for i, lab in enumerate(g.labels):
            if not lab or lab != lab.strip() or len(lab.splitlines()) > 1:
                raise MBResolveError(f"vertex {i}'s label {lab!r} is empty, padded or not one line: "
                                     "the text format cannot carry it; use JSON")
        lines += [f"# label {i} {lab}" for i, lab in enumerate(g.labels)]
    lines.append(f"n {g.n}")
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def dumps_json(g: Graph) -> str:
    obj: dict = {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    return json.dumps(obj, indent=2) + "\n"


def dump(g: Graph, path: str | Path, *, fmt: str = "text", header_comments: list[str] | None = None) -> None:
    if fmt == "text":
        content = dumps_text(g, header_comments)
    elif fmt == "json":
        content = dumps_json(g)
    else:
        raise MBResolveError(f"unknown graph format {fmt!r}")
    Path(path).write_text(content, encoding="utf-8")
