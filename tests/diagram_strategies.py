"""Hypothesis strategies for diagrams, policy tables, and data records."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from datetime import date, timedelta
from xml.sax.saxutils import quoteattr

from hypothesis import strategies as st

from padfd import (
    DataRecord,
    Decision,
    Diagram,
    Flow,
    FlowMeta,
    FlowType,
    LogEntry,
    Node,
    NodeType,
    PolicySnapshot,
    SCHEMA_ID,
    SimulationReport,
    Stage,
    StoredRecord,
    StoreState,
    add_flow,
    add_node,
    transform,
)

from helpers import LABELS, PURPOSES, replace


def _choose(draw, *values):
    """One of `values`, all drawn already, shrinking to the first. Unlike
    `st.one_of`, the choices taken do not depend on which is kept:
    Hypothesis discards as invalid an example that needs more choices than
    it allowed, and it allows an early example five times the choices of
    the simplest one from the same start. Nor is it a `.map`, whose spans
    all share one label, so that Hypothesis's span-copy mutations would
    swap draws of unequal lengths."""
    return values[draw(st.integers(0, len(values) - 1))]


def _up_to(draw, make, count: int = 3) -> list:
    """Up to `count` values of `make()`. All `count` are made whether kept
    or not, so the choices taken do not depend on how many are kept.
    Like `_choose`, it is a plain function, not a strategy: the spans of a
    strategy share one label whatever its arguments, and Hypothesis's
    span-copy mutations would swap draws of unequal lengths."""
    made = [make() for _ in range(count)]
    return made[: draw(st.integers(0, count))]


def _shuffled(draw, items: list) -> list:
    """`items` in a drawn order, in one choice: the order's index among
    all orders, read as a mixed-radix number, so every order is reachable
    and the unshuffled one is the simplest. `st.permutations` takes one
    choice per item, and its spans share one label whatever their length."""
    index, left, ordered = draw(st.integers(0, math.factorial(len(items)) - 1)), list(items), []
    while left:
        index, at = divmod(index, len(left))
        ordered.append(left.pop(at))
    return ordered


# Valid XML 1.0 characters only, so every generated string survives the
# draw.io format; the sampled LABELS add newlines and markup characters.
_text = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    min_size=1,
    max_size=12,
)


def _label(draw) -> str | None:
    return _choose(draw, None, draw(st.sampled_from(LABELS)), draw(_text))


_EXTRA_KEYS = ("owner", "dept", "note", "retention", "team")
extras = st.dictionaries(
    st.sampled_from(_EXTRA_KEYS),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0xD7FF), max_size=8),
    max_size=2,
)

_grid = st.integers(min_value=-400, max_value=800)
_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def _position(draw) -> tuple[float, float] | None:
    x, y = (_choose(draw, float(draw(_grid)), draw(_coord)) for _ in range(2))
    return _choose(draw, None, (x, y))

_ID_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-_"
identifiers = st.text(_ID_ALPHABET, min_size=1, max_size=8)
# Characters that extend an id already taken, one at a time, until it is
# free. An id meets at most one taken id per id before it, so 32 reach any
# extension that the at most 28 ids of one diagram can need.
_extensions = st.text(_ID_ALPHABET, min_size=1, max_size=32)


def _unique_ids(draw, count: int) -> list[str]:
    """`count` distinct identifiers, each drawn with its extension, so no
    draw is retried, no example discarded for a collision, and each id
    takes the same number of choices."""
    ids: dict[str, None] = {}
    for _ in range(count):
        new, extension = draw(identifiers), draw(_extensions)
        for char in itertools.cycle(extension):
            if new not in ids:
                break
            new += char
        ids[new] = None
    return list(ids)


def _typed_flow(flow_id, source, source_type, target, target_type, label, deletes):
    if source_type is NodeType.EXT:
        flow_type = FlowType.IN
    elif source_type is NodeType.DB:
        flow_type = FlowType.READ
    elif target_type is NodeType.EXT:
        flow_type = FlowType.OUT
    elif target_type is NodeType.DB:
        flow_type = FlowType.DELETE if deletes else FlowType.STORE
    else:
        flow_type = FlowType.COMP
    return Flow(flow_id, source, target, flow_type, label=label)


# The most of each part `wellformed_diagrams` draws: entities, processes,
# stores, extra wires, and so nodes and wires (two per process, one per
# entity or store left unwired, and the extra ones).
_EXTS, _PROCS, _DBS, _EXTRA_WIRES = 3, 4, 3, 4
_NODES = _EXTS + _PROCS + _DBS
_WIRES = 2 * _PROCS + _EXTS + _DBS + _EXTRA_WIRES


@st.composite
def wellformed_diagrams(draw) -> Diagram:
    """Well-formed business diagrams built constructively: every process
    relays, every entity and store touches a flow, types match endpoints.
    As in `csv_tables`, every part is drawn for the most nodes and wires
    whether it is kept or not, so each diagram takes the same number of
    choices."""
    procs = draw(st.integers(min_value=1, max_value=_PROCS))
    exts = draw(st.integers(min_value=0, max_value=_EXTS))
    dbs = draw(st.integers(min_value=0, max_value=_DBS))
    if procs == 1 and exts == 0 and dbs == 0:
        exts = 1

    # Nodes by index: entities, then processes, then stores.
    kinds = [NodeType.EXT] * exts + [NodeType.PROC] * procs + [NodeType.DB] * dbs
    proc_ids = range(exts, exts + procs)
    others = [i for i, kind in enumerate(kinds) if kind is not NodeType.PROC]

    # Each list is sampled twice over: sampled_from takes no choice from a
    # single option.
    def pick(pool) -> int:
        return draw(st.sampled_from(list(pool) * 2))

    def peers(proc: int) -> list[int]:
        return others + [p for p in proc_ids if p != proc]

    wires: list[tuple[int, int]] = []  # (source, target) node indices
    for slot in range(_PROCS):
        # A slot past the last process draws for the first one.
        proc = proc_ids[slot % procs]
        source, target = pick(peers(proc)), pick(peers(proc))
        if slot < procs:
            wires += [(source, proc), (proc, target)]

    connected = {end for ends in wires for end in ends}
    for slot in range(_EXTS + _DBS):
        proc, inward = pick(proc_ids), draw(st.booleans())
        if slot < len(others) and others[slot] not in connected:
            node = others[slot]
            wires.append((node, proc) if inward else (proc, node))

    extra = []
    for _ in range(_EXTRA_WIRES):
        proc = pick(proc_ids)
        other = pick(peers(proc))
        extra.append((other, proc) if draw(st.booleans()) else (proc, other))
    wires += extra[: draw(st.integers(min_value=0, max_value=_EXTRA_WIRES))]

    ids = _unique_ids(draw, _NODES + _WIRES)
    node_ids, flow_ids = ids[: len(kinds)], ids[len(kinds) :]
    looks = [(_label(draw), _position(draw)) for _ in range(_NODES)]
    flow_parts = [(_label(draw), draw(st.booleans())) for _ in range(_WIRES)]
    diagram = Diagram(stage=Stage.WELLFORMED)
    for node_id, node_type, (label, position) in zip(node_ids, kinds, looks):
        diagram = add_node(diagram, Node(node_id, node_type, label=label, position=position))
    for flow_id, (source, target), (label, deletes) in zip(flow_ids, wires, flow_parts):
        diagram = add_flow(
            diagram,
            _typed_flow(
                flow_id,
                node_ids[source],
                kinds[source],
                node_ids[target],
                kinds[target],
                label,
                deletes,
            ),
        )
    return diagram


# The most nodes and flows `raw_diagrams` draws.
_RAW_NODES, _RAW_FLOWS = 6, 10


@st.composite
def raw_diagrams(draw) -> Diagram:
    """Valid raw diagrams with arbitrary wiring — frequently ill-formed.
    As in `wellformed_diagrams`, every node and flow is drawn whether it is
    kept or not, so each diagram takes the same number of choices."""
    looks = [
        (draw(st.sampled_from((NodeType.EXT, NodeType.PROC, NodeType.DB))), _label(draw))
        for _ in range(_RAW_NODES)
    ]
    ids = _unique_ids(draw, _RAW_NODES + _RAW_FLOWS)
    node_ids, flow_ids = ids[: draw(st.integers(1, _RAW_NODES))], ids[_RAW_NODES:]
    # Sampled twice over: sampled_from takes no choice from a single node.
    ends = st.sampled_from(node_ids * 2)
    kinds = st.sampled_from((FlowType.PF, FlowType.PF, FlowType.PF, FlowType.DF))
    flows = [
        Flow(flow_id, draw(ends), draw(ends), draw(kinds), label=_label(draw)) for flow_id in flow_ids
    ]

    diagram = Diagram(stage=Stage.RAW)
    for node_id, (node_type, label) in zip(node_ids, looks):
        diagram = add_node(diagram, Node(node_id, node_type, label=label))
    for flow in flows[: draw(st.integers(0, _RAW_FLOWS))]:
        diagram = add_flow(diagram, flow)
    return diagram


@st.composite
def _decorated(draw, diagram: Diagram) -> Diagram:
    """Give a random subset of nodes positions and extra attributes. The
    subset is drawn first, so shrinking drops whole decorations."""
    nodes = dict(diagram.nodes)
    chosen = draw(st.lists(st.sampled_from(list(nodes)), unique=True)) if nodes else []
    for node_id in chosen:
        node = nodes[node_id]
        position = node.position if node.position is not None else _position(draw)
        nodes[node_id] = Node(node.id, node.node_type, node.label, node.partner, position, draw(extras))
    return Diagram(stage=diagram.stage, nodes=nodes, flows=dict(diagram.flows))


@st.composite
def any_stage_diagrams(draw) -> Diagram:
    """Diagrams at every lifecycle stage, decorated with positions and
    extra attributes, for serialization round trips."""
    kind = draw(st.sampled_from(("raw", "wellformed", "pa")))
    if kind == "raw":
        diagram = draw(raw_diagrams())
    elif kind == "wellformed":
        diagram = draw(wellformed_diagrams())
    else:
        diagram = transform(draw(wellformed_diagrams()))
    return draw(_decorated(diagram))


# Text that is legal in JSON but outside the XML-safe alphabet above:
# quotes, backslashes, C0 controls, line and paragraph separators, and
# astral (non-BMP) characters, which the JSON writer must escape or pass
# through exactly as the stdlib encoder does.
_json_text = st.text(
    st.one_of(
        st.characters(exclude_categories=("Cs",)),
        st.sampled_from('"\\\x01\x1f\x7f\u2028\u2029\U0001f512'),
    ),
    max_size=12,
)
_any_coord = st.floats(allow_nan=False, allow_infinity=False)

# Clark-notation ``{uri}local`` keys as XML parsers report namespaced
# attributes: the predeclared XML namespace, one of ElementTree's
# well-known URIs, and a dozen others, so that the writer's ns10 and ns11
# prefixes sort before ns2.
_URIS = (
    "http://www.w3.org/XML/1998/namespace",
    "http://purl.org/dc/elements/1.1/",
    *(f"urn:padfd:{index}" for index in range(12)),
    'urn:odd:"&<>',
)
clark_keys = st.builds(
    "{{{}}}{}".format, st.sampled_from(_URIS), st.sampled_from(("lang", "space", "note", "v-1"))
)


@st.composite
def json_text_diagrams(draw) -> Diagram:
    """Diagrams at every stage whose labels, extra attributes and positions
    use the full range JSON can carry; draw.io cannot hold all of them."""
    diagram = draw(any_stage_diagrams())
    # A small pool keeps generation fast on transform outputs of many elements.
    pool = draw(st.lists(_json_text, min_size=1, max_size=6))
    texts = st.sampled_from(pool)
    labels = st.none() | texts
    extras = st.dictionaries(texts | clark_keys, texts, max_size=2)
    nodes = {
        node_id: replace(
            node,
            label=draw(labels),
            position=draw(st.none() | st.tuples(_any_coord, _any_coord)),
            extra=draw(extras),
        )
        for node_id, node in diagram.nodes.items()
    }
    flows = {
        flow_id: replace(flow, label=draw(labels), extra=draw(extras))
        for flow_id, flow in diagram.flows.items()
    }
    return Diagram(stage=diagram.stage, nodes=nodes, flows=flows)


@st.composite
def namespaced_diagrams(draw) -> Diagram:
    """Diagrams at every stage whose extra attributes mix plain keys with
    Clark-notation keys from many namespaces; all of it draw.io can hold."""
    diagram = draw(any_stage_diagrams())
    extras = st.dictionaries(
        st.sampled_from(_EXTRA_KEYS) | clark_keys, st.sampled_from(LABELS[1:]), max_size=3
    )
    return Diagram(
        stage=diagram.stage,
        nodes={k: replace(n, extra=draw(extras)) for k, n in diagram.nodes.items()},
        flows={k: replace(f, extra=draw(extras)) for k, f in diagram.flows.items()},
    )


@st.composite
def crowded_drawings(draw) -> Diagram:
    """Privacy-aware diagrams of several positioned shops whose business
    nodes share one 80 px grid, so the gadgets of neighbouring shops
    compete for the same spots; some generated nodes are pinned to the
    grid as well, and some business nodes are left for layout to place."""
    spot = st.tuples(
        st.integers(min_value=0, max_value=6).map(lambda i: i * 80.0),
        st.integers(min_value=-2, max_value=2).map(lambda j: j * 80.0),
    )
    nodes, flows = [], []
    for shop in range(draw(st.integers(min_value=1, max_value=6))):
        ext, first, second, store = (f"s{shop}-{part}" for part in ("ext", "p1", "p2", "db"))
        for node_id, node_type in (
            (ext, NodeType.EXT),
            (first, NodeType.PROC),
            (second, NodeType.PROC),
            (store, NodeType.DB),
        ):
            nodes.append(Node(node_id, node_type, position=draw(st.none() | spot)))
        for name, source, target, flow_type in (
            ("in", ext, first, FlowType.IN),
            ("comp", first, second, FlowType.COMP),
            ("store", second, store, FlowType.STORE),
            ("read", store, second, FlowType.READ),
            ("out", second, ext, FlowType.OUT),
            ("del", first, store, FlowType.DELETE),
        ):
            flows.append(Flow(f"s{shop}-{name}", source, target, flow_type))
    diagram = Diagram(stage=Stage.WELLFORMED)
    for node in nodes:
        diagram = add_node(diagram, node)
    for flow in flows:
        diagram = add_flow(diagram, flow)
    pa = transform(diagram, shared_log_store=draw(st.booleans()))
    generated = sorted(n for n in pa.nodes if n.startswith("gen-"))
    pinned = draw(st.lists(st.sampled_from(generated), max_size=len(generated) // 4))
    return replace(
        pa, nodes={**pa.nodes, **{n: replace(pa.nodes[n], position=draw(spot)) for n in pinned}}
    )


# --- draw.io documents as found in the wild ------------------------------------------

# Each list of choices below starts with what a readable document may
# hold; a faulty document also draws from the rest, which no reader takes.

# Vertex styles the default map reads as each business kind and as a
# limit, an absent or empty style (draw.io's plain rectangle), and one it
# cannot read.
_VERTEX_STYLES = (
    None,
    "",
    "rounded=0;whiteSpace=wrap;html=1;",
    "ellipse;fillColor=#dae8fc;",
    "shape=datastore;html=1;",
    "shape=cylinder;",
    "rhombus;dfd=limit;",
    "shape=cloud;",
)
_EDGE_STYLES = (None, "edgeStyle=orthogonalEdgeStyle;html=1;", "dashed=1;", "html=1;dfd=limpro;")
_GEOMETRIES = (
    "",
    '<mxGeometry width="120" height="60" as="geometry" />',
    '<mxGeometry x="40" y="-20.5" width="120" height="60" as="geometry" />',
    '<mxGeometry x="1e3" as="geometry" />',
    '<mxGeometry y="7" as="geometry" />',
    '<mxGeometry relative="1" as="geometry" />',
    '<mxGeometry x="abc" y="1" as="geometry" />',
    '<mxGeometry x="nan" y="1" as="geometry" />',
)
_STAGES = ("", ' dfdStage="raw-bdfd"', ' dfdStage="pa-dfd"', ' dfdStage="bogus"')
# Attribute values, all XML characters: markup, quotes, newlines, non-ASCII.
_ATTRIBUTE_TEXT = st.sampled_from(
    ("", "x", "a&b<c>", 'say "hi"', "it's", "two\nlines", "müller Ω")
)
# User attributes draw.io keeps on cells and object wrappers, some of them
# namespaced; on a wrapper, "partner" and "value" collide with attributes
# padfd reads itself.
_USER_ATTRIBUTES = ("owner", "dept", "note", "xml:lang", "dc:title", "ns:v-1", "partner", "value")
_DECLARATIONS = ' xmlns:dc="http://purl.org/dc/elements/1.1/" xmlns:ns="urn:padfd:test"'


def _xml_attributes(attributes) -> str:
    return "".join(f" {name}={quoteattr(value, {chr(10): '&#10;'})}" for name, value in attributes)


def _cell_text(draw, kind: str, cell_id: str | None, vertex_ids: list[str], faulty: bool) -> str:
    """One vertex or edge, its attributes in a drawn order; now and then
    wrapped in an object element that holds some of them. Every part is
    drawn whether it is kept or not, so each cell takes the same number of
    choices."""

    def choose(choices: tuple, good: int):
        # Sampled twice over: sampled_from takes no choice from a single option.
        return draw(st.sampled_from((choices if faulty else choices[:good]) * 2))

    attributes = {"id": cell_id, kind: "1", "parent": "1"}
    if kind == "vertex":
        attributes["style"] = choose(_VERTEX_STYLES, -1)
    else:
        attributes["style"] = draw(st.sampled_from(_EDGE_STYLES))
        for end in ("source", "target"):
            # A readable document without vertices keeps no edge.
            attributes[end] = choose((*vertex_ids, "", "ghost", None), len(vertex_ids) or 1)
    attributes["value"] = _maybe(draw, _ATTRIBUTE_TEXT)
    attributes["partner"] = _maybe(draw, st.sampled_from(("v0", "e1")))
    texts = _up_to(draw, lambda: draw(_ATTRIBUTE_TEXT))
    user = dict(zip(_shuffled(draw, list(_USER_ATTRIBUTES[:6])), texts))
    # Unset attributes hold None and keep their place, so the order is
    # drawn over the same number of slots. Two bit masks over the slots say
    # which a wrapper takes and which of those the inner cell keeps a copy of.
    slots = [*attributes.items(), *user.items(), *[(None, None)] * (3 - len(user))]
    moves, copies = (draw(st.integers(0, 2 ** len(slots) - 1)) for _ in range(2))
    placed = [
        (name, value, moves >> bit & 1, copies >> bit & 1)
        for bit, (name, value) in enumerate(_shuffled(draw, slots))
        if value is not None
    ]
    geometry = choose(_GEOMETRIES, -2)
    # The wrapper takes some attributes, the label under its own name; the
    # inner cell may keep a copy, and then its own wins.
    outer = {("label" if name == "value" else name): value for name, value, moved, _ in placed if moved}
    texts = _up_to(draw, lambda: draw(_ATTRIBUTE_TEXT), 2)
    for name, value in zip(_shuffled(draw, list(_USER_ATTRIBUTES)), texts):
        outer.setdefault(name, value)
    tag = draw(st.sampled_from(("object", "UserObject")))
    if draw(st.integers(0, 3)):
        return f"<mxCell{_xml_attributes((n, v) for n, v, _, _ in placed)}>{geometry}</mxCell>"
    inner = [(name, value) for name, value, moved, copied in placed if not moved or copied]
    cell = f"<mxCell{_xml_attributes(inner)}>{geometry}</mxCell>"
    return f"<{tag}{_xml_attributes(outer.items())}>{cell}</{tag}>"


# The most vertices, edges and skipped cells `drawio_documents` draws.
_VERTICES, _EDGES, _NOTES = 5, 6, 4


@st.composite
def drawio_documents(draw) -> str:
    """One draw.io page as a reader meets it: bare or inside an mxfile,
    with or without a stage, cells in any order, some wrapped in objects,
    with user and namespaced attributes and any geometry. A faulty
    document may also hold unknown stages and styles, unreadable
    coordinates, cells without ids, duplicate ids, and missing or dangling
    endpoints. Every cell is drawn whether it is kept or not, so each
    document takes the same number of choices."""
    faulty = draw(st.booleans())
    vertex_count, edge_count = draw(st.integers(0, _VERTICES)), draw(st.integers(0, _EDGES))
    if not (vertex_count or faulty):
        edge_count = 0  # an edge of a readable document needs a vertex at each end
    vertex_ids = [f"v{index}" for index in range(_VERTICES)]
    edge_ids = [f"e{index}" for index in range(_EDGES)]
    pool = st.sampled_from(("v0", "v1", "e0", None))
    faulty_ids = [draw(st.sampled_from((i, i, None)) | pool) for i in vertex_ids + edge_ids]
    if faulty:
        vertex_ids, edge_ids = faulty_ids[:_VERTICES], faulty_ids[_VERTICES:]
    ends = [cell_id for cell_id in vertex_ids[:vertex_count] if cell_id]
    vertices = [_cell_text(draw, "vertex", cell_id, ends, faulty) for cell_id in vertex_ids]
    edges = [_cell_text(draw, "edge", cell_id, ends, faulty) for cell_id in edge_ids]
    # Cells that are neither vertex nor edge, and a wrapper without a cell,
    # are read past.
    notes = st.sampled_from(('<mxCell id="note" parent="1" />', '<UserObject label="x" />'))
    cells = [*vertices[:vertex_count], *edges[:edge_count], *_up_to(draw, lambda: draw(notes), _NOTES)]
    # Empty slots keep the number of cells ordered, and so of choices, fixed.
    cells += [""] * (_VERTICES + _EDGES + _NOTES - len(cells))
    stage = draw(st.sampled_from(_STAGES if faulty else _STAGES[:-1]))
    page = (
        f'<mxGraphModel{_DECLARATIONS}{stage} grid="1"><root><mxCell id="0" />'
        f'<mxCell id="1" parent="0" />{"".join(_shuffled(draw, cells))}</root></mxGraphModel>'
    )
    if draw(st.booleans()):
        return page
    return f'<mxfile host="test"><diagram id="p" name="Page-1">{page}</diagram></mxfile>'


# --- canonical JSON documents as found in the wild -------------------------------------

# A key is left out of its object when this is drawn for it.
_ABSENT = object()
# Values of the wrong JSON type for any field, an object or a document.
_WRONG_JSON = (None, True, 0, -1.5, 10**400, "", [], {}, ["x"], {"k": "v"})
_NODE_IDS, _FLOW_IDS = ("n0", "n1", "n2"), ("f0", "f1", "f2")
# Text with a lone surrogate, which `json.dumps` writes as a \udXXX escape.
_LONE = ("a\ud800", "\udfff")
# Each key's right values, then wrong values beside those of the wrong
# type: unknown keys, empty, repeated, clashing or dangling ids, unknown
# types, bad positions and an explicit null extra. An explicit null type,
# label, partner or position reads as an absent key, so it is a right value.
_DOCUMENT_FIELDS = {
    "schema": ((SCHEMA_ID,), (_ABSENT, "other/1")),
    "stage": (tuple(stage.value for stage in Stage), (_ABSENT, "nope", ["raw-bdfd"])),
    "surprise": ((_ABSENT,), (1,)),
}
_ID_FAULTS = (_ABSENT, "", "n0", "f0", *_LONE)
_SHARED_FIELDS = {
    "label": ((_ABSENT, None, "x", "two\nlines", "\xe9", "\U0001f512"), _LONE),
    "partner": ((_ABSENT, None, "n0", "f1", "gen-9"), _LONE),
    "extra": (
        (_ABSENT, {}, {"owner": "x"}, {"{urn:x}k": "\U0001f512"}),
        (None, {"k": 5}, {"k": None}, {"\ud800": "v"}, {"k": "\udc00"}),
    ),
    "colour": ((_ABSENT,), ("red",)),
}
_NODE_FIELDS = {
    "type": ((_ABSENT, None, *(kind.value for kind in NodeType)), ("nope", "limpro")),
    "position": (
        (_ABSENT, None, [0, 0], [-12.5, 1e6], [3, 4.0]),
        ([1, 2, 3], [1], [True, False], ["1", 2], [float("nan"), 0], [0, float("-inf")], [10**400, 0]),
    ),
    **_SHARED_FIELDS,
}
_FLOW_FIELDS = {
    "type": ((_ABSENT, None, *(kind.value for kind in FlowType)), ("nope", "ext")),
    **_SHARED_FIELDS,
}
_END_FAULTS = (_ABSENT, "ghost", "f0", *_LONE)


def _faulted(draw, value, bad: tuple):
    """`value`, or one time in 32 one of `bad` or of the wrong JSON type,
    so that a document holds about one fault, and often none. Both choices
    are drawn either way."""
    wrong, fault = draw(st.sampled_from(bad + _WRONG_JSON)), not draw(st.integers(0, 31))
    return wrong if fault else value


def _json_object(draw, fields: dict) -> dict:
    """A value for each key of `fields`, drawn from its right values and
    faulted; the key is left out where `_ABSENT` is drawn."""
    entry = {}
    for key, (good, bad) in fields.items():
        # Sampled twice over: sampled_from takes no choice from a single value.
        value = _faulted(draw, draw(st.sampled_from(good * 2)), bad)
        if value is not _ABSENT:
            entry[key] = value
    return entry


@st.composite
def canonical_documents(draw) -> str | bytes:
    """Canonical JSON as a reader meets it, as text or UTF-8 bytes, with
    non-ASCII characters escaped or not. Any key, element or the document
    itself may now and then take a wrong value. Every element is drawn
    whether it is kept or not, so each document takes the same number of
    choices."""
    node_count, flow_count = draw(st.integers(0, len(_NODE_IDS))), draw(st.integers(0, len(_FLOW_IDS)))
    ends = (_NODE_IDS[: max(node_count, 1)], _END_FAULTS)

    def elements(ids: tuple, fields: dict, count: int) -> list:
        objects = [_json_object(draw, {"id": ((i,), _ID_FAULTS), **fields}) for i in ids]
        return [_faulted(draw, entry, ()) for entry in objects][:count]

    doc = _json_object(draw, _DOCUMENT_FIELDS)
    doc["nodes"] = _faulted(draw, elements(_NODE_IDS, _NODE_FIELDS, node_count), ())
    # A flow's right ends are nodes of the document, so it keeps none without them.
    flow_fields = {"source": ends, "target": ends, **_FLOW_FIELDS}
    doc["flows"] = _faulted(draw, elements(_FLOW_IDS, flow_fields, flow_count if node_count else 0), ())
    text = json.dumps(_faulted(draw, doc, ()), ensure_ascii=draw(st.booleans()))
    return _choose(draw, text, text.encode("utf-8", "surrogatepass"))


# --- diagrams for the DOT writer ---------------------------------------------------------

# Ids and labels DOT must quote: quotes, backslashes, newlines, non-ASCII
# and astral text.
_dot_text = st.text(
    st.sampled_from('ab"\\\n é→\U0001f512') | st.characters(exclude_categories=("Cs",)),
    min_size=1,
    max_size=6,
)


def _maybe(draw, strategy):
    """None or a value of `strategy`, in the same number of choices."""
    value = draw(strategy)
    return None if draw(st.booleans()) else value


@st.composite
def dot_diagrams(draw) -> Diagram:
    """Diagrams of any typed or untyped nodes and flows whose ids and
    labels are any text, labelled or not, now and then with a lone
    surrogate; a flow may name an endpoint that is not a node, which only
    the API can build. As in `csv_tables`, every part is drawn whether it
    is kept or not, and repeated texts and ids are dropped, not redrawn."""
    drawn = [draw(_dot_text) for _ in range(6)]
    pool = list(dict.fromkeys(drawn[: draw(st.integers(1, 6))]))
    if not draw(st.integers(0, 9)):
        pool.append("x\ud800")  # a lone surrogate, which no writer takes
    # Each list is sampled twice over: sampled_from takes no choice from a
    # single option, and the number of choices would vary with the pool.
    texts = st.sampled_from(pool * 2)
    picked = [draw(texts) for _ in range(5)]
    node_ids = list(dict.fromkeys(picked[: draw(st.integers(0, 5))]))
    looks = [(_maybe(draw, st.sampled_from(NodeType)), _maybe(draw, texts)) for _ in range(5)]
    nodes = {node_id: Node(node_id, *look) for node_id, look in zip(node_ids, looks)}
    ends = st.sampled_from((node_ids or pool) * 2) | texts
    kinds = st.sampled_from(FlowType)
    flows = [
        Flow(f"f{index}", draw(ends), draw(ends), _maybe(draw, kinds), _maybe(draw, texts))
        for index in range(6)
    ]
    flows = {flow.id: flow for flow in flows[: draw(st.integers(0, 6))]}
    return Diagram(draw(st.sampled_from(Stage)), nodes, flows)


dates = st.dates(min_value=date(2019, 1, 1), max_value=date(2023, 12, 31))

# One to three purposes, cut from a shuffled list: every such subset is
# reachable, and no draw is rejected. A frozenset of sampled purposes would
# make Hypothesis discard many examples as invalid.
consents = st.tuples(st.permutations(PURPOSES), st.integers(1, 3)).map(
    lambda drawn: frozenset(drawn[0][: drawn[1]])
)


@st.composite
def flow_metas(draw, flow_id: str) -> FlowMeta:
    return FlowMeta(
        flow_id=flow_id,
        label=draw(st.sampled_from(("Records", "Telemetry", "Orders"))),
        purpose=draw(st.sampled_from(PURPOSES)),
        pd=draw(st.booleans()),
        data_type=draw(st.sampled_from(("string", "image", "video"))),
    )


@st.composite
def data_records(draw, flow_id: str, d_id: str) -> DataRecord:
    return DataRecord(
        d_id=d_id,
        flow_id=flow_id,
        dsub=draw(st.sampled_from(("SubA", "SubB", "SubC"))),
        consent=draw(consents),
        expiry=draw(dates),
        content=draw(st.text(max_size=8)),
    )


@st.composite
def simulation_scenarios(draw):
    """A privacy-aware diagram plus policy table, records, and a clock.

    Every original flow gets a policy row; every record is bound to one of
    those flows and carries a unique id, so replays and store contents can
    be checked record by record.
    """
    business = draw(wellformed_diagrams())
    pa = transform(business)
    flow_ids = sorted(business.flows)
    metas = [draw(flow_metas(flow_id)) for flow_id in flow_ids]
    record_count = draw(st.integers(min_value=0, max_value=8))
    records = [
        draw(data_records(draw(st.sampled_from(flow_ids)), f"d{index}"))
        for index in range(record_count)
    ]
    return pa, metas, records, draw(dates)


# The kinds of the elements the rewrite generates: every node kind but the
# business ones, and every privacy-aware flow kind but those of the guarded
# flows, which keep their original ids.
_GENERATED_KINDS = (
    NodeType.LIMIT, NodeType.REQUEST, NodeType.REASON, NodeType.POLICY_DB, NodeType.LOG,
    NodeType.LOG_DB, NodeType.CLEAN, FlowType.REQLIM, FlowType.LIMLOG, FlowType.LOGGING,
    FlowType.PROLIM, FlowType.EXTLIM, FlowType.DBLIM, FlowType.REAREQ, FlowType.EXTREQ,
    FlowType.PDBREQ, FlowType.REQREA, FlowType.REQPDB, FlowType.REQEXT, FlowType.PDBCLE,
    FlowType.CLEDB_DEL,
)


@st.composite
def edited_pa_scenarios(draw):
    """A rewrite's PA-DFD, and that PA-DFD as an engineer has edited it
    once: one generated node, with its flows, or one generated flow
    deleted and the partner links to what went cleared, or one generated
    flow given another node at one end. The element is drawn as a kind and
    a position among the elements of that kind (any generated element
    where the diagram has none of the kind), so the edit survives the
    shrinking of the diagram around it. Every part of the edit is drawn
    whichever edit is made, so each scenario takes the same number of
    choices."""
    pa = transform(draw(wellformed_diagrams()))
    kind, position = draw(st.sampled_from(_GENERATED_KINDS)), draw(st.integers(0, _WIRES - 1))
    retarget = draw(st.booleans())
    end = draw(st.sampled_from(("source", "target")))
    node = draw(st.sampled_from(sorted(pa.nodes)))
    generated = sorted(
        (element.node_type if element_id in pa.nodes else element.flow_type, element_id)
        for element_id, element in {**pa.nodes, **pa.flows}.items()
        if element_id.startswith("gen-")
    )
    of_kind = [element_id for each, element_id in generated if each is kind]
    candidates = of_kind or [element_id for _, element_id in generated]
    element = candidates[position % len(candidates)]
    if element in pa.flows and retarget:
        retargeted = replace(pa.flows[element], **{end: node})
        return pa, replace(pa, flows={**pa.flows, element: retargeted})
    gone = {element}
    if element in pa.nodes:
        gone |= {flow_id for flow_id, flow in pa.flows.items() if element in (flow.source, flow.target)}

    def kept(elements: dict) -> dict:
        return {
            key: replace(value, partner=None) if value.partner in gone else value
            for key, value in elements.items()
            if key not in gone
        }

    return pa, replace(pa, nodes=kept(pa.nodes), flows=kept(pa.flows))


@st.composite
def store_states(draw):
    """Store contents for exercising the cleaning pass directly. Every
    store and record is drawn whether it is kept or not, so each state
    takes the same number of choices."""
    stores = []
    for index in range(3):
        held = []
        for record_index in range(5):
            record = draw(data_records(f"f{index}", f"d{index}-{record_index}"))
            held.append((record, draw(dates), draw(st.sampled_from(PURPOSES))))
        stores.append(held[: draw(st.integers(0, 5))])
    state = StoreState()
    for index, held in enumerate(stores[: draw(st.integers(1, 3))]):
        store, policy_store = f"s{index}", f"ps{index}"
        state.data[store] = {}
        state.policies[policy_store] = {}
        state.partners[store] = policy_store
        for record, stored_at, purpose in held:
            state.data[store][record.d_id] = StoredRecord(record, stored_at)
            state.policies[policy_store][record.d_id] = PolicySnapshot(
                purpose=purpose, consent=record.consent, expiry=record.expiry
            )
    return state


# Report text: anything a str can hold, including what the ASCII-only JSON
# encoder must escape (non-ASCII, C0 controls, U+2028/2029, astral
# characters) and the lone surrogates it writes as \udXXX escapes. Each
# alphabet gives a text in one choice: the first holds every code point,
# the second only characters the writer escapes.
_report_text = st.one_of(
    st.text(st.characters(), max_size=6),
    st.text(st.sampled_from('"\\\x00\x1f\x7f\xe9\u2028\u2029\ud800\udfff\U0001f512'), max_size=6),
)


def _snapshot(draw) -> PolicySnapshot:
    consent = frozenset(_up_to(draw, lambda: draw(_report_text)))
    return PolicySnapshot(draw(_report_text), consent, draw(dates))


def _log_entry(draw) -> LogEntry:
    return LogEntry(
        draw(_report_text), draw(_report_text), _snapshot(draw), draw(st.booleans()), draw(dates)
    )


def _decision(draw) -> Decision:
    return Decision(
        draw(_report_text), draw(_report_text), draw(st.booleans()), draw(st.booleans()),
        _log_entry(draw), draw(st.booleans()),
    )


def _by_text(draw, make) -> dict:
    """Up to three values of `make()`, each under a report text."""
    return dict(_up_to(draw, lambda: (draw(_report_text), make())))


@st.composite
def simulation_reports(draw) -> SimulationReport:
    """Reports built through the API, with arbitrary text and every
    container possibly empty: decisions, logs, a log, stores, a store's
    records, policy stores and a consent set. Each report takes the same
    number of choices."""
    decisions = _up_to(draw, lambda: _decision(draw))
    logs = _by_text(draw, lambda: _up_to(draw, lambda: _log_entry(draw)))
    record = DataRecord("d", "f", "s", frozenset({"p"}), date(2020, 1, 1), "c")
    state = StoreState(
        data=_by_text(draw, lambda: _by_text(draw, lambda: StoredRecord(record, draw(dates)))),
        policies=_by_text(draw, lambda: _by_text(draw, lambda: _snapshot(draw))),
    )
    return SimulationReport(draw(dates), decisions, logs, state)


# CSV fields that exercise the table loaders: padding, empty and
# separator-only values, bad booleans and dates, and text that needs
# quoting (commas, quotes, a newline inside a field).
_CSV_FIELDS = (
    "", " ", "d1", " d2 ", "f1", "f 1", "billing", "Billing; support ", " ; ", "x;;y",
    "2020-01-01", " 2021-12-31 ", "2020-13-01", "soon", "True", " false", "maybe",
    "a,b", 'say "hi"', "two\nlines", "\xfc", "\u2028",
)
# Values each column reads without complaint, drawn most of the time so
# that many tables load.
_CSV_GOOD = {
    "D_id": ("d1", " d2 ", "d,3"),
    "F_id": ("f1", " f2", "f 1"),
    "Consent": ("billing", "Billing; support ", "x;;y"),
    "Expiry": ("2020-01-01", " 2021-12-31 "),
    "PD": ("True", " false"),
    "Purpose": ("billing", " support"),
}


@st.composite
def csv_tables(draw, columns: tuple[str, ...]) -> str:
    """CSV text for a table of `columns`: the header may reorder, repeat or
    miss columns and carry unknown ones; rows may be short, long or blank,
    and lines end in LF or CRLF. Now and then the body is raw text.

    Every part is drawn whether it is kept or not, so each table takes the
    same number of choices: Hypothesis discards as invalid an example that
    needs more choices than it allowed, and it allows an early example
    five times the choices of the simplest one from the same start."""
    header = list(draw(st.permutations(columns)))
    extras = [
        (draw(st.sampled_from((*columns, "Extra"))), draw(st.integers(0, len(columns) + index)))
        for index in range(2)
    ]
    for name, at in extras[: draw(st.integers(0, 2))]:
        header.insert(at, name)
    missing = draw(st.integers(min_value=0, max_value=len(header) - 1))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        del header[missing]

    def field(name: str) -> str:
        good = _CSV_GOOD.get(name, _CSV_FIELDS)
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            good = _CSV_FIELDS
        return draw(st.sampled_from(good))

    # A row holds a field per header name, then two unknown ones, and is
    # cut to the header's width, to none, to one short or to two long.
    names = header + ["Extra"] * (len(columns) + 4 - len(header))
    width = len(header)
    lengths = st.sampled_from((width, width, width, 0, width - 1, width + 2))
    rows = [[field(name) for name in names][: draw(lengths)] for _ in range(6)]
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(("\n", "\r\n")))).writerows(
        [header, *rows[: draw(st.integers(min_value=0, max_value=6))]]
    )
    text = out.getvalue()
    raw = draw(st.text(st.sampled_from('ab1 ,;"\n\r-'), max_size=40))
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        text = text.split("\n", 1)[0] + "\n" + raw
    return text
