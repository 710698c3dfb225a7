"""Hypothesis strategies for diagrams, policy tables, and data records."""

from __future__ import annotations

import csv
import io
from datetime import date, timedelta

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
    SimulationReport,
    Stage,
    StoredRecord,
    StoreState,
    add_flow,
    add_node,
    replace,
    transform,
)

from helpers import LABELS, PURPOSES

# Valid XML 1.0 characters only, so every generated string survives the
# draw.io format; the sampled LABELS add newlines and markup characters.
_text = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    min_size=1,
    max_size=12,
)
labels = st.one_of(st.none(), st.sampled_from(LABELS), _text)

_EXTRA_KEYS = ("owner", "dept", "note", "retention", "team")
extras = st.dictionaries(
    st.sampled_from(_EXTRA_KEYS),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0xD7FF), max_size=8),
    max_size=2,
)

_coord = st.one_of(
    st.integers(min_value=-400, max_value=800).map(float),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
positions = st.one_of(st.none(), st.tuples(_coord, _coord))

_ID_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-_"
identifiers = st.text(_ID_ALPHABET, min_size=1, max_size=8)


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


@st.composite
def wellformed_diagrams(draw) -> Diagram:
    """Well-formed business diagrams built constructively: every process
    relays, every entity and store touches a flow, types match endpoints."""
    procs = draw(st.integers(min_value=1, max_value=4))
    exts = draw(st.integers(min_value=0, max_value=3))
    dbs = draw(st.integers(min_value=0, max_value=3))
    if procs == 1 and exts == 0 and dbs == 0:
        exts = 1

    count = procs + exts + dbs
    ids = draw(
        st.lists(identifiers, unique=True, min_size=count + 40, max_size=count + 40)
    )
    node_ids, flow_pool = ids[:count], iter(ids[count:])
    proc_ids = node_ids[:procs]
    ext_ids = node_ids[procs : procs + exts]
    db_ids = node_ids[procs + exts :]

    diagram = Diagram(stage=Stage.WELLFORMED)
    kinds: dict[str, NodeType] = {}
    for node_id in ext_ids:
        kinds[node_id] = NodeType.EXT
    for node_id in proc_ids:
        kinds[node_id] = NodeType.PROC
    for node_id in db_ids:
        kinds[node_id] = NodeType.DB
    for node_id, node_type in kinds.items():
        diagram = add_node(
            diagram,
            Node(node_id, node_type, label=draw(labels), position=draw(positions)),
        )

    def wire(source: str, target: str) -> None:
        nonlocal diagram
        diagram = add_flow(
            diagram,
            _typed_flow(
                next(flow_pool),
                source,
                kinds[source],
                target,
                kinds[target],
                draw(labels),
                draw(st.booleans()),
            ),
        )

    others = ext_ids + db_ids
    for proc in proc_ids:
        pool = others + [p for p in proc_ids if p != proc]
        wire(draw(st.sampled_from(pool)), proc)
        wire(proc, draw(st.sampled_from(pool)))

    connected = {f.source for f in diagram.flows.values()}
    connected |= {f.target for f in diagram.flows.values()}
    for node_id in others:
        if node_id not in connected:
            proc = draw(st.sampled_from(proc_ids))
            if draw(st.booleans()):
                wire(node_id, proc)
            else:
                wire(proc, node_id)

    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        proc = draw(st.sampled_from(proc_ids))
        other = draw(st.sampled_from(others + [p for p in proc_ids if p != proc]))
        if draw(st.booleans()):
            wire(other, proc)
        else:
            wire(proc, other)

    return diagram


@st.composite
def raw_diagrams(draw) -> Diagram:
    """Valid raw diagrams with arbitrary wiring — frequently ill-formed."""
    node_types = draw(
        st.lists(
            st.sampled_from((NodeType.EXT, NodeType.PROC, NodeType.DB)),
            min_size=1,
            max_size=6,
        )
    )
    count = len(node_types)
    ids = draw(
        st.lists(identifiers, unique=True, min_size=count + 10, max_size=count + 10)
    )
    node_ids, flow_ids = ids[:count], ids[count:]

    diagram = Diagram(stage=Stage.RAW)
    for node_id, node_type in zip(node_ids, node_types):
        diagram = add_node(diagram, Node(node_id, node_type, label=draw(labels)))

    flow_count = draw(st.integers(min_value=0, max_value=10))
    for flow_id in flow_ids[:flow_count]:
        diagram = add_flow(
            diagram,
            Flow(
                flow_id,
                draw(st.sampled_from(node_ids)),
                draw(st.sampled_from(node_ids)),
                draw(
                    st.sampled_from(
                        (FlowType.PF, FlowType.PF, FlowType.PF, FlowType.DF)
                    )
                ),
                label=draw(labels),
            ),
        )
    return diagram


@st.composite
def _decorated(draw, diagram: Diagram) -> Diagram:
    """Give a random subset of nodes positions and extra attributes."""
    nodes = {}
    for node_id, node in diagram.nodes.items():
        nodes[node_id] = Node(
            node.id,
            node.node_type,
            node.label,
            node.partner,
            node.position if node.position is not None else draw(positions),
            draw(extras),
        )
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


dates = st.dates(min_value=date(2019, 1, 1), max_value=date(2023, 12, 31))

consents = st.frozensets(st.sampled_from(PURPOSES), min_size=1, max_size=3)


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


@st.composite
def store_states(draw):
    """Store contents for exercising the cleaning pass directly."""
    from padfd import PolicySnapshot, StoreState, StoredRecord

    store_count = draw(st.integers(min_value=1, max_value=3))
    state = StoreState()
    for index in range(store_count):
        store = f"s{index}"
        policy_store = f"ps{index}"
        state.data[store] = {}
        state.policies[policy_store] = {}
        state.partners[store] = policy_store
        for record_index in range(draw(st.integers(min_value=0, max_value=5))):
            d_id = f"d{index}-{record_index}"
            record = draw(data_records(f"f{index}", d_id))
            stored_at = draw(dates)
            state.data[store][d_id] = StoredRecord(record, stored_at)
            state.policies[policy_store][d_id] = PolicySnapshot(
                purpose=draw(st.sampled_from(PURPOSES)),
                consent=record.consent,
                expiry=record.expiry,
            )
    return state


# Report text: anything a str can hold, including what the ASCII-only JSON
# encoder must escape (non-ASCII, C0 controls, U+2028/2029, astral
# characters) and the lone surrogates it writes as \udXXX escapes.
_report_text = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\\x00\x1f\x7f\xe9\u2028\u2029\ud800\udfff\U0001f512'),
    ),
    max_size=6,
)
_report_consent = st.frozensets(_report_text, max_size=3)


@st.composite
def _log_entries(draw) -> LogEntry:
    policy = PolicySnapshot(draw(_report_text), draw(_report_consent), draw(dates))
    return LogEntry(draw(_report_text), draw(_report_text), policy, draw(st.booleans()), draw(dates))


@st.composite
def simulation_reports(draw) -> SimulationReport:
    """Reports built through the API, with arbitrary text and every
    container possibly empty: decisions, logs, a log, stores, a store's
    records, policy stores and a consent set."""
    decisions = [
        Decision(
            draw(_report_text), draw(_report_text), draw(st.booleans()),
            draw(st.booleans()), draw(_log_entries()), draw(st.booleans()),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    logs = draw(st.dictionaries(_report_text, st.lists(_log_entries(), max_size=3), max_size=3))
    record = DataRecord("d", "f", "s", frozenset({"p"}), date(2020, 1, 1), "c")
    stored = st.builds(StoredRecord, st.just(record), dates)
    snapshots = st.builds(PolicySnapshot, _report_text, _report_consent, dates)
    state = StoreState(
        data=draw(st.dictionaries(_report_text, st.dictionaries(_report_text, stored, max_size=3), max_size=3)),
        policies=draw(
            st.dictionaries(_report_text, st.dictionaries(_report_text, snapshots, max_size=3), max_size=3)
        ),
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
    and lines end in LF or CRLF. Now and then the body is raw text."""
    header = list(draw(st.permutations(columns)))
    for name in draw(st.lists(st.sampled_from((*columns, "Extra")), max_size=2)):
        header.insert(draw(st.integers(min_value=0, max_value=len(header))), name)
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        del header[draw(st.integers(min_value=0, max_value=len(header) - 1))]

    def field(name: str) -> str:
        good = _CSV_GOOD.get(name, _CSV_FIELDS)
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            good = _CSV_FIELDS
        return draw(st.sampled_from(good))

    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        row = [field(name) for name in header]
        length = draw(st.sampled_from((len(row), len(row), len(row), 0, len(row) - 1, len(row) + 2)))
        rows.append((row + [field("Extra"), field("Extra")])[:length])
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(("\n", "\r\n")))).writerows([header, *rows])
    text = out.getvalue()
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        text = text.split("\n", 1)[0] + "\n" + draw(st.text(st.sampled_from('ab1 ,;"\n\r-'), max_size=40))
    return text
