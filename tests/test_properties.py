from __future__ import annotations

import copy
import json
import tempfile
from collections import Counter
from datetime import date
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from padfd import (
    DataRecord,
    FlowMeta,
    FlowType,
    compatibility_with_equivalences,
    NodeType,
    PadfdError,
    ParseError,
    SchemaError,
    SimulationReport,
    Stage,
    StoreState,
    emit_dot,
    emit_drawio,
    emit_json,
    layout_generated,
    load_data_records,
    load_flow_metas,
    parse_drawio,
    parse_json,
    render_report,
    report_json,
    report_to_dict,
    run_clean,
    run_simulation,
    transform,
    typecheck,
    validate_pa,
    validate_wellformed,
)
from padfd.errors import read_utf8
from padfd.graph import build
from padfd.model import GADGET_PARTS, HOLDER_PARTS, WELLFORMED_FLOW_ENDPOINTS
from padfd.simulate import DYNAMIC_COLUMNS, STATIC_COLUMNS
from padfd.validate import read_parts

from diagram_strategies import (
    any_stage_diagrams,
    canonical_documents,
    crowded_drawings,
    csv_tables,
    data_records,
    dates,
    dot_diagrams,
    drawio_documents,
    edited_pa_scenarios,
    flow_metas,
    json_text_diagrams,
    namespaced_diagrams,
    raw_diagrams,
    simulation_reports,
    simulation_scenarios,
    store_states,
    wellformed_diagrams,
)
from helpers import PURPOSES, decide, provenance, replace
from references import (
    reference_compatibility,
    reference_emit_dot,
    reference_emit_drawio,
    reference_layout_generated,
    reference_merge_log_stores,
    reference_parse_data_records,
    reference_parse_drawio,
    reference_parse_json,
    reference_parse_flow_metas,
    reference_render_report,
    reference_report_json,
    reference_report_to_dict,
    reference_run_simulation,
    to_canonical_dict,
)

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --- typing ---------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(raw_diagrams())
def test_typecheck_soundness(diagram):
    """A successful run types every flow consistently with its endpoints;
    a failed run explains itself."""
    wellformed, diagnostics = typecheck(diagram)
    if wellformed is None:
        assert diagnostics
        return
    assert diagnostics == []
    assert wellformed.stage is Stage.WELLFORMED
    assert validate_wellformed(wellformed).valid
    for flow_id, flow in wellformed.flows.items():
        source = wellformed.nodes[flow.source].node_type
        target = wellformed.nodes[flow.target].node_type
        assert (source, target) == WELLFORMED_FLOW_ENDPOINTS[flow.flow_type]
        original = diagram.flows[flow_id].flow_type
        if original is FlowType.DF:
            assert flow.flow_type is FlowType.DELETE
        else:
            assert flow.flow_type is not FlowType.DELETE
        if flow.flow_type is FlowType.COMP:
            assert flow.source != flow.target


@PROPERTY_SETTINGS
@given(wellformed_diagrams())
def test_typecheck_inverts_type_erasure(diagram):
    """Erasing the flow types of a well-formed diagram and re-typing it
    recovers the diagram exactly."""
    erased_flows = {
        flow_id: replace(
            flow,
            flow_type=FlowType.DF if flow.flow_type is FlowType.DELETE else FlowType.PF,
        )
        for flow_id, flow in diagram.flows.items()
    }
    erased = replace(diagram, stage=Stage.RAW, flows=erased_flows)
    recovered, diagnostics = typecheck(erased)
    assert diagnostics == []
    assert recovered == diagram


# --- the privacy rewrite -----------------------------------------------------------


@PROPERTY_SETTINGS
@given(wellformed_diagrams())
def test_shared_log_store_is_the_merge_reference(diagram):
    """Sharing the first log store while rewriting gives what merging the
    per-flow stores afterwards gave, in the same order. A well-formed
    diagram holds no log store of its own, where the two would differ."""
    shared = transform(diagram, shared_log_store=True)
    assert _in_order(shared) == _in_order(reference_merge_log_stores(transform(diagram)))


@PROPERTY_SETTINGS
@given(wellformed_diagrams())
def test_transform_counting_laws_hold(diagram):
    procs = sum(1 for n in diagram.nodes.values() if n.node_type is NodeType.PROC)
    dbs = sum(1 for n in diagram.nodes.values() if n.node_type is NodeType.DB)
    flows = len(diagram.flows)
    pa = transform(diagram)
    assert len(pa.nodes) == len(diagram.nodes) + procs + 2 * dbs + 4 * flows
    assert len(pa.flows) == 7 * flows + 2 * dbs


@PROPERTY_SETTINGS
@given(wellformed_diagrams(), st.booleans())
def test_transform_output_is_valid(diagram, shared):
    validity = validate_pa(transform(diagram, shared_log_store=shared))
    assert validity.valid, [v.render() for v in validity.violations]


@PROPERTY_SETTINGS
@given(wellformed_diagrams(), st.booleans())
def test_each_generated_element_is_the_part_of_one_owner(diagram, shared):
    """The columns of the rewrite's role tables, as `read_parts` reads them
    back, hold every generated node and flow exactly once, save the shared
    log store, which every gadget holds."""
    pa = transform(diagram, shared_log_store=shared)
    gadgets, holders = read_parts(pa)
    held = Counter()
    for rows, parts in (
        (GADGET_PARTS, gadgets), *((HOLDER_PARTS[kind], parts) for kind, parts in holders.items())
    ):
        for part in rows:
            held.update(parts[part.role])
    expected = Counter({*pa.nodes, *pa.flows} - {*diagram.nodes, *diagram.flows})
    for node_id, node in pa.nodes.items():
        if shared and node.node_type is NodeType.LOG_DB:
            expected[node_id] = len(diagram.flows)
    assert held == expected


@PROPERTY_SETTINGS
@given(wellformed_diagrams(), st.booleans(), st.randoms(use_true_random=False))
def test_transform_does_not_depend_on_insertion_order(diagram, shared, rng):
    """The rewrite takes ids in sorted id order, not in the order the
    diagram's nodes and flows were inserted: shuffling that order changes
    no byte of its output, with or without a shared log store."""
    nodes, flows = list(diagram.nodes.values()), list(diagram.flows.values())
    rng.shuffle(nodes)
    rng.shuffle(flows)
    shuffled = build(diagram.stage, nodes, flows)
    assert emit_json(transform(shuffled, shared_log_store=shared)) == emit_json(
        transform(diagram, shared_log_store=shared)
    )


def _prefixed(diagram, prefix: str):
    """The diagram with `prefix` before every id, flow end and partner."""

    def name(element_id):
        return None if element_id is None else prefix + element_id

    nodes = [replace(n, id=name(n.id), partner=name(n.partner)) for n in diagram.nodes.values()]
    flows = [
        replace(f, id=name(f.id), source=name(f.source), target=name(f.target), partner=name(f.partner))
        for f in diagram.flows.values()
    ]
    return build(diagram.stage, nodes, flows)


def _by_provenance(diagram, pa) -> tuple[dict, dict]:
    """The kind, label and partner of every node of `pa`, the rewrite of
    `diagram`, and the kind, ends, partner and label of every flow, keyed by
    id, with each generated id renamed to its one (owner, role)."""
    held = provenance(pa)
    assert held.keys() == {*pa.nodes, *pa.flows} - {*diagram.nodes, *diagram.flows}
    assert all(len(claims) == 1 for claims in held.values()), held
    name = {part_id: claims[0] for part_id, claims in held.items()}

    def rename(element_id):
        return name.get(element_id, element_id)

    nodes = {rename(i): (n.node_type, n.label, rename(n.partner)) for i, n in pa.nodes.items()}
    flows = {
        rename(i): (f.flow_type, rename(f.source), rename(f.target), rename(f.partner), f.label)
        for i, f in pa.flows.items()
    }
    return nodes, flows


@PROPERTY_SETTINGS
@given(wellformed_diagrams(), wellformed_diagrams())
def test_transform_is_local(first, second):
    """The rewrite works element by element: with each generated id named
    by its (owner, role), rewriting two disjoint diagrams together gives
    what rewriting each alone gives, node for node and flow for flow. One
    log store shared by every gadget is outside this property."""
    a, b = _prefixed(first, "a:"), _prefixed(second, "b:")
    union = build(
        Stage.WELLFORMED, [*a.nodes.values(), *b.nodes.values()], [*a.flows.values(), *b.flows.values()]
    )
    (a_nodes, a_flows), (b_nodes, b_flows) = (_by_provenance(d, transform(d)) for d in (a, b))
    nodes, flows = _by_provenance(union, transform(union))
    assert nodes == {**a_nodes, **b_nodes}
    assert flows == {**a_flows, **b_flows}


@PROPERTY_SETTINGS
@given(wellformed_diagrams())
def test_transform_partner_links_are_mutual(diagram):
    pa = transform(diagram)
    for node in pa.nodes.values():
        if node.partner is not None:
            assert pa.nodes[node.partner].partner == node.id
    for flow in pa.flows.values():
        if flow.partner is not None:
            assert pa.flows[flow.partner].partner == flow.id


@PROPERTY_SETTINGS
@given(wellformed_diagrams())
def test_transform_preserves_and_guards_originals(diagram):
    pa = transform(diagram)
    for node_id, node in diagram.nodes.items():
        kept = pa.nodes[node_id]
        assert kept.node_type is node.node_type
        assert kept.label == node.label
        assert kept.position == node.position
    for flow_id, flow in diagram.flows.items():
        kept = pa.flows[flow_id]
        assert kept.label == flow.label
        assert kept.target == flow.target
        assert pa.nodes[kept.source].node_type is NodeType.LIMIT
        # Nothing dangles.
        assert kept.source in pa.nodes and kept.target in pa.nodes


# --- serialization ------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(any_stage_diagrams())
def test_drawio_round_trip(diagram):
    data = emit_drawio(diagram)
    assert emit_drawio(diagram) == data
    assert parse_drawio(data) == diagram


@PROPERTY_SETTINGS
@given(any_stage_diagrams())
def test_json_round_trip(diagram):
    data = emit_json(diagram)
    assert emit_json(diagram) == data
    assert parse_json(data) == diagram


@PROPERTY_SETTINGS
@given(any_stage_diagrams())
def test_formats_share_one_canonical_form(diagram):
    via_drawio = to_canonical_dict(parse_drawio(emit_drawio(diagram)))
    via_json = to_canonical_dict(parse_json(emit_json(diagram)))
    assert via_drawio == via_json == to_canonical_dict(diagram)


def _reference_json(diagram) -> bytes:
    """What emit_json must write: the canonical dict through the stdlib encoder."""
    text = json.dumps(to_canonical_dict(diagram), indent=2, sort_keys=True, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


@PROPERTY_SETTINGS
@given(any_stage_diagrams())
def test_emit_json_is_the_reference_encoding(diagram):
    assert emit_json(diagram) == _reference_json(diagram)


@PROPERTY_SETTINGS
@given(wellformed_diagrams())
def test_emit_json_is_the_reference_encoding_of_transform_output(diagram):
    pa = transform(diagram)
    assert emit_json(pa) == _reference_json(pa)


@PROPERTY_SETTINGS
@given(json_text_diagrams())
def test_emit_json_writes_json_only_text_like_the_reference(diagram):
    data = emit_json(diagram)
    assert data == _reference_json(diagram)
    assert parse_json(data) == diagram


@PROPERTY_SETTINGS
@given(any_stage_diagrams())
def test_emit_drawio_is_the_reference_writer(diagram):
    assert emit_drawio(diagram) == reference_emit_drawio(diagram)


@PROPERTY_SETTINGS
@given(wellformed_diagrams(), st.booleans())
def test_emit_drawio_is_the_reference_writer_of_transform_output(diagram, shared):
    pa = layout_generated(transform(diagram, shared_log_store=shared))
    assert emit_drawio(pa) == reference_emit_drawio(pa)


@PROPERTY_SETTINGS
@given(namespaced_diagrams())
def test_emit_drawio_declares_namespaces_like_the_reference(diagram):
    data = emit_drawio(diagram)
    assert data == reference_emit_drawio(diagram)
    assert parse_drawio(data) == diagram


def _reads_back(data: bytes, diagram) -> bool:
    try:
        return parse_drawio(data) == diagram
    except ParseError:
        return False


@PROPERTY_SETTINGS
@given(json_text_diagrams())
def test_emit_drawio_refuses_only_what_would_not_read_back(diagram):
    """Text the draw.io writer accepts is written as the reference writes
    it; what it refuses, the reference writes unreadably or lossily."""
    try:
        reference = reference_emit_drawio(diagram)
    except ValueError:  # an unbalanced "{" key, or text UTF-8 cannot encode
        reference = None
    try:
        data = emit_drawio(diagram)
    except SchemaError:
        assert reference is None or not _reads_back(reference, diagram)
    else:
        assert data == reference


@PROPERTY_SETTINGS
@given(json_text_diagrams())
def test_json_documents_round_trip_through_drawio_or_are_refused(diagram):
    accepted = parse_json(emit_json(diagram))
    try:
        data = emit_drawio(accepted)
    except SchemaError:
        return
    assert parse_drawio(data) == accepted


def _outcome(function, *args):
    """What a call gives: its result, or the class and message of what it raised."""
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _in_order(diagram) -> tuple:
    """A diagram with the insertion order of its nodes, flows and extras."""
    return (
        diagram.stage,
        [(node, list(node.extra.items())) for node in diagram.nodes.values()],
        [(flow, list(flow.extra.items())) for flow in diagram.flows.values()],
    )


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(drawio_documents())
def test_parse_drawio_reads_like_the_tree_walk_reference(text):
    """Same diagram in the same order (`read_parts` and the shared log
    store follow flow order), or the same error with the same message."""
    ours, reference = _outcome(parse_drawio, text), _outcome(reference_parse_drawio, text)
    if isinstance(reference, tuple):
        assert ours == reference
        assert not ours[1].startswith(("cell None", "cell ''"))
    else:
        assert _in_order(ours) == _in_order(reference)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(canonical_documents())
def test_parse_json_reads_like_its_reference(data):
    """Equal diagrams, or the same error with the same message: reading
    whole columns names the same first defect as reading entry by entry.
    A refusal names an element by a usable id or by its place."""
    ours = _outcome(parse_json, data)
    assert ours == _outcome(reference_parse_json, data)
    if isinstance(ours, tuple):
        assert not ours[1].startswith(("node None", "flow None", "node ''", "flow ''"))


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(canonical_documents())
def test_parse_json_reads_back_what_it_accepts_or_refuses_it(data):
    """Any document, of whatever JSON types, reads into a diagram that its
    canonical bytes give back, or is refused with SchemaError."""
    try:
        diagram = parse_json(data)
    except SchemaError:
        return
    assert parse_json(emit_json(diagram)) == diagram


@PROPERTY_SETTINGS
@given(dot_diagrams())
def test_emit_dot_is_the_reference_writer(diagram):
    ours, reference = _outcome(emit_dot, diagram), _outcome(reference_emit_dot, diagram)
    assert ours == reference
    if isinstance(reference, tuple):
        assert reference[0] is SchemaError and "lone surrogate" in reference[1]


@PROPERTY_SETTINGS
@given(wellformed_diagrams(), st.booleans())
def test_emit_dot_is_the_reference_writer_of_transform_output(diagram, shared):
    pa = transform(diagram, shared_log_store=shared)
    assert emit_dot(pa) == reference_emit_dot(pa)


# --- layout ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(crowded_drawings())
def test_layout_places_like_the_stepping_reference(diagram):
    placed = layout_generated(diagram)
    assert placed == reference_layout_generated(diagram)
    assert all(node.position is not None for node in placed.nodes.values())


# --- the decision rule --------------------------------------------------------------


@settings(deadline=None)
@given(
    flow_metas("f1"),
    data_records("f1", "d"),
    st.tuples(dates, dates),
)
def test_limit_decisions_are_monotone_in_time(meta, record, clocks):
    """Whatever is forwarded at a later clock is forwarded at any earlier
    one; the violation flag marks exactly withheld personal data."""
    early, late = sorted(clocks)
    fwd_early, entry_early = decide(meta, record, early)
    fwd_late, entry_late = decide(meta, record, late)
    if fwd_late:
        assert fwd_early
    assert entry_early.v == (meta.pd and not fwd_early)
    assert entry_late.v == (meta.pd and not fwd_late)
    if not meta.pd:
        assert fwd_early and fwd_late
    for entry, clock in ((entry_early, early), (entry_late, late)):
        assert entry.d_id == record.d_id
        assert entry.flow_id == record.flow_id
        assert entry.clock == clock
        assert entry.policy.purpose == meta.purpose
        assert entry.policy.consent == record.consent
        assert entry.policy.expiry == record.expiry


@settings(deadline=None)
@given(flow_metas("f1"), data_records("f1", "d"), dates)
def test_limit_expiry_boundary(meta, record, clock):
    forwarded, _ = decide(meta, record, clock)
    if meta.pd and clock > record.expiry:
        assert not forwarded


# --- whole runs ---------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(simulation_scenarios(), st.booleans())
def test_simulation_invariants(scenario, multi_hop):
    pa, metas, records, clock = scenario
    report = run_simulation(pa, metas, records, clock, multi_hop=multi_hop)
    meta_by_flow = {meta.flow_id: meta for meta in metas}

    # One log entry per decision, landing in some gadget's log store.
    assert sum(len(entries) for entries in report.logs.values()) == len(
        report.decisions
    )

    for decision in report.decisions:
        # The business diagram forwards everything the rewrite still allows.
        assert decision.forwarded_bdfd is True
        meta = meta_by_flow[decision.flow_id]
        assert decision.entry.v == (meta.pd and not decision.forwarded_padfd)
        if decision.forwarded_padfd:
            assert not decision.entry.v

    # Stores hold only records some forwarded store-write deposited.
    deposited = {
        decision.d_id
        for decision in report.decisions
        if decision.forwarded_padfd
        and pa.flows[decision.flow_id].flow_type is FlowType.LIMDB
    }
    for store, held in report.state.data.items():
        assert set(held) <= deposited
        policy_store = report.state.partners[store]
        assert set(report.state.policies[policy_store]) == set(held)

    # Replays are exact.
    again = run_simulation(pa, metas, records, clock, multi_hop=multi_hop)
    assert again == report


@PROPERTY_SETTINGS
@given(simulation_scenarios())
def test_blocked_everywhere_records_leave_no_trace(scenario):
    pa, metas, records, clock = scenario
    report = run_simulation(pa, metas, records, clock)
    ever_forwarded = {
        decision.d_id for decision in report.decisions if decision.forwarded_padfd
    }
    for decision in report.decisions:
        if decision.d_id in ever_forwarded:
            continue
        for held in report.state.data.values():
            assert decision.d_id not in held


# Purposes as tables spell them: the flow purposes in any case, padded.
_worded_purposes = st.builds(
    lambda purpose, upper, pad: (purpose.upper() if upper else purpose) + pad,
    st.sampled_from(PURPOSES),
    st.booleans(),
    st.sampled_from(("", " ")),
)
_equivalences = st.lists(st.tuples(_worded_purposes, _worded_purposes), max_size=4)


@PROPERTY_SETTINGS
@given(_equivalences, _worded_purposes, st.frozensets(_worded_purposes, max_size=3))
@example(pairs=[("billing", "SUPPORT ")], purpose="support", consent=frozenset({"Support"}))
def test_compatibility_is_the_lookup_reference(pairs, purpose, consent):
    expected = reference_compatibility(pairs)(purpose, consent)
    assert compatibility_with_equivalences(pairs)(purpose, consent) is expected
    if not pairs:
        # A run without a predicate matches purposes exactly.
        meta = FlowMeta("f1", "Records", purpose, True, "string")
        record = DataRecord("d1", "f1", "SubA", consent, date(2099, 1, 1), "")
        assert decide(meta, record, date(2020, 1, 1))[0] is expected


_respellings = st.lists(
    st.tuples(st.booleans(), st.sampled_from(("", " "))),
    min_size=len(PURPOSES),
    max_size=len(PURPOSES),
)


@PROPERTY_SETTINGS
@given(simulation_scenarios(), _equivalences, st.booleans(), _respellings)
def test_runs_decide_like_the_lookup_reference(scenario, pairs, multi_hop, respellings):
    """A run with padfd's own purpose tables equals one with the plain
    lookup reference as its predicate, with consents spelled in any case
    and padding."""
    pa, metas, records, clock = scenario
    spelling = {
        purpose: (purpose.upper() if upper else purpose) + pad
        for purpose, (upper, pad) in zip(PURPOSES, respellings)
    }
    records = [
        replace(record, consent=frozenset(spelling[c] for c in record.consent))
        for record in records
    ]
    ours = run_simulation(
        pa, metas, records, clock,
        compatible=compatibility_with_equivalences(pairs), multi_hop=multi_hop,
    )
    reference = run_simulation(
        pa, metas, records, clock,
        compatible=reference_compatibility(pairs), multi_hop=multi_hop,
    )
    assert ours == reference
    if not pairs:
        assert run_simulation(pa, metas, records, clock, multi_hop=multi_hop) == reference


@PROPERTY_SETTINGS
@given(
    simulation_scenarios(),
    st.booleans(),
    st.one_of(st.none(), _equivalences),
    st.lists(st.integers(0, 3), min_size=6, max_size=6),
)
def test_runs_are_the_reference_run(scenario, multi_hop, pairs, kept):
    """A run walks hops as the reference does and decides, logs and stores
    the same, with either predicate. A policy row is now and then missing,
    so that hops skip its flow and a record on it is refused alike."""
    pa, metas, records, clock = scenario
    metas = [meta for index, meta in enumerate(metas) if kept[index % len(kept)]]
    kwargs = {"multi_hop": multi_hop}
    if pairs is not None:
        kwargs["compatible"] = compatibility_with_equivalences(pairs)

    def run(simulate):
        return simulate(pa, metas, records, clock, **kwargs)

    assert _outcome(run, run_simulation) == _outcome(run, reference_run_simulation)


# --- edited PA-DFDs ---------------------------------------------------------------------


def _or_padfd_error(call, *args, **kwargs):
    """What `call` returns, or None when it raises a PadfdError; anything
    else it raises fails the test."""
    try:
        return call(*args, **kwargs)
    except PadfdError:
        return None


@PROPERTY_SETTINGS
@given(edited_pa_scenarios())
def test_an_edited_pa_dfd_that_validates_never_ends_in_a_traceback(scenario):
    """Every edit that changes a PA-DFD fails `validate_pa`, so the only
    edited model that gets past the gate is an unchanged rewrite. Laying
    out, writing and simulating any edit, as a library caller may, either
    work or raise a PadfdError: each original flow carries a record with
    consent, so a run reaches every limit and store it can."""
    original, pa = scenario
    assert validate_pa(pa).valid == (pa == original)
    laid = _or_padfd_error(layout_generated, pa)
    if laid is not None:
        _or_padfd_error(emit_drawio, laid)
    _or_padfd_error(emit_dot, pa)
    _or_padfd_error(emit_json, pa)
    guarded = sorted(flow_id for flow_id in original.flows if not flow_id.startswith("gen-"))
    metas = [FlowMeta(flow_id, "Records", "billing", True, "string") for flow_id in guarded]
    consent, expiry, clock = frozenset({"billing"}), date(2030, 1, 1), date(2020, 1, 1)
    records = [
        DataRecord(f"d{index}", flow_id, "SubA", consent, expiry, "")
        for index, flow_id in enumerate(guarded)
    ]
    for multi_hop in (False, True):
        report = _or_padfd_error(run_simulation, pa, metas, records, clock, multi_hop=multi_hop)
        if report is not None:
            _or_padfd_error(report_json, report)
            _or_padfd_error(render_report, report)
            _or_padfd_error(run_clean, report.state, clock)


# --- reports and tables -----------------------------------------------------------------


@PROPERTY_SETTINGS
@given(simulation_reports())
def test_report_json_is_the_reference_writer(report):
    assert report_json(report) == reference_report_json(report)


@PROPERTY_SETTINGS
@given(simulation_reports())
def test_report_to_dict_is_the_reference(report):
    """The reference dict, as its JSON text reads back: the dict itself,
    except that a text holding a surrogate pair as two code units, which
    only the API can build, reads back as the one character they spell."""
    assert report_to_dict(report) == json.loads(json.dumps(reference_report_to_dict(report)))


@PROPERTY_SETTINGS
@given(simulation_scenarios(), st.booleans())
def test_report_json_of_runs_is_the_reference_writer(scenario, multi_hop):
    pa, metas, records, clock = scenario
    report = run_simulation(pa, metas, records, clock, multi_hop=multi_hop)
    assert report_json(report) == reference_report_json(report)
    assert report_to_dict(report) == reference_report_to_dict(report)


@PROPERTY_SETTINGS
@given(simulation_reports())
@example(SimulationReport(date(2020, 1, 1), [], {}, StoreState()))
def test_render_report_is_the_reference_writer(report):
    assert render_report(report) == reference_render_report(report)


@PROPERTY_SETTINGS
@given(simulation_scenarios(), _equivalences)
def test_render_report_of_multi_hop_runs_is_the_reference_writer(scenario, pairs):
    pa, metas, records, clock = scenario
    report = run_simulation(
        pa, metas, records, clock,
        compatible=compatibility_with_equivalences(pairs), multi_hop=True,
    )
    assert render_report(report) == reference_render_report(report)


def _outcome(load, source):
    """What a loader returns, or the type and message of what it raises."""
    try:
        return load(source)
    except Exception as exc:  # compared, not hidden: both sides must agree
        return type(exc), str(exc)


@PROPERTY_SETTINGS
@given(st.text(alphabet=st.sampled_from(["a", ",", "\u00e9", "\ufeff", "\r", "\n", "\u2028"])))
def test_utf8_reader_reads_as_read_text(text):
    """The loaders' reader keeps `Path.read_text`'s universal newlines, and
    drops one leading byte order mark as the "utf-8-sig" codec does."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_utf8(path, "table") == path.read_text(encoding="utf-8-sig")


def _loads_like(load, reference, text: str) -> None:
    """`load` on a .csv file holding `text` does what `reference` does on
    the text the file reads back as (universal newlines)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        read_back = path.read_text(encoding="utf-8")
        assert _outcome(load, path) == _outcome(lambda text: reference(text, path), read_back)


@PROPERTY_SETTINGS
@given(csv_tables(DYNAMIC_COLUMNS))
def test_record_loader_reads_like_dict_reader(text):
    _loads_like(load_data_records, reference_parse_data_records, text)


@PROPERTY_SETTINGS
@given(csv_tables(STATIC_COLUMNS))
def test_policy_loader_reads_like_dict_reader(text):
    _loads_like(load_flow_metas, reference_parse_flow_metas, text)


# --- the cleaning pass ----------------------------------------------------------------


@settings(deadline=None)
@given(store_states(), dates)
def test_clean_matches_brute_force(state, clock):
    before = copy.deepcopy(state)
    cleaned, events = run_clean(state, clock)

    removed = set()
    for store, held in state.data.items():
        survivors = {
            d_id for d_id, stored in held.items() if stored.record.expiry >= clock
        }
        assert set(cleaned.data[store]) == survivors
        removed |= {(store, d_id) for d_id in set(held) - survivors}
        policy_store = state.partners[store]
        assert set(cleaned.policies[policy_store]) == survivors

    assert {(e.store, e.d_id) for e in events} == removed
    assert [(e.store, e.d_id) for e in events] == sorted(
        (e.store, e.d_id) for e in events
    )
    assert all(e.clock == clock for e in events)
    # Pure: the input state is untouched.
    assert state == before


@settings(deadline=None)
@given(store_states(), dates)
def test_clean_is_idempotent(state, clock):
    once, _ = run_clean(state, clock)
    twice, events = run_clean(once, clock)
    assert twice == once
    assert events == []
