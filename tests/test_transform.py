from __future__ import annotations

from collections import Counter

import pytest

from padfd import (
    Diagram,
    Flow,
    FlowType,
    Node,
    NodeType,
    Stage,
    StageError,
    TransformError,
    WellFormednessError,
    transform,
    typecheck,
    validate_pa,
)
from padfd.model import GADGET_PARTS, PA_FLOW_TYPES

from helpers import (
    build_all_kinds,
    build_diagram,
    build_estore_raw,
    build_excerpt,
    gadget_roles,
    replace,
)


def estore_wellformed() -> Diagram:
    wellformed, diagnostics = typecheck(build_estore_raw())
    assert diagnostics == []
    return wellformed


def count_kinds(d: Diagram) -> tuple[int, int, int]:
    """(processes, data stores, well-formed data flows) of the input."""
    procs = sum(1 for n in d.nodes.values() if n.node_type is NodeType.PROC)
    dbs = sum(1 for n in d.nodes.values() if n.node_type is NodeType.DB)
    return procs, dbs, len(d.flows)


# --- phase one -------------------------------------------------------------
# transform runs the partner phase first, so its elements are the first
# generated ones: nodes in sorted id order, each with its admin flows.


def test_add_partners_counts_and_links():
    d = estore_wellformed()
    procs, dbs, _ = count_kinds(d)
    pa = transform(d)
    kinds = Counter(n.node_type for n in pa.nodes.values())
    assert (kinds[NodeType.REASON], kinds[NodeType.POLICY_DB], kinds[NodeType.CLEAN]) == (
        procs,
        dbs,
        dbs,
    )
    flow_kinds = Counter(f.flow_type for f in pa.flows.values())
    assert flow_kinds[FlowType.PDBCLE] == flow_kinds[FlowType.CLEDB_DEL] == dbs

    for node_id, node in d.nodes.items():
        mate_id = pa.nodes[node_id].partner
        if node.node_type is NodeType.PROC:
            mate = pa.nodes[mate_id]
            assert mate.node_type is NodeType.REASON
            assert mate.partner == node_id
        elif node.node_type is NodeType.DB:
            mate = pa.nodes[mate_id]
            assert mate.node_type is NodeType.POLICY_DB
            assert mate.partner == node_id
        else:
            assert mate_id is None


def test_add_partners_cleaning_wiring():
    pa = transform(estore_wellformed())
    policy = next(n for n in pa.nodes.values() if n.node_type is NodeType.POLICY_DB)
    clean = next(n for n in pa.nodes.values() if n.node_type is NodeType.CLEAN)
    assert clean.partner is None
    to_clean = [f for f in pa.flows.values() if f.flow_type is FlowType.PDBCLE]
    from_clean = [f for f in pa.flows.values() if f.flow_type is FlowType.CLEDB_DEL]
    assert [(f.source, f.target) for f in to_clean] == [(policy.id, clean.id)]
    assert [(f.source, f.target) for f in from_clean] == [(clean.id, policy.partner)]


def test_add_partners_refuses_partnered_input():
    pa = transform(estore_wellformed())
    partnered = replace(
        estore_wellformed(),
        nodes={node_id: pa.nodes[node_id] for node_id in estore_wellformed().nodes},
    )
    with pytest.raises(WellFormednessError) as exc:
        transform(partnered)
    assert {v.clause for v in exc.value.violations} == {"partner-unexpected"}


def test_add_partners_deterministic_ids():
    pa = transform(estore_wellformed())
    # Nodes processed in sorted id order: db_customer first (policy store,
    # cleaner, two admin flows), then the three processes.
    assert pa.nodes["gen-0"].node_type is NodeType.POLICY_DB
    assert pa.nodes["gen-0"].partner == "db_customer"
    assert pa.nodes["gen-1"].node_type is NodeType.CLEAN
    assert pa.flows["gen-2"].flow_type is FlowType.PDBCLE
    assert pa.flows["gen-3"].flow_type is FlowType.CLEDB_DEL
    assert pa.nodes["gen-4"].partner == "p_account"
    assert pa.nodes["gen-5"].partner == "p_cart"
    assert pa.nodes["gen-6"].partner == "p_info"


# --- shared gadget elements -------------------------------------------------


def test_add_common_elems_allocation():
    pa = transform(estore_wellformed())
    gadget = gadget_roles(pa)["f1"]
    limit = pa.nodes[gadget["limit"]]
    request = pa.nodes[limit.partner]
    assert limit.node_type is NodeType.LIMIT
    assert request.node_type is NodeType.REQUEST and request.partner == limit.id
    assert pa.nodes[gadget["log"]].node_type is NodeType.LOG
    assert pa.nodes[gadget["log_db"]].node_type is NodeType.LOG_DB
    assert gadget["source"] == "customer"

    def wiring(flow_type):
        return [(f.source, f.target) for f in pa.flows.values() if f.flow_type is flow_type]

    assert (request.id, limit.id) in wiring(FlowType.REQLIM)
    assert (limit.id, gadget["log"]) in wiring(FlowType.LIMLOG)
    assert (gadget["log"], gadget["log_db"]) in wiring(FlowType.LOGGING)


def test_gadget_roles_map_each_role_to_its_id():
    """`read_parts` reads every guarded flow's gadget back whole: one id
    per role, and the flows in diagram order."""
    pa = transform(estore_wellformed())
    gadgets = gadget_roles(pa)
    assert list(gadgets) == [flow_id for flow_id in pa.flows if not flow_id.startswith("gen-")]
    roles = {"flow", "source", "target", *(part.role for part in GADGET_PARTS)}
    for flow_id, gadget in gadgets.items():
        assert gadget.keys() == roles | {"source_evidence", "target_evidence"}
        assert gadget["flow"] == flow_id and None not in gadget.values()
        assert pa.flows[gadget["reqlim"]].target == pa.flows[flow_id].source == gadget["limit"]


def test_gadget_roles_report_missing_parts():
    pa = transform(build_all_kinds())
    limlog = next(
        f.id
        for f in pa.flows.values()
        if f.flow_type is FlowType.LIMLOG and f.source == pa.flows["f_in"].source
    )
    flows = {k: f for k, f in pa.flows.items() if k != limlog}
    gadget = gadget_roles(replace(pa, flows=flows))["f_in"]
    assert gadget["limit"] == pa.flows["f_in"].source
    assert gadget["source"] == "vendor"
    assert (gadget["log"], gadget["log_db"]) == (None, None)


# --- per-kind rewrites -------------------------------------------------------

# For each flow kind: (fixture flow id, retyped kind, data-in kind,
# source-policy kind, target-policy kind).
KIND_TABLE = [
    ("f_in", FlowType.LIMPRO, FlowType.EXTLIM, FlowType.EXTREQ, FlowType.REQREA),
    ("f_out", FlowType.LIMEXT, FlowType.PROLIM, FlowType.REAREQ, FlowType.REQEXT),
    ("f_comp", FlowType.LIMPRO, FlowType.PROLIM, FlowType.REAREQ, FlowType.REQREA),
    ("f_store", FlowType.LIMDB, FlowType.PROLIM, FlowType.REAREQ, FlowType.REQPDB),
    ("f_read", FlowType.LIMPRO, FlowType.DBLIM, FlowType.PDBREQ, FlowType.REQREA),
    ("f_del", FlowType.LIMDB_DEL, FlowType.PROLIM, FlowType.REAREQ, FlowType.REQPDB),
]


@pytest.mark.parametrize(
    "flow_id,retyped,data_in,source_policy,target_policy",
    KIND_TABLE,
    ids=[row[0] for row in KIND_TABLE],
)
def test_per_kind_rewrite(flow_id, retyped, data_in, source_policy, target_policy):
    base = build_all_kinds()
    before = base.flows[flow_id]
    out = transform(base)
    gadget = gadget_roles(out)[flow_id]

    rewritten = out.flows[flow_id]
    assert rewritten.flow_type is retyped
    assert rewritten.label == before.label
    assert rewritten.target == before.target
    assert rewritten.source == gadget["limit"]
    limit = out.nodes[gadget["limit"]]
    assert limit.node_type is NodeType.LIMIT
    request = out.nodes[limit.partner]

    # Data enters the limit from the original source.
    assert gadget["source"] == before.source
    (feed,) = [
        f
        for f in out.flows.values()
        if f.target == limit.id and f.flow_type is not FlowType.REQLIM
    ]
    assert (feed.flow_type, feed.source) == (data_in, before.source)

    # Consent evidence comes from the source's anchor and reaches the
    # target's anchor through the request node; partner links pair data
    # with policy, and the rewritten flow with the grant that allows it.
    def anchor(node_id):
        node = out.nodes[node_id]
        return node_id if node.node_type is NodeType.EXT else node.partner

    evidence = out.flows[feed.partner]
    grant = out.flows[rewritten.partner]
    assert (evidence.flow_type, evidence.source, evidence.target) == (
        source_policy,
        anchor(before.source),
        request.id,
    )
    assert (grant.flow_type, grant.source, grant.target) == (
        target_policy,
        request.id,
        anchor(before.target),
    )
    assert evidence.partner == feed.id
    assert grant.partner == flow_id

    # The request steers the limit, and the limit's decision is logged.
    wiring = {(f.flow_type, f.source, f.target) for f in out.flows.values()}
    assert (FlowType.REQLIM, request.id, limit.id) in wiring
    assert (FlowType.LIMLOG, limit.id, gadget["log"]) in wiring
    assert (FlowType.LOGGING, gadget["log"], gadget["log_db"]) in wiring


def test_transform_rejects_flows_without_a_gadget():
    raw = replace(build_all_kinds(), stage=Stage.RAW)
    pf = replace(raw.flows["f_in"], flow_type=FlowType.PF)
    with pytest.raises(TransformError, match="'f_in' is not a well-formed data flow"):
        transform(replace(raw, flows={**raw.flows, "f_in": pf}), check=False)


@pytest.mark.parametrize(
    "node, direction",
    [
        (Node("a", NodeType.LIMIT), "in"),
        (Node("a", NodeType.LOG_DB), "out"),
        (Node("a"), "in"),
    ],
)
def test_transform_refuses_flows_touching_non_business_nodes(node, direction):
    # Only reachable with check=False: validation rejects such endpoints first.
    ends = ("a", "p") if direction == "in" else ("p", "a")
    flow_type = FlowType.IN if direction == "in" else FlowType.OUT
    d = build_diagram(
        Stage.WELLFORMED, [node, Node("p", NodeType.PROC)], [Flow("f", *ends, flow_type)]
    )
    type_name = node.node_type.value if node.node_type else None
    with pytest.raises(TransformError, match=f"flow 'f' touches node 'a' of type {type_name!r}"):
        transform(d, check=False)


# --- whole-diagram rewrite ---------------------------------------------------


@pytest.mark.parametrize("builder", [estore_wellformed, build_all_kinds])
def test_transform_counting_laws(builder):
    d = builder()
    procs, dbs, flows = count_kinds(d)
    pa = transform(d)
    assert pa.stage is Stage.PA
    assert len(pa.nodes) == len(d.nodes) + procs + 2 * dbs + 4 * flows
    assert len(pa.flows) == 7 * flows + 2 * dbs
    assert validate_pa(pa).valid


def test_transform_estore_exact_counts():
    pa = transform(estore_wellformed())
    assert (len(pa.nodes), len(pa.flows)) == (34, 44)


def test_transform_covers_every_flow_type():
    pa = transform(build_all_kinds())
    assert {f.flow_type for f in pa.flows.values()} == set(PA_FLOW_TYPES)
    assert len(PA_FLOW_TYPES) == 18


def test_transform_preserves_business_elements():
    d = estore_wellformed()
    pa = transform(d)
    for node_id, node in d.nodes.items():
        kept = pa.nodes[node_id]
        assert kept.node_type is node.node_type
        assert kept.label == node.label
    for flow_id, flow in d.flows.items():
        kept = pa.flows[flow_id]
        assert kept.label == flow.label
        assert kept.target == flow.target
        assert pa.nodes[kept.source].node_type is NodeType.LIMIT


def test_transform_no_dangling_flows():
    pa = transform(build_all_kinds())
    for flow in pa.flows.values():
        assert flow.source in pa.nodes
        assert flow.target in pa.nodes


def test_transform_gadget_isolation():
    """Each limit guards exactly one flow: one data feed, one steering
    flow, one log tap, one guarded output."""
    pa = transform(estore_wellformed())
    for node in pa.nodes.values():
        if node.node_type is not NodeType.LIMIT:
            continue
        incoming = [f for f in pa.flows.values() if f.target == node.id]
        outgoing = [f for f in pa.flows.values() if f.source == node.id]
        in_types = sorted(f.flow_type.value for f in incoming)
        assert len(incoming) == 2 and "reqlim" in in_types
        assert len(outgoing) == 2
        assert {f.flow_type for f in outgoing} & {FlowType.LIMLOG}


def test_transform_is_deterministic():
    first = transform(build_all_kinds())
    second = transform(build_all_kinds())
    assert first == second


def test_transform_does_not_mutate_input():
    d = estore_wellformed()
    nodes_before = dict(d.nodes)
    flows_before = dict(d.flows)
    transform(d)
    assert d.nodes == nodes_before
    assert d.flows == flows_before
    assert d.stage is Stage.WELLFORMED


def test_transform_fresh_ids_skip_taken():
    d = build_diagram(
        Stage.WELLFORMED,
        [Node("gen-0", NodeType.EXT, label="Entity"), Node("p", NodeType.PROC)],
        [
            Flow("f_a", "gen-0", "p", FlowType.IN),
            Flow("f_b", "p", "gen-0", FlowType.OUT),
        ],
    )
    pa = transform(d)
    assert pa.nodes["gen-0"].node_type is NodeType.EXT
    assert pa.nodes["gen-1"].node_type is NodeType.REASON
    assert len(pa.nodes) == 2 + 1 + 8
    assert len(pa.flows) == 14
    # A taken id among the gadget rows' ids: the first gadget (f_a) takes
    # gen-1..gen-4 and gen-6..gen-11, the second (flow gen-5) gen-12..gen-21,
    # and a shared log store moves no id.
    d = build_diagram(
        Stage.WELLFORMED,
        [Node("e", NodeType.EXT), Node("p", NodeType.PROC)],
        [Flow("f_a", "e", "p", FlowType.IN), Flow("gen-5", "p", "e", FlowType.OUT)],
    )
    for shared, stores in ((False, {"gen-4", "gen-15"}), (True, {"gen-4"})):
        pa = transform(d, shared_log_store=shared)
        assert pa.nodes["p"].partner == "gen-0"
        assert (pa.flows["f_a"].source, pa.flows["gen-5"].source) == ("gen-1", "gen-12")
        reqlim = pa.flows["gen-6"]
        assert reqlim.flow_type is FlowType.REQLIM
        assert (reqlim.source, reqlim.target) == ("gen-2", "gen-1")
        assert pa.flows["gen-21"].partner == "gen-5"
        assert {i for i, n in pa.nodes.items() if n.node_type is NodeType.LOG_DB} == stores
        generated = {*pa.nodes, *pa.flows} - {*d.nodes, *d.flows}
        assert max(int(i[len("gen-"):]) for i in generated) == 21


def test_transform_rejects_pa_input():
    pa = transform(build_all_kinds())
    with pytest.raises(StageError):
        transform(pa)


def test_transform_rejects_ill_formed():
    with pytest.raises(WellFormednessError) as exc:
        transform(build_excerpt())
    assert exc.value.violations


def test_transform_excerpt_unchecked():
    pa = transform(build_excerpt(), check=False)
    assert (len(pa.nodes), len(pa.flows)) == (13, 14)
    for flow in pa.flows.values():
        assert flow.source in pa.nodes
        assert flow.target in pa.nodes


def test_transform_raw_input_needs_typing_first():
    raw = build_estore_raw()
    with pytest.raises(WellFormednessError):
        transform(raw)


# --- log store merging -------------------------------------------------------


def test_merge_log_stores():
    pa = transform(build_all_kinds())
    merged = transform(build_all_kinds(), shared_log_store=True)
    log_dbs = [n for n in merged.nodes.values() if n.node_type is NodeType.LOG_DB]
    assert len(log_dbs) == 1
    keep = log_dbs[0].id
    logging_flows = [
        f for f in merged.flows.values() if f.flow_type is FlowType.LOGGING
    ]
    assert len(logging_flows) == 6
    assert all(f.target == keep for f in logging_flows)
    assert len(merged.nodes) == len(pa.nodes) - 5
    assert len(merged.flows) == len(pa.flows)


def test_merge_log_stores_keeps_first():
    pa = transform(build_all_kinds())
    first = next(
        n.id for n in pa.nodes.values() if n.node_type is NodeType.LOG_DB
    )
    merged = transform(build_all_kinds(), shared_log_store=True)
    assert first in merged.nodes


def test_merge_log_stores_single_store_noop():
    # One guarded flow has one log store: nothing to merge.
    excerpt = build_excerpt()
    excerpt = replace(excerpt, flows={"f_info": excerpt.flows["f_info"]})
    merged = transform(excerpt, check=False, shared_log_store=True)
    assert merged == transform(excerpt, check=False)


def test_shared_log_store_counting_laws():
    d = build_all_kinds()
    procs, dbs, flows = count_kinds(d)
    shared = transform(d, shared_log_store=True)
    assert len(shared.nodes) == len(d.nodes) + procs + 2 * dbs + 3 * flows + 1
    assert len(shared.flows) == 7 * flows + 2 * dbs
    assert validate_pa(shared).valid


def test_shared_log_store_leaves_the_diagrams_own_log_stores():
    own = [
        Node("L1", NodeType.LOG_DB, label="Audit 1", position=(0.0, 400.0)),
        Node("L2", NodeType.LOG_DB, label="Audit 2", position=(80.0, 400.0)),
    ]
    excerpt = build_excerpt()
    d = build_diagram(Stage.WELLFORMED, [*excerpt.nodes.values(), *own], excerpt.flows.values())
    shared = transform(d, check=False, shared_log_store=True)
    assert [shared.nodes["L1"], shared.nodes["L2"]] == own
    generated = [
        n.id for n in shared.nodes.values()
        if n.node_type is NodeType.LOG_DB and n.id.startswith("gen-")
    ]
    assert len(generated) == 1
    logging_flows = [f for f in shared.flows.values() if f.flow_type is FlowType.LOGGING]
    assert len(logging_flows) == len(excerpt.flows)
    assert {f.target for f in logging_flows} == set(generated)


def test_transform_shared_log_store_flag():
    """The flag drops every log store but the first and retargets the
    logging flows at it; nothing else changes."""
    pa = transform(build_all_kinds())
    keep = next(n.id for n in pa.nodes.values() if n.node_type is NodeType.LOG_DB)
    assert transform(build_all_kinds(), shared_log_store=True) == replace(
        pa,
        nodes={
            nid: n
            for nid, n in pa.nodes.items()
            if n.node_type is not NodeType.LOG_DB or nid == keep
        },
        flows={
            fid: replace(f, target=keep) if f.flow_type is FlowType.LOGGING else f
            for fid, f in pa.flows.items()
        },
    )
