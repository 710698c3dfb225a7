"""Rewrite a well-formed diagram into its privacy-aware counterpart.

The rewrite runs in two phases. Phase one gives every process a reason
node and every data store a policy store plus a cleaning process. Phase
two replaces each data flow with a gadget: a limit node the data must
pass, a request node that gathers the consent evidence steering the
limit, and a log chain recording the decision. The original flow keeps
its id and label, is retyped, and is re-sourced at its limit, so nothing
ever dangles and callers can still address it. Every flow kind written is
the one `model.FLOW_BY_ENDS` names for its endpoint kinds, save that a
deletion is retyped to its deletion variant.

Generated elements take ids "gen-0", "gen-1", ... skipping ids already in
use; allocation order is fixed (nodes in sorted id order, then flows in
sorted id order), so the rewrite is deterministic. ``gadget_index`` reads
the wiring back from a privacy-aware diagram for the simulator and the
layout.
"""

from __future__ import annotations

from .errors import StageError, TransformError, WellFormednessError, WrongFlowTypeError
from .graph import Diagram, Flow, FlowId, Node, NodeId, Record
from .model import FLOW_BY_ENDS, NODE_LOOKS, WELLFORMED_FLOW_ENDPOINTS, FlowType, NodeType, Stage
from .validate import validate_wellformed


class _FreshIds:
    """Deterministic generator of ids unused in a diagram. Only its ids
    starting with "gen-" can collide with a candidate, and candidates only
    increase, so those are all it needs to remember."""

    def __init__(self, diagram: Diagram):
        self._taken = {
            i for ids in (diagram.nodes, diagram.flows) for i in ids if i.startswith("gen-")
        }
        self._next = 0

    def take(self) -> str:
        while True:
            candidate = f"gen-{self._next}"
            self._next += 1
            if candidate not in self._taken:
                return candidate


# Where a business node's consent evidence sits: an entity holds its own,
# a process its reason, a store its policy store (partnered in phase one).
_EVIDENCE: dict[NodeType, NodeType] = {
    NodeType.EXT: NodeType.EXT,
    NodeType.PROC: NodeType.REASON,
    NodeType.DB: NodeType.POLICY_DB,
}
(_POLICY_SELF,) = (kind for kind, evidence in _EVIDENCE.items() if kind is evidence)

# The kinds written, read off FLOW_BY_ENDS once. The maps used per flow
# stay keyed by one kind, as Enum.__hash__ is Python code, and the kinds
# are globals: reading a member such as NodeType.LIMIT goes through the
# slot hook that EnumType.__getattr__ installs, about ten times slower.
_LIMIT, _REQUEST, _LOG, _LOG_DB = NodeType.LIMIT, NodeType.REQUEST, NodeType.LOG, NodeType.LOG_DB
_REQLIM = FLOW_BY_ENDS[_REQUEST, _LIMIT]
_LIMLOG = FLOW_BY_ENDS[_LIMIT, _LOG]
_LOGGING = FLOW_BY_ENDS[_LOG, _LOG_DB]
_PDBCLE = FLOW_BY_ENDS[NodeType.POLICY_DB, NodeType.CLEAN]
_CLEDB_DEL = FLOW_BY_ENDS[NodeType.CLEAN, NodeType.DB]
# By endpoint kind: data into the limit, evidence into and out of the request.
_DATA_IN = {kind: FLOW_BY_ENDS[kind, _LIMIT] for kind in _EVIDENCE}
_SOURCE_POLICY = {kind: FLOW_BY_ENDS[evidence, _REQUEST] for kind, evidence in _EVIDENCE.items()}
_TARGET_POLICY = {kind: FLOW_BY_ENDS[_REQUEST, evidence] for kind, evidence in _EVIDENCE.items()}
_RETYPE = {kind: FLOW_BY_ENDS[_LIMIT, ends[1]] for kind, ends in WELLFORMED_FLOW_ENDPOINTS.items()}
_RETYPE[FlowType.DELETE] = FlowType.LIMDB_DEL


def _make_node(node_id: NodeId, node_type: NodeType, partner: NodeId | None = None) -> Node:
    return Node(node_id, node_type, NODE_LOOKS[node_type].label, partner)


def _with_partner(node: Node, partner: NodeId) -> Node:
    return Node(node.id, node.node_type, node.label, partner, node.position, node.extra)


def _add_partner_elems(nodes: dict, flows: dict, ids: _FreshIds, node_id: NodeId) -> None:
    node = nodes[node_id]
    evidence = _EVIDENCE.get(node.node_type, node.node_type)
    if evidence is node.node_type:
        return
    partner_id = ids.take()
    nodes[partner_id] = _make_node(partner_id, evidence, node_id)
    nodes[node_id] = _with_partner(node, partner_id)
    if evidence is NodeType.POLICY_DB:
        clean_id, to_clean, clean_delete = (ids.take() for _ in range(3))
        nodes[clean_id] = _make_node(clean_id, NodeType.CLEAN)
        flows[to_clean] = Flow(to_clean, partner_id, clean_id, _PDBCLE)
        flows[clean_delete] = Flow(clean_delete, clean_id, node_id, _CLEDB_DEL)


def _policy_anchor(node: Node) -> NodeId:
    """The node holding the consent evidence for a business node."""
    return node.id if node.node_type is _POLICY_SELF else node.partner


def _rewrite_flow(
    nodes: dict, flows: dict, ids: _FreshIds, flow_id: FlowId, shared_log_db: NodeId | None
) -> NodeId:
    """Guard one flow and return its log store. Given a shared store, the
    flow still takes an id for its own, so later ids do not move."""
    flow = flows[flow_id]
    source = nodes[flow.source]
    target = nodes[flow.target]
    limit_id, request_id, log_id, log_db_id = (ids.take() for _ in range(4))
    nodes[limit_id] = _make_node(limit_id, _LIMIT, request_id)
    nodes[request_id] = _make_node(request_id, _REQUEST, limit_id)
    nodes[log_id] = _make_node(log_id, _LOG)
    if shared_log_db is None:
        nodes[log_db_id] = _make_node(log_db_id, _LOG_DB)
    else:
        log_db_id = shared_log_db
    reqlim_id, limlog_id, logging_id = (ids.take() for _ in range(3))
    flows[reqlim_id] = Flow(reqlim_id, request_id, limit_id, _REQLIM)
    flows[limlog_id] = Flow(limlog_id, limit_id, log_id, _LIMLOG)
    flows[logging_id] = Flow(logging_id, log_id, log_db_id, _LOGGING)

    data_in_id, source_policy_id, target_policy_id = (ids.take() for _ in range(3))
    flows[data_in_id] = Flow(
        data_in_id, flow.source, limit_id, _DATA_IN[source.node_type], None, source_policy_id
    )
    flows[source_policy_id] = Flow(
        source_policy_id, _policy_anchor(source), request_id,
        _SOURCE_POLICY[source.node_type], None, data_in_id,
    )
    flows[target_policy_id] = Flow(
        target_policy_id, request_id, _policy_anchor(target),
        _TARGET_POLICY[target.node_type], None, flow_id,
    )
    flows[flow_id] = Flow(
        flow_id, limit_id, flow.target, _RETYPE[flow.flow_type], flow.label, target_policy_id,
        flow.extra,
    )
    return log_db_id


def transform(
    diagram: Diagram, *, shared_log_store: bool = False, check: bool = True
) -> Diagram:
    """Rewrite a well-formed diagram into a privacy-aware one.

    Every original element survives with id, label, and position intact;
    original flows are retyped and re-sourced at their limit. With
    ``check=False`` the well-formedness gate is skipped (the rewrite is
    still total on typed flows), which permits rewriting excerpts of
    larger diagrams. A diagram of |N| nodes, P processes, D stores and F
    flows becomes one of |N|+P+2D+4F nodes and 7F+2D flows.
    ``shared_log_store=True`` gives every log chain one log store, the
    first the rewrite creates, and leaves the diagram's own nodes
    untouched: |N|+P+2D+3F+1 nodes for F >= 1, and still 7F+2D flows.
    """
    if diagram.stage is Stage.PA:
        raise StageError("diagram is already privacy-aware; the rewrite is not idempotent")
    if check:
        validity = validate_wellformed(diagram)
        if not validity.valid:
            raise WellFormednessError(
                "diagram is not well-formed; rewrite refused", validity.violations
            )
    nodes = dict(diagram.nodes)
    flows = dict(diagram.flows)
    ids = _FreshIds(diagram)
    shared_log_db = None
    original_flows = sorted(diagram.flows)
    for node_id in sorted(diagram.nodes):
        _add_partner_elems(nodes, flows, ids, node_id)
    for flow_id in original_flows:
        flow = flows[flow_id]
        if flow.flow_type not in _RETYPE:
            raise WrongFlowTypeError(
                f"flow {flow_id!r} is not a well-formed data flow"
            )
        for end in (flow.source, flow.target):
            end_type = nodes[end].node_type
            if end_type not in _DATA_IN:
                type_name = end_type.value if end_type else None
                raise TransformError(
                    f"flow {flow_id!r} touches node {end!r} of type {type_name!r}; "
                    "only flows between entities, processes and stores can be guarded"
                )
        log_db_id = _rewrite_flow(nodes, flows, ids, flow_id, shared_log_db)
        if shared_log_store:
            shared_log_db = log_db_id
    return Diagram(Stage.PA, nodes, flows)


class Gadget(Record):
    """The wiring around one guarded flow of a privacy-aware diagram.
    Parts the diagram lacks are None; `source` is the original source,
    feeding the limit."""

    def __init__(
        self, flow: FlowId, limit: NodeId, source: NodeId | None, log: NodeId | None,
        log_db: NodeId | None,
    ) -> None:
        d = self.__dict__
        d["flow"] = flow
        d["limit"] = limit
        d["source"] = source
        d["log"] = log
        d["log_db"] = log_db


_DATA_IN_TYPES = frozenset(_DATA_IN.values())
# The guarded descendants of an original data flow after rewriting.
_GUARDED_FLOW_TYPES = frozenset(_RETYPE.values())


def gadget_index(diagram: Diagram) -> dict[FlowId, Gadget]:
    """Read back the gadget of every guarded flow, keyed by flow id.

    Gadgets are listed in the diagram order of their logging flows, those
    without a log chain last. A caller keeping the last gadget per log
    store thus keeps the one whose logging flow comes last.
    """
    source_of: dict[NodeId, NodeId] = {}
    log_of: dict[NodeId, NodeId] = {}
    log_db_of: dict[NodeId, NodeId] = {}
    guarded = []
    for flow in diagram.flows.values():
        kind = flow.flow_type
        if kind in _DATA_IN_TYPES:
            source_of[flow.target] = flow.source
        elif kind is _LIMLOG:
            log_of[flow.source] = flow.target
        elif kind is _LOGGING:
            log_db_of[flow.source] = flow.target
        elif kind in _GUARDED_FLOW_TYPES:
            guarded.append(flow)
    rank = {log: position for position, log in enumerate(log_db_of)}
    guarded.sort(key=lambda flow: rank.get(log_of.get(flow.source), len(rank)))
    gadgets = {}
    for flow in guarded:
        log = log_of.get(flow.source)
        gadgets[flow.id] = Gadget(
            flow.id, flow.source, source_of.get(flow.source), log, log_db_of.get(log)
        )
    return gadgets
