"""Rewrite a well-formed diagram into its privacy-aware counterpart.

The rewrite runs in two phases. Phase one gives every process a reason
node and every data store a policy store plus a cleaning process. Phase
two replaces each data flow with a gadget: a limit node the data must
pass, a request node that gathers the consent evidence steering the
limit, and a log chain recording the decision. The original flow keeps
its id and label, is retyped, and is re-sourced at its limit, so nothing
ever dangles and callers can still address it.

Both phases write from the two role tables in `model`: `HOLDER_PARTS`,
the parts around a business node by its kind, and `GADGET_PARTS`, the
parts around a guarded flow. Each row names a part's role, its node kind
or, for a flow, the roles at its two ends, and its partner's role; a
flow's kind is the one `model.FLOW_BY_ENDS` names for the kinds at its
ends, and the guarded flow of a deletion is retyped to its deletion
variant. `validate.read_parts` is the one reader of the same tables.

Generated elements take ids "gen-0", "gen-1", ... skipping ids already in
use, one per table row in row order: first the rows of `HOLDER_PARTS` for
each node in sorted id order, then those of `GADGET_PARTS` for each flow
in sorted id order. The tables' row order thus fixes every id, and the
rewrite is deterministic.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import count
from operator import itemgetter

from .errors import StageError, TransformError, WellFormednessError
from .graph import Diagram, Flow, Node
from .model import (
    EVIDENCE_ROLES, FLOW_BY_ENDS, GADGET_PARTS, HOLDER_PARTS, NODE_LOOKS,
    WELLFORMED_FLOW_ENDPOINTS, FlowType, NodeType, Stage,
)
from .validate import validate_wellformed


def _fresh_ids(diagram: Diagram) -> Iterator[str]:
    """The ids "gen-0", "gen-1", ... that the diagram does not use, in
    order. Only its ids starting with "gen-" can collide with one."""
    taken = {i for ids in (diagram.nodes, diagram.flows) for i in ids if i.startswith("gen-")}
    for number in count():
        candidate = f"gen-{number}"
        if candidate not in taken:
            yield candidate


_RETYPE = {
    kind: FLOW_BY_ENDS[NodeType.LIMIT, ends[1]] for kind, ends in WELLFORMED_FLOW_ENDPOINTS.items()
}
_RETYPE[FlowType.DELETE] = FlowType.LIMDB_DEL


def _writes(parts: tuple) -> tuple:
    """Each part of a table as the rewrite writes it: its role, its node
    kind and label, the roles at its ends, its partner's role, and the
    kind of a flow whose ends are both nodes of the table, which is fixed."""
    kinds = {part.role: part.kind for part in parts if part.kind is not None}
    return tuple(
        (
            part.role, part.kind, part.kind and NODE_LOOKS[part.kind].label, part.source,
            part.target, part.partner,
            FLOW_BY_ENDS.get((kinds.get(part.source), kinds.get(part.target))),
        )
        for part in parts
    )


_ROLE = itemgetter(0)
_GADGET_WRITES = _writes(GADGET_PARTS)
_HOLDER_WRITES = {kind: _writes(parts) for kind, parts in HOLDER_PARTS.items()}


def _add_parts(nodes: dict, flows: dict, ids: Iterator[str], writes: tuple, given: dict) -> dict:
    """Add the parts `writes` lists around the elements `given` names by
    role, taking one id per part in row order, and return every role's id.
    A part whose role is given already (a shared log store) still takes
    its id, so later ids do not move, and is not added again."""
    roles = dict(zip(map(_ROLE, writes), ids))
    roles.update(given)
    for role, kind, label, source, target, partner, fixed_kind in writes:
        part_id = roles[role]
        if kind is None:
            source, target = roles[source], roles[target]
            kind = fixed_kind or FLOW_BY_ENDS[nodes[source].node_type, nodes[target].node_type]
            flows[part_id] = Flow(part_id, source, target, kind, None, roles.get(partner))
        elif part_id not in nodes:
            nodes[part_id] = Node(part_id, kind, label, roles.get(partner))
    return roles


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
    ids = _fresh_ids(diagram)
    evidence = {}
    for node_id in sorted(diagram.nodes):
        node = nodes[node_id]
        kind = node.node_type
        if kind in HOLDER_PARTS:
            roles = _add_parts(nodes, flows, ids, _HOLDER_WRITES[kind], {"owner": node_id})
            evidence[node_id] = roles[EVIDENCE_ROLES[kind]]
            if evidence[node_id] != node_id:
                nodes[node_id] = Node(
                    node_id, kind, node.label, evidence[node_id], node.position, node.extra
                )
    shared = {}
    for flow_id in sorted(diagram.flows):
        flow = flows[flow_id]
        if flow.flow_type not in _RETYPE:
            raise TransformError(f"flow {flow_id!r} is not a well-formed data flow")
        if flow.source not in evidence or flow.target not in evidence:
            end = flow.source if flow.source not in evidence else flow.target
            end_type = nodes[end].node_type
            type_name = end_type.value if end_type else None
            raise TransformError(
                f"flow {flow_id!r} touches node {end!r} of type {type_name!r}; "
                "only flows between entities, processes and stores can be guarded"
            )
        given = {
            "flow": flow_id, "source": flow.source, "target": flow.target,
            "source_evidence": evidence[flow.source], "target_evidence": evidence[flow.target],
            **shared,
        }
        roles = _add_parts(nodes, flows, ids, _GADGET_WRITES, given)
        flows[flow_id] = Flow(
            flow_id, roles["limit"], flow.target, _RETYPE[flow.flow_type], flow.label,
            roles["target_policy"], flow.extra,
        )
        if shared_log_store:
            shared = {"log_db": roles["log_db"]}
    return Diagram(Stage.PA, nodes, flows)

