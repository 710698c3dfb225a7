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
variant. A table is written a row at a time for all its owners (the
business nodes of one kind, or the guarded flows), each role held as a
column of ids, one per owner: the shape in which `validate.read_parts`,
the one reader of the same tables, reads them back.

Generated elements take ids "gen-0", "gen-1", ... skipping ids already in
use, one per table row and owner: first the rows of `HOLDER_PARTS` for
each node in sorted id order, then those of `GADGET_PARTS` for each flow
in sorted id order. The tables' row order thus fixes every id, and the
rewrite is deterministic. A shared log store is the `log_db` column
holding the first flow's store for every flow; each flow still takes its
own id for it, so later ids do not move. Generated elements enter the
result's dicts row by row, after the diagram's own, which keep their
places, so the elements of one row keep their owners' order.
"""

from __future__ import annotations

from itertools import islice, repeat

from .errors import StageError, TransformError, WellFormednessError
from .graph import Diagram, Flow, Node
from .model import (
    EVIDENCE_ROLES, FLOW_BY_ENDS, GADGET_PARTS, HOLDER_PARTS, NODE_LOOKS,
    WELLFORMED_FLOW_ENDPOINTS, FlowType, NodeType, Stage,
)
from .validate import validate_wellformed


def _fresh_ids(diagram: Diagram, n: int) -> list[str]:
    """The first n of the ids "gen-0", "gen-1", ... that the diagram does
    not use. Only its ids starting with "gen-" can collide with one."""
    taken = {i for ids in (diagram.nodes, diagram.flows) for i in ids if i.startswith("gen-")}
    return [i for i in map("gen-{}".format, range(n + len(taken))) if i not in taken][:n]


_RETYPE = {
    kind: FLOW_BY_ENDS[NodeType.LIMIT, ends[1]] for kind, ends in WELLFORMED_FLOW_ENDPOINTS.items()
}
_RETYPE[FlowType.DELETE] = FlowType.LIMDB_DEL
_LOG_DB_ROW = [part.role for part in GADGET_PARTS].index("log_db")


def _add_parts(nodes: dict, flows: dict, parts: tuple, roles: dict, ids: list) -> dict:
    """Add the parts of a role table around every owner, a row at a time,
    and return `roles`, each role's column of ids, with every row's added.
    Row j takes the ids `ids[j::len(parts)]`, one per owner, unless
    `roles` already gives its column; a node that column names twice (a
    shared log store) is added once."""
    for j, part in enumerate(parts):
        if part.role not in roles:
            roles[part.role] = ids[j::len(parts)]
    for part in parts:
        column = roles[part.role]
        partners = roles.get(part.partner, repeat(None))
        if part.kind is not None:
            label = NODE_LOOKS[part.kind].label
            nodes.update(zip(column, map(Node, column, repeat(part.kind), repeat(label), partners)))
        else:
            sources, targets = roles[part.source], roles[part.target]
            ends = zip(sources, targets)
            kinds = [FLOW_BY_ENDS[nodes[s].node_type, nodes[t].node_type] for s, t in ends]
            made = map(Flow, column, sources, targets, kinds, repeat(None), partners)
            flows.update(zip(column, made))
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
    guarded = [flows[flow_id] for flow_id in sorted(flows)]
    for flow in guarded:
        if flow.flow_type not in _RETYPE:
            raise TransformError(f"flow {flow.id!r} is not a well-formed data flow")
        for end in (flow.source, flow.target):
            end_type = nodes[end].node_type
            if end_type not in HOLDER_PARTS:
                type_name = end_type.value if end_type else None
                raise TransformError(
                    f"flow {flow.id!r} touches node {end!r} of type {type_name!r}; "
                    "only flows between entities, processes and stores can be guarded"
                )
    holders = [(i, nodes[i].node_type) for i in sorted(nodes) if nodes[i].node_type in HOLDER_PARTS]
    needed = sum(len(HOLDER_PARTS[kind]) for _, kind in holders) + len(GADGET_PARTS) * len(guarded)
    fresh = iter(_fresh_ids(diagram, needed))
    owners = {kind: [] for kind in HOLDER_PARTS}
    held = {kind: [] for kind in HOLDER_PARTS}
    for node_id, kind in holders:
        owners[kind].append(node_id)
        held[kind] += islice(fresh, len(HOLDER_PARTS[kind]))
    evidence = {}
    for kind, parts in HOLDER_PARTS.items():
        roles = _add_parts(nodes, flows, parts, {"owner": owners[kind]}, held[kind])
        for owner, holder in zip(owners[kind], roles[EVIDENCE_ROLES[kind]]):
            evidence[owner] = holder
            if holder != owner:
                node = nodes[owner]
                nodes[owner] = Node(owner, kind, node.label, holder, node.position, node.extra)
    ids = list(fresh)
    sources = [flow.source for flow in guarded]
    targets = [flow.target for flow in guarded]
    roles = {
        "flow": [flow.id for flow in guarded], "source": sources, "target": targets,
        "source_evidence": [evidence[end] for end in sources],
        "target_evidence": [evidence[end] for end in targets],
    }
    if shared_log_store:
        roles["log_db"] = ids[_LOG_DB_ROW:_LOG_DB_ROW + 1] * len(guarded)
    _add_parts(nodes, flows, GADGET_PARTS, roles, ids)
    for flow, limit, policy in zip(guarded, roles["limit"], roles["target_policy"]):
        flows[flow.id] = Flow(
            flow.id, limit, flow.target, _RETYPE[flow.flow_type], flow.label, policy, flow.extra
        )
    return Diagram(Stage.PA, nodes, flows)
