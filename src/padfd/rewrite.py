"""The rewrite of a business diagram into a privacy-aware one, in two steps.

Typing: `typecheck` reads each plain flow between business nodes as the
kind `model.FLOW_BY_ENDS` names for its endpoint kinds, and a deletion
flow only as running a process into a data store. It returns the
well-formed diagram, or every finding as a `validate.Violation`: those of
`validate_raw` for content no raw diagram may hold, else its own
FLOW_CLAUSES and the connectivity findings of `validate.connectivity`.

Rewriting: `transform` gives every process a reason node and every data
store a policy store and a cleaning process, then replaces each data flow
with a gadget: a limit the data must pass, a request gathering the consent
that steers the limit, and a log chain recording the decision. The
original flow keeps its id and label, is retyped (a deletion to its
deletion variant) and is re-sourced at its limit, so nothing dangles. The
parts come from the role tables `model.HOLDER_PARTS` and
`model.GADGET_PARTS`, written a row at a time for all their owners with a
column of ids per role: the shape in which `validate.read_parts` reads
them back.
"""

from __future__ import annotations

from itertools import islice, repeat

from .errors import StageError, TransformError, WellFormednessError
from .graph import Diagram, Flow, Node
from .model import (
    EVIDENCE_ROLES, FLOW_BY_ENDS, GADGET_PARTS, HOLDER_PARTS, NODE_LOOKS,
    WELLFORMED_FLOW_ENDPOINTS, FlowType, NodeType, Stage,
)
from .validate import Violation, blocks_rewrite, connectivity, validate_raw, validate_wellformed

# Clause ids of the flow typing, which no option waives: a plain flow
# between endpoint kinds with no reading, a plain flow from a process to
# itself, and a deletion flow not running process -> data store.
FLOW_CLAUSES = frozenset({"pf-no-rule", "pf-loop", "df-no-rule"})

_DF_ENDS = WELLFORMED_FLOW_ENDPOINTS[FlowType.DELETE]


def _flow_violation(flow, source_type: NodeType, target_type: NodeType) -> Violation:
    pair = f"{source_type.value} -> {target_type.value}"
    if flow.flow_type is FlowType.PF:
        if FLOW_BY_ENDS.get((source_type, target_type)) is FlowType.COMP:
            return Violation(
                "pf-loop",
                flow.id,
                f"flow {flow.id!r} loops on process {flow.source!r}; "
                "inter-process flows need two distinct processes",
            )
        return Violation(
            "pf-no-rule",
            flow.id,
            f"plain flow {flow.id!r} runs {pair}; no flow kind reads that",
        )
    return Violation(
        "df-no-rule",
        flow.id,
        f"deletion flow {flow.id!r} runs {pair}; deletion must run proc -> db",
    )


def typecheck(
    diagram: Diagram, *, tolerate_connectivity: bool = False
) -> tuple[Diagram | None, list[Violation]]:
    """Type every flow and check connectivity.

    Returns the well-formed diagram and an empty list on success, or
    (None, violations) when anything is ill-formed. Violations are
    sorted by element id, then clause. With ``tolerate_connectivity``
    connectivity findings no longer block (for diagram excerpts): the
    typed diagram comes back alongside them, and only flow findings
    yield None. The input must be a raw diagram, else StageError; raw
    content that `validate_raw` refuses yields (None, its violations),
    which no option waives.
    """
    if diagram.stage is not Stage.RAW:
        raise StageError(f"typecheck expects a raw diagram, got {diagram.stage.value}")
    validity = validate_raw(diagram)
    if not validity.valid:
        return None, list(validity.violations)

    violations: list[Violation] = []
    typed_flows = {}
    nodes = diagram.nodes
    pf, comp, delete = FlowType.PF, FlowType.COMP, FlowType.DELETE
    for flow in diagram.flows.values():
        source_type = nodes[flow.source].node_type
        target_type = nodes[flow.target].node_type
        if flow.flow_type is pf:
            inferred = FLOW_BY_ENDS.get((source_type, target_type))
            # The inter-process reading needs two distinct processes.
            if inferred is comp and flow.source == flow.target:
                inferred = None
        else:  # validate_raw admits plain and deletion flows only
            inferred = delete if (source_type, target_type) == _DF_ENDS else None
        if inferred is None:
            violations.append(_flow_violation(flow, source_type, target_type))
        else:
            typed_flows[flow.id] = Flow(
                flow.id, flow.source, flow.target, inferred, flow.label, flow.partner, flow.extra
            )
    violations += connectivity(diagram)
    violations.sort(key=lambda v: (v.element, v.clause))
    if blocks_rewrite(violations, tolerate_connectivity):
        return None, violations
    return Diagram(Stage.WELLFORMED, diagram.nodes, typed_flows), violations


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

    Generated elements take the free ids "gen-0", "gen-1", ..., one per
    table row and owner: the `HOLDER_PARTS` rows of each node in sorted id
    order, then the `GADGET_PARTS` rows of each flow in sorted id order, so
    the tables fix every id. A shared log store is the `log_db` column
    holding the first flow's store for every flow; each flow still takes
    its own id for it, so later ids do not move. Generated elements enter
    the result's dicts row by row, after the diagram's own, which keep
    their places.
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
