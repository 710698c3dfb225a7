"""Stage validators.

Each validator checks the full membership condition of one lifecycle stage,
one row of the table `_STAGES`, in one walk over the diagram (the
privacy-aware stage then reads every gadget back), and reports every
violation rather than stopping at the first. Violations carry a
stable clause id so tests and tooling can match on them:

    dangling-flow        flow endpoint references a missing node
    node-untyped         node carries no type
    flow-untyped         flow carries no type
    node-type            node type outside the stage's vocabulary
    flow-type            flow type outside the stage's vocabulary
    partner-unexpected   partner attribute present before the rewrite stage
    flow-endpoints       typed flow with incompatible endpoint kinds
    comp-loop            inter-process flow from a process to itself
    proc-source-target   process missing an incoming or outgoing flow
    ext-connected        external entity with no flow at all
    db-connected         data store with no flow at all
    partner-missing      partner references a missing element
    partner-asymmetric   partner link not mutual
    gadget-part          guarded flow, process or store lacking a part the
                         rewrite adds, or one wired otherwise than it wires it
    gadget-shared        generated part that more than one guarded flow or
                         business node holds; only a log store may be shared
    gadget-unclaimed     generated node or privacy-aware flow of no gadget

The gadget clauses come from `read_parts`, the one reader of the
rewrite's role tables (`model.GADGET_PARTS` and `model.HOLDER_PARTS`) in
a privacy-aware diagram. The simulator and the layout read the diagram
through it as well.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from operator import attrgetter

from . import model
from .graph import Diagram, Flow, Record, printable
from .model import FlowType, NodeType, Stage


class Violation(Record):
    def __init__(self, clause: str, element: str, message: str) -> None:
        d = self.__dict__
        d["clause"] = clause
        d["element"] = element
        d["message"] = message

    def render(self) -> str:
        return f"error {printable(self.element)} {self.clause}: {self.message}"


class StageValidity(Record):
    """Outcome of checking a diagram against one stage's conditions."""

    def __init__(self, stage: Stage, violations: tuple[Violation, ...]) -> None:
        d = self.__dict__
        d["stage"] = stage
        d["violations"] = violations

    @property
    def valid(self) -> bool:
        return not self.violations


# Clause ids of the connectivity rule, which diagram excerpts may waive.
CONNECTIVITY_CLAUSES = frozenset({"proc-source-target", "ext-connected", "db-connected"})


def blocks_rewrite(violations: Sequence[Violation], tolerate_connectivity: bool) -> bool:
    """Whether findings stop the rewrite: any finding does, unless
    connectivity is tolerated (for diagram excerpts) and every finding is
    a connectivity one."""
    return bool(violations) and not (
        tolerate_connectivity
        and all(v.clause in CONNECTIVITY_CLAUSES for v in violations)
    )


def connectivity(diagram: Diagram) -> list[Violation]:
    """Connectivity rule: processes relay data (an incoming and an outgoing
    flow); external entities and data stores attach to at least one flow."""
    found = []
    is_source = {flow.source for flow in diagram.flows.values()}
    is_target = {flow.target for flow in diagram.flows.values()}
    for node in diagram.nodes.values():
        incoming = node.id in is_target
        outgoing = node.id in is_source
        if node.node_type is NodeType.PROC and not (incoming and outgoing):
            missing = " or ".join(
                side
                for side, present in (("incoming", incoming), ("outgoing", outgoing))
                if not present
            )
            found.append(
                Violation(
                    "proc-source-target",
                    node.id,
                    f"process {node.id!r} has no {missing} flow",
                )
            )
        elif node.node_type is NodeType.EXT and not (incoming or outgoing):
            found.append(
                Violation(
                    "ext-connected", node.id, f"external entity {node.id!r} has no flows"
                )
            )
        elif node.node_type is NodeType.DB and not (incoming or outgoing):
            found.append(
                Violation("db-connected", node.id, f"data store {node.id!r} has no flows")
            )
    return found


# Each stage's condition: its name in messages, its node and flow types,
# and the endpoint kinds each typed flow must join. Partner links are
# absent before the rewrite (PA) stage and mutual in it; only the
# well-formed stage forbids inter-process loops and checks connectivity.
_STAGES = {
    Stage.RAW: ("raw", model.BDFD_NODE_TYPES, model.RAW_FLOW_TYPES, {}),
    Stage.WELLFORMED: (
        "well-formed",
        model.BDFD_NODE_TYPES,
        model.WELLFORMED_FLOW_TYPES,
        model.WELLFORMED_FLOW_ENDPOINTS,
    ),
    Stage.PA: ("privacy-aware", model.PA_NODE_TYPES, model.PA_FLOW_TYPES, model.PA_FLOW_ENDPOINTS),
}


def _check(diagram: Diagram, stage: Stage) -> StageValidity:
    name, node_types, flow_types, endpoints = _STAGES[stage]
    rewritten = stage is Stage.PA
    wellformed = stage is Stage.WELLFORMED
    found = []
    for table in (diagram.nodes, diagram.flows):
        for element in table.values():
            partner = element.partner
            if partner is None:
                continue
            if not rewritten:
                message = f"{element.id!r} carries a partner before the rewrite stage"
                found.append(Violation("partner-unexpected", element.id, message))
            elif (other := table.get(partner)) is None:
                message = f"{element.id!r} names missing partner {partner!r}"
                found.append(Violation("partner-missing", element.id, message))
            elif other.partner != element.id:
                message = f"partner link {element.id!r} -> {partner!r} is not mutual"
                found.append(Violation("partner-asymmetric", element.id, message))
    nodes = diagram.nodes
    for node in nodes.values():
        if node.node_type is None:
            found.append(Violation("node-untyped", node.id, f"node {node.id!r} has no type"))
        elif node.node_type not in node_types:
            message = f"node type {node.node_type.value!r} not allowed in a {name} diagram"
            found.append(Violation("node-type", node.id, message))
    for flow in diagram.flows.values():
        source = nodes.get(flow.source)
        target = nodes.get(flow.target)
        if source is None or target is None:
            for endpoint, node in ((flow.source, source), (flow.target, target)):
                if node is None:
                    message = f"flow {flow.id!r} references missing node {endpoint!r}"
                    found.append(Violation("dangling-flow", flow.id, message))
        flow_type = flow.flow_type
        if flow_type is None:
            found.append(Violation("flow-untyped", flow.id, f"flow {flow.id!r} has no type"))
        elif flow_type not in flow_types:
            message = f"flow type {flow_type.value!r} not allowed in a {name} diagram"
            found.append(Violation("flow-type", flow.id, message))
        expected = endpoints.get(flow_type)
        if expected is not None and source is not None and target is not None:
            ends = (source.node_type, target.node_type)
            if ends != expected and None not in ends:
                message = (
                    f"{flow_type.value} flow {flow.id!r} must run {expected[0].value} -> "
                    f"{expected[1].value}, found {ends[0].value} -> {ends[1].value}"
                )
                found.append(Violation("flow-endpoints", flow.id, message))
        if wellformed and flow_type is FlowType.COMP and flow.source == flow.target:
            message = f"inter-process flow {flow.id!r} loops on {flow.source!r}"
            found.append(Violation("comp-loop", flow.id, message))
    if wellformed:
        found += connectivity(diagram)
    if rewritten:
        found += _gadget_findings(diagram)
    found.sort(key=lambda v: (v.element, v.clause))
    return StageValidity(stage, tuple(found))


# A guarded flow runs from its limit to its target, the roles its gadget
# is read from. The gadget's flows reach its source and the nodes holding
# the consent evidence of its ends, which must be those the ends' own parts
# name: for each, (evidence role, end role, the flow reaching it).
_EVIDENCE = (
    ("source_evidence", "source", "source_policy"), ("target_evidence", "target", "target_policy")
)
_ROWS = {
    part.role: part for parts in (model.GADGET_PARTS, *model.HOLDER_PARTS.values()) for part in parts
}
_NODE_ROWS = {role: part for role, part in _ROWS.items() if part.kind is not None}
_PARTNERED = frozenset(role for role, part in _NODE_ROWS.items() if part.partner)
_NODE_ROLES = frozenset(
    ("source", "target", "source_evidence", "target_evidence", "owner", *_NODE_ROWS)
)
# The node and the flow roles whose parts one guarded flow or business node
# holds alone: every table role but the log store, which may be shared.
_SOLE_ROLES = {
    is_node: frozenset(role for role in _ROWS if (role in _NODE_ROWS) is is_node) - {"log_db"}
    for is_node in (True, False)
}
_GENERATED_NODE_TYPES = model.PA_NODE_TYPES - model.BDFD_NODE_TYPES


def _plan(parts: tuple, start: tuple[str, ...]) -> tuple:
    """The steps reading `parts` from the roles `start`, in row order: for
    each, its role, the role it is read at, the role its other end fills
    or must match (None for a node), whether it is looked up at its
    target, and its partner role. A node with a partner is read through
    the partner link once its partner is read; any other node where a flow
    first reaches it. A flow is looked up at its target when the target's
    role is read before it, else at its source."""
    read = set(start)
    steps = []
    for part in parts:
        if part.kind is None:
            at_target = part.target in read
            near, far = (part.target, part.source) if at_target else (part.source, part.target)
            steps.append((part.role, near, far, at_target, part.partner))
            read |= {part.role, far}
        elif part.partner in read:
            steps.append((part.role, part.partner, None, None, None))
            read.add(part.role)
    return tuple(steps)


_GADGET_PLAN = _plan(model.GADGET_PARTS, ("flow", "limit", "target"))
_HOLDER_PLANS = {kind: _plan(parts, ("owner",)) for kind, parts in model.HOLDER_PARTS.items()}


def _lookups() -> tuple[frozenset, dict]:
    """The kinds of a guarded flow, and every other privacy-aware flow
    kind's role with whether that role is looked up at its target. A flow
    part has the kinds joining the kinds its ends can have."""
    business = model.BDFD_NODE_TYPES
    ends = {role: {part.kind} for role, part in _NODE_ROWS.items()}
    ends.update(source=business, target=business, owner=business)
    ends["source_evidence"] = ends["target_evidence"] = {
        kind if role == "owner" else _NODE_ROWS[role].kind
        for kind, role in model.EVIDENCE_ROLES.items()
    }

    def kinds(source: str, target: str) -> list[FlowType]:
        return [
            kind
            for kind, (start, end) in model.PA_FLOW_ENDPOINTS.items()
            if start in ends[source] and end in ends[target]
        ]

    lookups = {
        kind: (role, at_target)
        for plan in (_GADGET_PLAN, *_HOLDER_PLANS.values())
        for role, near, far, at_target, _ in plan
        if far is not None
        for kind in (kinds(far, near) if at_target else kinds(near, far))
    }
    return frozenset(kinds("limit", "target")), lookups


_GUARDED_KINDS, _LOOKUPS = _lookups()
# What a lookup that finds no flow reads.
_NO_FLOW = Flow(None, None, None)
_ID, _SOURCE, _TARGET = attrgetter("id"), attrgetter("source"), attrgetter("target")


def _read(plan: tuple, parts: dict, diagram: Diagram, found: dict) -> None:
    """Read what `plan` steps through for many elements at once. `parts`
    maps each role read to its ids, one per element, None where missing,
    and starts with the roles the plan starts from; `found` holds each
    flow role's flows by the end it is looked up at. A node read through
    its partner link must name that partner back. A flow's other end must
    match its role where that is read, and fills it where it is empty,
    unless that node is read through a partner link; a flow whose partner
    is read must name it."""
    nodes = diagram.nodes
    for role, near, far, at_target, partner in plan:
        keys = parts[near]
        if far is None:
            held = [getattr(nodes.get(key), "partner", None) for key in keys]
            parts[role] = [
                node_id if getattr(nodes.get(node_id), "partner", None) == key else None
                for key, node_id in zip(keys, held)
            ]
            continue
        hits = list(map(found[role].get, keys, repeat(_NO_FLOW)))
        if partner in parts:
            hits = [
                hit if other is None or hit.partner == other else _NO_FLOW
                for hit, other in zip(hits, parts[partner])
            ]
        ends = list(map(_SOURCE if at_target else _TARGET, hits))
        have = parts.get(far)
        if have is None:
            parts[far] = ends
        else:
            hits = [
                _NO_FLOW if had is not None and end != had else hit
                for hit, end, had in zip(hits, ends, have)
            ]
            if far not in _PARTNERED:
                parts[far] = [end if had is None else had for end, had in zip(ends, have)]
        parts[role] = list(map(_ID, hits))


def read_parts(diagram: Diagram) -> tuple[dict[str, list], dict[NodeType, dict[str, list]]]:
    """Read every part of the rewrite's tables back from a privacy-aware
    diagram: for the guarded flows, each role's ids, one per flow in
    diagram order; and for each business kind, each role's ids, one per
    node of that kind in diagram order. The role "flow" holds the guarded
    flows, "source" and "target" their original ends, "source_evidence"
    and "target_evidence" the nodes holding those ends' consent evidence,
    and "owner" the business nodes."""
    nodes = diagram.nodes
    found: dict[str, dict] = {role: {} for role, _ in _LOOKUPS.values()}
    index_of = {kind: (found[role], at_target) for kind, (role, at_target) in _LOOKUPS.items()}
    guarded = []
    for flow in diagram.flows.values():
        lookup = index_of.get(flow.flow_type)
        if lookup is not None:
            index, at_target = lookup
            index[flow.target if at_target else flow.source] = flow
        elif flow.flow_type in _GUARDED_KINDS:
            guarded.append(flow)
    for index in found.values():
        index.pop(None, None)
    owners: dict[NodeType, list] = {kind: [] for kind in _HOLDER_PLANS}
    for node in nodes.values():
        if node.node_type in owners:
            owners[node.node_type].append(node.id)
    holders, evidence = {}, {}
    for kind, plan in _HOLDER_PLANS.items():
        holders[kind] = parts = {"owner": owners[kind]}
        _read(plan, parts, diagram, found)
        evidence.update(zip(parts["owner"], parts[model.EVIDENCE_ROLES[kind]]))
    parts = {
        "flow": list(map(_ID, guarded)),
        "limit": list(map(_SOURCE, guarded)),
        "target": list(map(_TARGET, guarded)),
    }
    _read(_GADGET_PLAN, parts, diagram, found)
    for role, end, policy in _EVIDENCE:
        wrong = [
            held is not None and node in evidence and evidence[node] != held
            for held, node in zip(parts[role], parts[end])
        ]
        for name in (role, policy):
            parts[name] = [None if bad else part for bad, part in zip(wrong, parts[name])]
    return parts, holders


def _gadget_findings(diagram: Diagram) -> list[Violation]:
    """Each guarded flow or business node whose parts are not all read
    back, each generated part but a log store that two of them hold, and
    each generated node or privacy-aware flow no part claims."""
    gadgets, holders = read_parts(diagram)
    tables = [
        (kind, model.HOLDER_PARTS[kind], parts["owner"], parts) for kind, parts in holders.items()
    ]
    tables.append((None, model.GADGET_PARTS, gadgets["flow"], gadgets))
    found = []
    # The ids each role holds, by whether they are nodes and whether the
    # role's parts are held alone, and how many ids those roles hold: only
    # where they hold one id twice, None included, can a part be shared.
    claimed: dict[tuple, set] = {(node, sole): set() for node in (True, False) for sole in (True, False)}
    held = {True: 0, False: 0}
    for kind, rows, owners, parts in tables:
        for role, ids in parts.items():
            is_node = role in _NODE_ROLES
            sole = role in _SOLE_ROLES[is_node]
            claimed[is_node, sole].update(ids)
            if sole:
                held[is_node] += len(ids)
        missing: dict[str, list[str]] = {}
        for part in rows:
            if None in parts[part.role]:
                for owner, part_id in zip(owners, parts[part.role]):
                    if part_id is None:
                        missing.setdefault(owner, []).append(part.role)
        for owner, roles in missing.items():
            what = f"{kind.value} node" if kind else f"{diagram.flows[owner].flow_type.value} flow"
            message = (
                f"{what} {owner!r}: {', '.join(roles)} missing or not wired as the rewrite "
                "wires them"
            )
            found.append(Violation("gadget-part", owner, message))
    for is_node, noun, elements, kinds in (
        (True, "node", diagram.nodes, _GENERATED_NODE_TYPES),
        (False, "flow", diagram.flows, model.PA_FLOW_TYPES),
    ):
        places: dict[str, list[str]] = {}
        if len(claimed[is_node, True]) < held[is_node]:
            for _, _, owners, parts in tables:
                for role in _SOLE_ROLES[is_node] & parts.keys():
                    for owner, part_id in zip(owners, parts[role]):
                        places.setdefault(part_id, []).append(f"{role} of {owner!r}")
        for part_id, roles in places.items():
            kind = getattr(elements.get(part_id), f"{noun}_type", None)
            if len(roles) > 1 and kind in kinds:
                roles = ", ".join(sorted(roles))
                message = f"{kind.value} {noun} {part_id!r} is a part of more than one gadget: {roles}"
                found.append(Violation("gadget-shared", part_id, message))
        for element_id in elements.keys() - claimed[is_node, True] - claimed[is_node, False]:
            kind = getattr(elements[element_id], f"{noun}_type")
            if kind in kinds:
                message = f"{kind.value} {noun} {element_id!r} belongs to no gadget"
                found.append(Violation("gadget-unclaimed", element_id, message))
    return found


def validate_raw(diagram: Diagram) -> StageValidity:
    """Check the raw-stage condition: business node types, plain/deletion
    flows, no partners. Dangling endpoints are reported at every stage."""
    return _check(diagram, Stage.RAW)


def validate_wellformed(diagram: Diagram) -> StageValidity:
    """Check the well-formed condition: business node types, the six typed
    flow kinds with matching endpoints, no inter-process loops, and the
    connectivity rules (processes relay; entities and stores attach)."""
    return _check(diagram, Stage.WELLFORMED)


def validate_pa(diagram: Diagram) -> StageValidity:
    """Check the privacy-aware condition: the full node vocabulary, the
    eighteen rewritten flow kinds with matching endpoints, symmetric
    partner links, and every part the rewrite adds present and wired as it
    wires it, with no generated element left over."""
    return _check(diagram, Stage.PA)
