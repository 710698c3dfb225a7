"""Attributed multigraph substrate shared by every diagram stage.

A diagram holds nodes and flows (directed edges) keyed by id. Parallel
flows and self-loops are allowed; endpoint existence is enforced on
insertion. All attributes are optional so that an absent attribute stays
distinguishable from any concrete value. Mutation helpers are pure: they
return a new Diagram and never touch their argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import DuplicateIdError, UnknownEndpointError
from .model import FlowType, NodeType, Stage

NodeId = str
FlowId = str


@dataclass(frozen=True)
class Node:
    """A diagram node.

    Attributes:
        id: Unique within the diagram's node map.
        node_type: Semantic kind, or None for an untyped element.
        label: Display name shown in diagram renderings.
        partner: Id of the node this one is coupled with (symmetric).
        position: Canvas coordinates, or None when never laid out.
        extra: Unrecognised attributes carried through from an input
            document; treated as opaque strings and echoed on output.
    """

    id: NodeId
    node_type: NodeType | None = None
    label: str | None = None
    partner: NodeId | None = None
    position: tuple[float, float] | None = None
    extra: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Flow:
    """A directed flow between two nodes.

    Source and target are node ids; multiple flows may share the same
    endpoints. Partner couples a data flow with its policy companion.
    """

    id: FlowId
    source: NodeId
    target: NodeId
    flow_type: FlowType | None = None
    label: str | None = None
    partner: FlowId | None = None
    extra: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Diagram:
    """An attributed multigraph tagged with its lifecycle stage."""

    stage: Stage = Stage.RAW
    nodes: dict[NodeId, Node] = field(default_factory=dict)
    flows: dict[FlowId, Flow] = field(default_factory=dict)


def add_node(diagram: Diagram, node: Node) -> Diagram:
    """Return a copy of the diagram with the node inserted."""
    if node.id in diagram.nodes:
        raise DuplicateIdError(f"node id {node.id!r} already in use")
    return replace(diagram, nodes={**diagram.nodes, node.id: node})


def add_flow(diagram: Diagram, flow: Flow) -> Diagram:
    """Return a copy of the diagram with the flow inserted.

    Both endpoints must already exist; self-loops are representable.
    """
    if flow.id in diagram.flows:
        raise DuplicateIdError(f"flow id {flow.id!r} already in use")
    for endpoint in (flow.source, flow.target):
        if endpoint not in diagram.nodes:
            raise UnknownEndpointError(
                f"flow {flow.id!r} references missing node {endpoint!r}"
            )
    return replace(diagram, flows={**diagram.flows, flow.id: flow})

