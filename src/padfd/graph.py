"""Attributed multigraph substrate shared by every diagram stage.

A diagram holds nodes and flows (directed edges) keyed by id. Parallel
flows and self-loops are allowed. `build`, through which both readers and
both insertion helpers make diagrams, keeps the id space: ids are
non-empty strings held once across nodes and flows, and flow ends name
nodes. Attributes are optional, so an absent one stays distinguishable
from any value. Mutation helpers are pure: they return a new Diagram.

`Record`, the base of nodes, flows and diagrams, is the base of every
other padfd value type as well. The text helpers at the end are shared by
the JSON, draw.io and DOT writers, so that the draw.io and DOT paths need
not load the JSON codec.
"""

from __future__ import annotations

import math
import re
from itertools import chain, repeat
from operator import attrgetter

from .errors import SURROGATE, SchemaError
from .model import FlowType, NodeType, Stage

NodeId = str
FlowId = str


class Record:
    """A value with named fields: the base of every padfd record.

    A subclass's fields are its ``__init__`` parameters, in order; its
    ``__init__`` stores them straight into the instance dict. A record
    equals a record of exactly its type with equal fields, hashes by its
    fields (so one holding a dict or a list has no hash), prints as
    ``Type(field=value, ...)``, and refuses assignment and deletion.
    """

    __match_args__: tuple[str, ...] = ()  # the field names

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class Node(Record):
    """A diagram node.

    Attributes:
        id: Unique within the diagram's node map.
        node_type: Semantic kind, or None for an untyped element.
        label: Display name shown in diagram renderings.
        partner: Id of the node this one is coupled with (symmetric).
        position: Canvas coordinates, or None when never laid out.
        extra: Unrecognised attributes carried through from an input
            document; treated as opaque strings and echoed on output.
            Omitted, it is a new empty dict.
    """

    def __init__(
        self, id: NodeId, node_type: NodeType | None = None, label: str | None = None,
        partner: NodeId | None = None, position: tuple[float, float] | None = None,
        extra: dict[str, str] | None = None,
    ) -> None:
        d = self.__dict__
        d["id"] = id
        d["node_type"] = node_type
        d["label"] = label
        d["partner"] = partner
        d["position"] = position
        d["extra"] = {} if extra is None else extra


class Flow(Record):
    """A directed flow between two nodes.

    Source and target are node ids; multiple flows may share the same
    endpoints. Partner couples a data flow with its policy companion.
    """

    def __init__(
        self, id: FlowId, source: NodeId, target: NodeId, flow_type: FlowType | None = None,
        label: str | None = None, partner: FlowId | None = None,
        extra: dict[str, str] | None = None,
    ) -> None:
        d = self.__dict__
        d["id"] = id
        d["source"] = source
        d["target"] = target
        d["flow_type"] = flow_type
        d["label"] = label
        d["partner"] = partner
        d["extra"] = {} if extra is None else extra


class Diagram(Record):
    """An attributed multigraph tagged with its lifecycle stage."""

    def __init__(
        self, stage: Stage = Stage.RAW, nodes: dict[NodeId, Node] | None = None,
        flows: dict[FlowId, Flow] | None = None,
    ) -> None:
        d = self.__dict__
        d["stage"] = stage
        d["nodes"] = {} if nodes is None else nodes
        d["flows"] = {} if flows is None else flows


def _defects(nodes: list[Node], flows: list[Flow]):
    """Each break of the id-space rule, in document order: the nodes, then
    the flows, each flow's id before its ends."""
    node_ids = {node.id for node in nodes if isinstance(node.id, str)}
    held: set[str] = set()
    for kind, elements in (("node", nodes), ("flow", flows)):
        for element in elements:
            element_id = element.id
            if not isinstance(element_id, str) or not element_id:
                yield f"{kind} id must be a non-empty string"
            elif element_id in held:
                yield f"{kind} id {element_id!r} already in use"
            else:
                held.add(element_id)
            if kind == "flow":
                if not (element.source and element.target):
                    yield f"flow {element_id!r} lacks a source or target"
                for end in (element.source, element.target):
                    if end and not (isinstance(end, str) and end in node_ids):
                        yield f"flow {element_id!r} references missing node {end!r}"


def build(stage: Stage, nodes: list[Node], flows: list[Flow]) -> Diagram:
    """The diagram of the listed nodes and flows, the one check of its id
    space; the first defect is refused with SchemaError.

    The rule for checking a large input: check whole columns at C speed,
    with `map`, `all`, `isinstance` and set operations, and walk a list
    element by element only where it breaks a rule, to name its first
    defect in document order. `canonical.parse_json` reads its entries the
    same way."""
    try:
        node_map = {node.id: node for node in nodes}
        flow_map = {flow.id: flow for flow in flows}
        held = node_map.keys()
        if (
            len(node_map) == len(nodes)
            and len(flow_map) == len(flows)
            and held.isdisjoint(flow_map)
            and all(map(isinstance, chain(held, flow_map), repeat(str)))
            and "" not in node_map and "" not in flow_map
            and all(map(node_map.__contains__, map(attrgetter("source"), flows)))
            and all(map(node_map.__contains__, map(attrgetter("target"), flows)))
        ):
            return Diagram(stage, node_map, flow_map)
    except TypeError:  # an unhashable id or end
        pass
    raise SchemaError(next(_defects(nodes, flows)))


def add_node(diagram: Diagram, node: Node) -> Diagram:
    """Return a copy of the diagram with the node inserted."""
    return build(diagram.stage, [*diagram.nodes.values(), node], [*diagram.flows.values()])


def add_flow(diagram: Diagram, flow: Flow) -> Diagram:
    """Return a copy of the diagram with the flow inserted.

    Both endpoints must already exist; self-loops are representable.
    """
    return build(diagram.stage, [*diagram.nodes.values()], [*diagram.flows.values(), flow])


def canonical_number(value: float) -> int | float:
    """Integral floats collapse to ints so 100.0 and 100 serialize alike."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def format_position(node: Node) -> tuple[str, str]:
    """Shortest stable text of a node's coordinates, for JSON and draw.io.

    NaN and the infinities have no JSON spelling and no draw.io reading,
    so they are refused rather than written.
    """
    x, y = node.position
    if not (math.isfinite(x) and math.isfinite(y)):
        raise SchemaError(f"node {node.id!r}: position {node.position!r} is not finite")
    return str(canonical_number(x)), str(canonical_number(y))


def _first_lone_surrogate(diagram: Diagram) -> tuple[str, str, str] | None:
    """(kind, element id, text) of the first text holding a lone surrogate."""
    for kind, elements in (("node", diagram.nodes), ("flow", diagram.flows)):
        for element in elements.values():
            extra = element.extra
            for text in (element.id, element.label, element.partner, *extra, *extra.values()):
                if text is not None and re.search(SURROGATE, text):
                    return kind, element.id, text
    return None


def encode_output(text: str, diagram: Diagram, language: str) -> bytes:
    """A writer's text as UTF-8 bytes. Only a lone surrogate fails to
    encode, and only then is the diagram searched for the element holding
    it, so valid text costs nothing extra. Refused with SchemaError."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        found = _first_lone_surrogate(diagram)
        if found is None:
            code = ord(exc.object[exc.start])
            raise SchemaError(f"cannot write {language}: U+{code:04X} is a lone surrogate") from None
        kind, element_id, held = found
        code = ord(re.search(SURROGATE, held).group())
        raise SchemaError(
            f"{kind} {element_id!r}: cannot write {held!r} in {language}: "
            f"U+{code:04X} is a lone surrogate"
        ) from None
