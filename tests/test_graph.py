from __future__ import annotations

import pytest

from padfd import (
    Diagram,
    Flow,
    FlowType,
    Node,
    NodeType,
    SchemaError,
    add_flow,
    add_node,
)


def _pair() -> Diagram:
    d = Diagram()
    d = add_node(d, Node("a", NodeType.EXT))
    d = add_node(d, Node("b", NodeType.PROC))
    return d


def test_add_node_inserts_and_preserves_original():
    empty = Diagram()
    d = add_node(empty, Node("a", NodeType.EXT, label="A"))
    assert d.nodes["a"].label == "A"
    assert empty.nodes == {}


def test_add_node_rejects_duplicate_id():
    d = _pair()
    with pytest.raises(SchemaError):
        add_node(d, Node("a", NodeType.DB))


def test_add_flow_requires_existing_endpoints():
    d = _pair()
    with pytest.raises(SchemaError):
        add_flow(d, Flow("f", "a", "zzz", FlowType.PF))
    with pytest.raises(SchemaError):
        add_flow(d, Flow("f", "zzz", "b", FlowType.PF))


def test_add_flow_rejects_duplicate_id():
    d = add_flow(_pair(), Flow("f", "a", "b", FlowType.PF))
    with pytest.raises(SchemaError):
        add_flow(d, Flow("f", "b", "a", FlowType.PF))


def test_add_flow_rejects_an_id_a_node_holds():
    # draw.io keeps nodes and flows in one id space, so such a diagram
    # could be written but not read back.
    with pytest.raises(SchemaError, match="flow id 'a' already in use"):
        add_flow(_pair(), Flow("a", "a", "b", FlowType.PF))


def test_add_node_rejects_an_id_a_flow_holds():
    # Nodes come before flows in the id space, so the flow is named.
    d = add_flow(_pair(), Flow("f", "a", "b", FlowType.PF))
    with pytest.raises(SchemaError, match="^flow id 'f' already in use$"):
        add_node(d, Node("f", NodeType.DB))


def test_an_empty_id_is_refused_as_parse_json_refuses_it():
    with pytest.raises(SchemaError, match="^node id must be a non-empty string$"):
        add_node(Diagram(), Node("", NodeType.EXT, "A"))
    with pytest.raises(SchemaError, match="^flow id must be a non-empty string$"):
        add_flow(_pair(), Flow("", "a", "b", FlowType.PF))


@pytest.mark.parametrize("bad_id", [None, 3, ["a"]], ids=["none", "int", "unhashable"])
def test_an_id_that_is_no_string_is_refused_as_an_empty_one(bad_id):
    with pytest.raises(SchemaError, match="^node id must be a non-empty string$"):
        add_node(Diagram(), Node(bad_id, NodeType.EXT, "A"))
    with pytest.raises(SchemaError, match="^flow id must be a non-empty string$"):
        add_flow(_pair(), Flow(bad_id, "a", "b", FlowType.PF))


def test_an_unhashable_end_names_no_node():
    with pytest.raises(SchemaError, match=r"^flow 'f' references missing node \['a'\]$"):
        add_flow(_pair(), Flow("f", "a", ["a"], FlowType.PF))


def test_a_diagram_built_directly_is_checked_whole_on_insertion():
    """A Diagram made without add_node or add_flow may already break the
    rule; the next insertion refuses it, naming the first defect."""
    broken = Diagram(nodes={"a": Node("a")}, flows={"f": Flow("f", "a", "ghost")})
    with pytest.raises(SchemaError, match="^flow 'f' references missing node 'ghost'$"):
        add_node(broken, Node("b"))


def test_parallel_flows_and_self_loops_are_representable():
    d = _pair()
    d = add_flow(d, Flow("f1", "a", "b", FlowType.PF))
    d = add_flow(d, Flow("f2", "a", "b", FlowType.PF))
    d = add_flow(d, Flow("loop", "b", "b", FlowType.PF))
    assert len(d.flows) == 3
    assert d.flows["loop"].source == d.flows["loop"].target == "b"


def test_absent_attributes_are_distinct_from_values():
    node = Node("a", None)
    assert node.node_type is None and node.label is None and node.position is None
    assert node != Node("a", None, label="")

