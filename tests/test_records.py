"""The value contract of padfd's records: the diagram elements, the
validation findings, the simulation's records and reports, and the style
map.

Records refuse assignment and deletion, compare equal only to a record
of the same type with equal fields, hash by their fields, and print as
`Type(field=value, ...)`; a record holding a dict or a list is
unhashable. Every record survives the tests' `replace`, whose copy
passes every field to the constructor by keyword, `copy.deepcopy` and
`pickle`.
"""

from __future__ import annotations

import copy
import pickle
from datetime import date

import pytest

from padfd import (
    CleanEvent,
    DataRecord,
    Decision,
    Diagram,
    Flow,
    FlowMeta,
    FlowType,
    LogEntry,
    Node,
    NodeType,
    PolicySnapshot,
    SimulationReport,
    Stage,
    StageValidity,
    StoredRecord,
    StoreState,
    StyleMap,
    Violation,
)

from helpers import replace

DAY = date(2020, 6, 1)


def record() -> DataRecord:
    return DataRecord("d1", "f1", "alice", frozenset({"billing"}), DAY, "card")


def snapshot() -> PolicySnapshot:
    return PolicySnapshot("billing", frozenset({"billing"}), DAY)


def entry() -> LogEntry:
    return LogEntry("d1", "f1", snapshot(), False, DAY)


def decision() -> Decision:
    return Decision("d1", "f1", True, True, entry())


def violation() -> Violation:
    return Violation("comp-loop", "f1", "flow from a process to itself")


def state() -> StoreState:
    return StoreState({"db": {"d1": StoredRecord(record(), DAY)}}, {"pol": {"d1": snapshot()}}, {"db": "pol"})


ENTRY_REPR = (
    "LogEntry(d_id='d1', flow_id='f1', policy=PolicySnapshot(purpose='billing', "
    "consent=frozenset({'billing'}), expiry=datetime.date(2020, 6, 1)), v=False, "
    "clock=datetime.date(2020, 6, 1))"
)
RECORD_REPR = (
    "DataRecord(d_id='d1', flow_id='f1', dsub='alice', consent=frozenset({'billing'}), "
    "expiry=datetime.date(2020, 6, 1), content='card')"
)
STATE_REPR = (
    f"StoreState(data={{'db': {{'d1': StoredRecord(record={RECORD_REPR}, "
    "stored_at=datetime.date(2020, 6, 1))}}, policies={'pol': {'d1': PolicySnapshot("
    "purpose='billing', consent=frozenset({'billing'}), expiry=datetime.date(2020, 6, 1))}}, "
    "partners={'db': 'pol'})"
)

# Each record type: a function building a fresh sample, and that sample's repr.
SAMPLES = {
    "Node": (
        lambda: Node("n1", NodeType.PROC, label="Pay", position=(1.0, 2.5)),
        "Node(id='n1', node_type=<NodeType.PROC: 'proc'>, label='Pay', partner=None, "
        "position=(1.0, 2.5), extra={})",
    ),
    "Flow": (
        lambda: Flow("f1", "a", "b", FlowType.PF, extra={"colour": "red"}),
        "Flow(id='f1', source='a', target='b', flow_type=<FlowType.PF: 'pf'>, label=None, "
        "partner=None, extra={'colour': 'red'})",
    ),
    "Diagram": (
        lambda: Diagram(Stage.RAW, {"a": Node("a")}),
        "Diagram(stage=<Stage.RAW: 'raw-bdfd'>, nodes={'a': Node(id='a', node_type=None, "
        "label=None, partner=None, position=None, extra={})}, flows={})",
    ),
    "Violation": (
        violation,
        "Violation(clause='comp-loop', element='f1', message='flow from a process to itself')",
    ),
    "StageValidity": (
        lambda: StageValidity(Stage.WELLFORMED, (violation(),)),
        "StageValidity(stage=<Stage.WELLFORMED: 'wellformed-bdfd'>, violations=(Violation("
        "clause='comp-loop', element='f1', message='flow from a process to itself'),))",
    ),
    "FlowMeta": (
        lambda: FlowMeta(flow_id="f1", label="card", purpose="billing", pd=True, data_type="string"),
        "FlowMeta(flow_id='f1', label='card', purpose='billing', pd=True, data_type='string')",
    ),
    "DataRecord": (record, RECORD_REPR),
    "PolicySnapshot": (
        snapshot,
        "PolicySnapshot(purpose='billing', consent=frozenset({'billing'}), "
        "expiry=datetime.date(2020, 6, 1))",
    ),
    "LogEntry": (entry, ENTRY_REPR),
    "StoredRecord": (
        lambda: StoredRecord(record(), DAY),
        f"StoredRecord(record={RECORD_REPR}, stored_at=datetime.date(2020, 6, 1))",
    ),
    "CleanEvent": (
        lambda: CleanEvent("db", "d1", DAY, date(2021, 1, 1)),
        "CleanEvent(store='db', d_id='d1', expiry=datetime.date(2020, 6, 1), "
        "clock=datetime.date(2021, 1, 1))",
    ),
    "Decision": (
        decision,
        f"Decision(d_id='d1', flow_id='f1', forwarded_bdfd=True, forwarded_padfd=True, "
        f"entry={ENTRY_REPR}, propagated=False)",
    ),
    "StoreState": (state, STATE_REPR),
    "SimulationReport": (
        lambda: SimulationReport(DAY, [decision()], {"log": [entry()]}, state()),
        f"SimulationReport(clock=datetime.date(2020, 6, 1), decisions=[Decision(d_id='d1', "
        f"flow_id='f1', forwarded_bdfd=True, forwarded_padfd=True, entry={ENTRY_REPR}, "
        f"propagated=False)], logs={{'log': [{ENTRY_REPR}]}}, state={STATE_REPR})",
    ),
    "StyleMap": (
        lambda: StyleMap((("ellipse", NodeType.PROC),), (), {NodeType.PROC: "ellipse;"}, {}),
        "StyleMap(node_rules=(('ellipse', <NodeType.PROC: 'proc'>),), edge_rules=(), "
        "node_styles={<NodeType.PROC: 'proc'>: 'ellipse;'}, edge_styles={})",
    ),
}

# Records holding a dict or a list, directly or in a field.
UNHASHABLE = ["Node", "Flow", "Diagram", "StyleMap", "StoreState", "SimulationReport"]
HASHABLE = [name for name in SAMPLES if name not in UNHASHABLE]


def sample(name: str):
    return SAMPLES[name][0]()


def first_field(value) -> str:
    return repr(value).split("(", 1)[1].split("=", 1)[0]


@pytest.mark.parametrize("name", SAMPLES)
def test_repr_names_the_type_and_every_field(name):
    make, text = SAMPLES[name]
    assert repr(make()) == text
    assert type(make()).__name__ == name


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_fields_make_equal_records(name):
    a, b = sample(name), sample(name)
    assert a is not b
    assert a == b
    assert not a != b


@pytest.mark.parametrize("name", SAMPLES)
def test_frozen_records_refuse_assignment_and_deletion(name):
    value = sample(name)
    field = first_field(value)
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert repr(value) == before


def test_equality_needs_the_same_type():
    node = Node("a")
    assert node != ("a", None, None, None, None, {})
    assert node != Flow("a", "a", "a")
    assert violation() != ("comp-loop", "f1", "flow from a process to itself")
    assert PolicySnapshot("p", frozenset(), DAY) != CleanEvent("p", "d", DAY, DAY)

    class Subnode(Node):
        pass

    assert Subnode("a") != node
    assert node != Subnode("a")


def test_a_differing_field_makes_records_unequal():
    assert Node("a") != Node("a", label="A")
    assert Node("a") != Node("a", extra={"k": "v"})
    assert Flow("f", "a", "b") != Flow("f", "b", "a")
    assert Diagram() != Diagram(Stage.PA)
    assert entry() != replace(entry(), v=True)
    assert decision() != replace(decision(), propagated=True)


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_records_hash_equal(name):
    assert hash(sample(name)) == hash(sample(name))
    assert len({sample(name), sample(name)}) == 1
    assert len({sample(name), replace(sample(name), **{first_field(sample(name)): "other"})}) == 2


@pytest.mark.parametrize("name", UNHASHABLE)
def test_records_holding_a_dict_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(sample(name))


def test_omitted_dicts_are_fresh_per_record():
    assert Node("a").extra == {} and Node("a").extra is not Node("a").extra
    assert Flow("f", "a", "b").extra == {} and Flow("f", "a", "b").extra is not Flow("f", "a", "b").extra
    one, two = Diagram(), Diagram()
    assert one.stage is Stage.RAW
    assert one.nodes == one.flows == {}
    assert len({id(one.nodes), id(one.flows), id(two.nodes), id(two.flows)}) == 4
    one, two = StoreState(), StoreState()
    assert len({id(d) for s in (one, two) for d in (s.data, s.policies, s.partners)}) == 6


def test_fields_may_be_given_by_keyword():
    assert Node(id="a", label="A") == Node("a", None, "A")
    assert Flow(target="b", source="a", id="f") == Flow("f", "a", "b")
    assert Diagram(flows={}, stage=Stage.PA) == Diagram(Stage.PA)
    assert Decision("d1", "f1", True, True, entry(), propagated=True).propagated is True


@pytest.mark.parametrize("name", SAMPLES)
def test_replace_returns_a_changed_copy(name):
    original = sample(name)
    field = first_field(original)
    changed = replace(original, **{field: "other"})
    assert type(changed) is type(original)
    assert getattr(changed, field) == "other"
    assert original == sample(name)
    assert replace(original) == original
    assert replace(original) is not original


def test_replace_keeps_the_other_fields_and_refuses_unknown_ones():
    node = Node("a", NodeType.EXT, label="A", position=(0.0, 1.0), extra={"k": "v"})
    moved = replace(node, position=(2.0, 3.0))
    assert moved == Node("a", NodeType.EXT, label="A", position=(2.0, 3.0), extra={"k": "v"})
    assert node.position == (0.0, 1.0)
    with pytest.raises(TypeError):
        replace(node, colour="red")


@pytest.mark.parametrize("name", SAMPLES)
def test_deepcopy_and_pickle_round_trip(name):
    original = sample(name)
    for copied in (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
        assert type(copied) is type(original)
        assert copied == original
        assert repr(copied) == repr(original)
    assert copy.deepcopy(original) is not original
