from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padfd import (
    Diagram,
    Flow,
    FlowType,
    Node,
    NodeType,
    Stage,
    Violation,
    transform,
    typecheck,
    validate_pa,
    validate_raw,
    validate_wellformed,
)
from padfd.model import (
    PA_ADMIN_FLOW_TYPES,
    PA_FLOW_TYPES,
    PA_NODE_TYPES,
    PA_POLICY_FLOW_TYPES,
    RAW_FLOW_TYPES,
    WELLFORMED_FLOW_TYPES,
)

from diagram_strategies import (
    any_stage_diagrams,
    edited_pa_scenarios,
    raw_diagrams,
    wellformed_diagrams,
)
from helpers import (
    build_all_kinds,
    build_diagram,
    build_estore_raw,
    build_payment_raw,
    gadget_roles,
    payment_pa,
    replace,
)
from references import (
    reference_validate_pa,
    reference_validate_raw,
    reference_validate_wellformed,
)


def _clauses(validity) -> list[tuple[str | None, str]]:
    return [(v.element, v.clause) for v in validity.violations]


def test_the_stages_flow_types_partition_flow_type():
    stages = [RAW_FLOW_TYPES, WELLFORMED_FLOW_TYPES, PA_FLOW_TYPES]
    assert sum(map(len, stages)) == len(FlowType)
    assert frozenset().union(*stages) == set(FlowType)


def test_the_decorated_flow_types_are_some_privacy_aware_ones():
    assert PA_POLICY_FLOW_TYPES.isdisjoint(PA_ADMIN_FLOW_TYPES)
    assert PA_POLICY_FLOW_TYPES | PA_ADMIN_FLOW_TYPES < PA_FLOW_TYPES


def test_a_privacy_aware_diagram_may_hold_every_node_type():
    assert PA_NODE_TYPES == set(NodeType)


def test_empty_diagram_is_valid_at_raw_and_wellformed():
    assert validate_raw(Diagram()).valid
    assert validate_wellformed(Diagram(stage=Stage.WELLFORMED)).valid


def test_estore_is_valid_raw():
    assert validate_raw(build_estore_raw()).valid


def test_raw_rejects_privacy_node_and_untyped_elements():
    d = build_diagram(
        Stage.RAW,
        [Node("a", NodeType.LIMIT), Node("b", None)],
        [Flow("f", "a", "b", None)],
    )
    assert _clauses(validate_raw(d)) == [
        ("a", "node-type"),
        ("b", "node-untyped"),
        ("f", "flow-untyped"),
    ]


def test_raw_rejects_wellformed_flow_types_and_partners():
    d = build_diagram(
        Stage.RAW,
        [Node("a", NodeType.EXT, partner="b"), Node("b", NodeType.PROC, partner="a")],
        [Flow("f", "a", "b", FlowType.IN)],
    )
    clauses = _clauses(validate_raw(d))
    assert ("f", "flow-type") in clauses
    assert ("a", "partner-unexpected") in clauses
    assert ("b", "partner-unexpected") in clauses


def test_dangling_flow_reported_at_every_stage():
    d = Diagram(
        nodes={"a": Node("a", NodeType.EXT)},
        flows={"f": Flow("f", "a", "ghost", FlowType.PF)},
    )
    for validator in (validate_raw, validate_wellformed, validate_pa):
        assert ("f", "dangling-flow") in _clauses(validator(d))


def test_all_kinds_fixture_is_wellformed():
    assert validate_wellformed(build_all_kinds()).valid


def test_wellformed_endpoint_mismatch():
    d = build_diagram(
        Stage.WELLFORMED,
        [Node("e", NodeType.EXT), Node("p", NodeType.PROC)],
        [
            Flow("f_in", "e", "p", FlowType.IN),
            Flow("f_bad", "p", "e", FlowType.COMP),
        ],
    )
    assert ("f_bad", "flow-endpoints") in _clauses(validate_wellformed(d))


def test_wellformed_comp_loop_rejected():
    d = build_diagram(
        Stage.WELLFORMED,
        [Node("e", NodeType.EXT), Node("p", NodeType.PROC)],
        [
            Flow("f_in", "e", "p", FlowType.IN),
            Flow("f_out", "p", "e", FlowType.OUT),
            Flow("f_loop", "p", "p", FlowType.COMP),
        ],
    )
    assert ("f_loop", "comp-loop") in _clauses(validate_wellformed(d))


def test_wellformed_connectivity_rules():
    d = build_diagram(
        Stage.WELLFORMED,
        [
            Node("e", NodeType.EXT),
            Node("p", NodeType.PROC),
            Node("p_sink", NodeType.PROC),
            Node("s", NodeType.DB),
            Node("island", NodeType.EXT),
        ],
        [
            Flow("f_in", "e", "p", FlowType.IN),
            Flow("f_comp", "p", "p_sink", FlowType.COMP),
        ],
    )
    clauses = _clauses(validate_wellformed(d))
    assert ("p_sink", "proc-source-target") in clauses
    assert ("island", "ext-connected") in clauses
    assert ("s", "db-connected") in clauses


def test_transform_output_is_valid_pa():
    assert validate_pa(transform(build_all_kinds())).valid


def test_pa_rejects_raw_flows_and_checks_partner_symmetry():
    pa = transform(build_all_kinds())
    broken = replace(
        pa,
        flows={**pa.flows, "bad": Flow("bad", "vendor", "p_intake", FlowType.PF)},
    )
    assert ("bad", "flow-type") in _clauses(validate_pa(broken))

    nodes = dict(pa.nodes)
    nodes["p_intake"] = replace(nodes["p_intake"], partner="vendor")
    asym = replace(pa, nodes=nodes)
    assert ("p_intake", "partner-asymmetric") in _clauses(validate_pa(asym))

    nodes = dict(pa.nodes)
    nodes["p_intake"] = replace(nodes["p_intake"], partner="ghost")
    missing = replace(pa, nodes=nodes)
    assert ("p_intake", "partner-missing") in _clauses(validate_pa(missing))


def test_pa_endpoint_table_enforced():
    d = build_diagram(
        Stage.PA,
        [Node("lim", NodeType.LIMIT), Node("lg", NodeType.LOG)],
        [Flow("f", "lg", "lim", FlowType.LIMLOG)],
    )
    assert ("f", "flow-endpoints") in _clauses(validate_pa(d))


# --- the gadget clauses -----------------------------------------------------------


def _deleted(pa: Diagram, element: str) -> Diagram:
    """`pa` without `element`, a node's flows going with it, and with the
    partner links to what went cleared."""
    gone = {element}
    if element in pa.nodes:
        gone |= {f.id for f in pa.flows.values() if element in (f.source, f.target)}

    def kept(elements: dict) -> dict:
        return {
            key: replace(value, partner=None) if value.partner in gone else value
            for key, value in elements.items()
            if key not in gone
        }

    return replace(pa, nodes=kept(pa.nodes), flows=kept(pa.flows))


BUSINESS = {
    "all-kinds": build_all_kinds,
    "estore": lambda: typecheck(build_estore_raw())[0],
    "payment": lambda: typecheck(build_payment_raw())[0],
}


@pytest.mark.parametrize("shared", [False, True], ids=["own-log-stores", "shared-log-store"])
@pytest.mark.parametrize("name", sorted(BUSINESS))
def test_deleting_any_generated_element_fails_validation(name, shared):
    business = BUSINESS[name]()
    pa = transform(business, shared_log_store=shared)
    assert validate_pa(pa).valid
    generated = [
        e for e in (*pa.nodes, *pa.flows) if e not in business.nodes and e not in business.flows
    ]
    assert generated
    passed = [e for e in generated if validate_pa(_deleted(pa, e)).valid]
    assert passed == []


@pytest.mark.parametrize("shared", [False, True], ids=["own-log-stores", "shared-log-store"])
def test_retargeting_any_generated_flow_fails_validation(shared):
    pa = transform(BUSINESS["payment"](), shared_log_store=shared)
    passed = []
    for flow_id, flow in pa.flows.items():
        if not flow_id.startswith("gen-"):
            continue
        for end in ("source", "target"):
            for node in pa.nodes:
                if node != getattr(flow, end):
                    edited = replace(pa, flows={**pa.flows, flow_id: replace(flow, **{end: node})})
                    if validate_pa(edited).valid:
                        passed.append((flow_id, end, node))
    assert passed == []


def test_a_bare_guarded_flow_is_no_gadget():
    bare = build_diagram(
        Stage.PA,
        [Node("lim", NodeType.LIMIT), Node("p", NodeType.PROC)],
        [Flow("f", "lim", "p", FlowType.LIMPRO)],
    )
    assert _clauses(validate_pa(bare)) == [("f", "gadget-part"), ("p", "gadget-part")]
    assert validate_pa(bare).violations[0].message == (
        "limpro flow 'f': request, log, log_db, reqlim, limlog, logging, data_in, "
        "source_policy, target_policy missing or not wired as the rewrite wires them"
    )


def test_a_store_whose_cleaner_deletes_from_another_store_is_refused():
    pa = payment_pa()
    deletions = sorted(f.id for f in pa.flows.values() if f.flow_type is FlowType.CLEDB_DEL)
    assert len(deletions) == 2
    first, second = (pa.flows[flow_id] for flow_id in deletions)
    swapped = {
        first.id: replace(first, target=second.target),
        second.id: replace(second, target=first.target),
    }
    clauses = set(_clauses(validate_pa(replace(pa, flows={**pa.flows, **swapped}))))
    assert clauses == {
        (first.target, "gadget-part"), (second.target, "gadget-part"),
        (first.id, "gadget-unclaimed"), (second.id, "gadget-unclaimed"),
    }


def test_two_gadgets_sharing_one_log_chain_are_refused():
    """f2's log chain is deleted and its limlog retargeted at f1's log: the
    log and its logging flow now serve two gadgets, which the rewrite never
    writes. Their log store, which `--shared-log-store` shares, is no
    finding."""
    pa = payment_pa()
    index = gadget_roles(pa)
    first, second = index["f1"], index["f2"]
    gone = {second["log"], second["log_db"], second["logging"]}
    limlog = replace(pa.flows[second["limlog"]], target=first["log"])
    edited = replace(
        pa,
        nodes={k: n for k, n in pa.nodes.items() if k not in gone},
        flows={**{k: f for k, f in pa.flows.items() if k not in gone}, limlog.id: limlog},
    )
    shared = {role: first[role] for role in ("log", "log_db", "logging")}
    assert gadget_roles(edited)["f2"] == {**second, **shared}
    assert [(v.element, v.clause, v.message) for v in validate_pa(edited).violations] == [
        (first["log"], "gadget-shared",
         f"log node {first['log']!r} is a part of more than one gadget: log of 'f1', log of 'f2'"),
        (first["logging"], "gadget-shared",
         f"logging flow {first['logging']!r} is a part of more than one gadget: "
         "logging of 'f1', logging of 'f2'"),
    ]


def test_two_stores_sharing_one_cleaner_are_refused():
    """db_bim's cleaner is deleted and its two cleaning flows pointed at
    db_project's cleaner, which then cleans both stores."""
    pa = payment_pa()
    (own,) = (f for f in pa.flows.values() if f.flow_type is FlowType.PDBCLE
              and f.source == pa.nodes["db_bim"].partner)
    (other,) = (f for f in pa.flows.values() if f.flow_type is FlowType.PDBCLE
                and f.source == pa.nodes["db_project"].partner)
    (deletes,) = (f for f in pa.flows.values() if f.flow_type is FlowType.CLEDB_DEL
                  and f.target == "db_bim")
    flows = {**pa.flows, own.id: replace(own, target=other.target),
             deletes.id: replace(deletes, source=other.target)}
    nodes = {k: n for k, n in pa.nodes.items() if k != own.target}
    (violation,) = validate_pa(replace(pa, nodes=nodes, flows=flows)).violations
    assert (violation.element, violation.clause) == (other.target, "gadget-shared")
    assert violation.message == (
        f"clean node {other.target!r} is a part of more than one gadget: "
        "clean of 'db_bim', clean of 'db_project'"
    )


def test_violations_sorted_by_element_then_clause():
    d = build_diagram(
        Stage.WELLFORMED,
        [Node("zz", NodeType.DB), Node("aa", NodeType.EXT)],
        [],
    )
    assert _clauses(validate_wellformed(d)) == [
        ("aa", "ext-connected"),
        ("zz", "db-connected"),
    ]


def test_violation_render_format():
    d = build_diagram(Stage.WELLFORMED, [Node("aa", NodeType.EXT)], [])
    line = validate_wellformed(d).violations[0].render()
    assert line.startswith("error aa ext-connected: ")


@pytest.mark.parametrize(
    "element,shown",
    [("a b", "a b"), ("f\u00f6\U0001f512", "f\u00f6\U0001f512"), ("a\nb", "a\\nb"),
     ("a\tb\r", "a\\tb\\r"), ("\u2028'\"\\", "\\u2028\\'\"\\\\")],
    ids=["blank", "non-ascii", "newline", "tab", "quotes"],
)
def test_violation_render_escapes_an_element_that_does_not_print(element, shown):
    """Printable text is written as it is; other text in Python's escapes,
    so that the finding keeps its one line."""
    line = Violation("comp-loop", element, "m").render()
    assert line == f"error {shown} comp-loop: m"
    assert len(line.splitlines()) == 1


@st.composite
def _damaged_diagrams(draw) -> Diagram:
    """Diagrams of every stage, some broken at random: nodes dropped from
    under their flows, types cleared, partners pointed anywhere, flows
    looped onto their source, and flows given the ids of nodes."""
    diagram = draw(
        any_stage_diagrams()
        | raw_diagrams()
        | wellformed_diagrams()
        | edited_pa_scenarios().map(lambda scenario: scenario[1])
    )
    if draw(st.booleans()):
        return diagram
    ids = sorted({*diagram.nodes, *diagram.flows, "ghost"})
    actions = st.sampled_from(("keep", "keep", "untype", "partner", "loop-or-drop", "share-id"))
    nodes = {}
    for node in diagram.nodes.values():
        action = draw(actions)
        if action == "loop-or-drop":
            continue
        if action == "untype":
            node = replace(node, node_type=None)
        elif action == "partner":
            node = replace(node, partner=draw(st.sampled_from(ids)))
        nodes[node.id] = node
    flows = {}
    for flow in diagram.flows.values():
        action = draw(actions)
        if action == "untype":
            flow = replace(flow, flow_type=None)
        elif action == "partner":
            flow = replace(flow, partner=draw(st.sampled_from(ids)))
        elif action == "loop-or-drop":
            flow = replace(flow, target=flow.source)
        elif action == "share-id" and diagram.nodes:
            node_id = draw(st.sampled_from(sorted(diagram.nodes)))
            if node_id not in flows and node_id not in diagram.flows:
                flow = replace(flow, id=node_id)
        flows[flow.id] = flow
    return Diagram(diagram.stage, nodes, flows)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_damaged_diagrams())
def test_each_validator_is_its_reference(diagram):
    for ours, reference in (
        (validate_raw, reference_validate_raw),
        (validate_wellformed, reference_validate_wellformed),
        (validate_pa, reference_validate_pa),
    ):
        assert ours(diagram) == reference(diagram)
