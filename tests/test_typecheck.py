from __future__ import annotations

import pytest

from padfd import (
    Diagram,
    Flow,
    FlowType,
    Node,
    NodeType,
    Stage,
    StageError,
    typecheck,
    validate_wellformed,
)
from padfd.validate import CONNECTIVITY_CLAUSES, validate_raw

from helpers import ESTORE_EXPECTED_TYPES, build_diagram, build_estore_raw, replace

E, P, D = NodeType.EXT, NodeType.PROC, NodeType.DB

# Independent reading of the typing rules: the only endpoint pairs with a
# well-formed reading, per raw kind.
PF_ORACLE = {
    (E, P): FlowType.IN,
    (P, E): FlowType.OUT,
    (P, P): FlowType.COMP,
    (P, D): FlowType.STORE,
    (D, P): FlowType.READ,
}
DF_ORACLE = {(P, D): FlowType.DELETE}
TYPING_CLAUSES = {"pf-no-rule", "pf-loop", "df-no-rule"}


def _typed(kinds: list[NodeType], flow_type: FlowType) -> FlowType | None:
    """The type `typecheck` gives flow "f" from the first of `kinds`' nodes
    to the last, or None when it reports the flow instead. Connectivity
    findings are tolerated: a lone flow rarely satisfies them."""
    nodes = [Node(f"n{i}", kind) for i, kind in enumerate(kinds)]
    flow = Flow("f", nodes[0].id, nodes[-1].id, flow_type)
    result, diagnostics = typecheck(
        build_diagram(Stage.RAW, nodes, [flow]), tolerate_connectivity=True
    )
    if result is None:
        assert [g.element for g in diagnostics if g.clause in TYPING_CLAUSES] == ["f"]
        return None
    return result.flows["f"].flow_type


def test_infer_flow_type_matches_oracle_exhaustively():
    for src in (E, P, D):
        for tgt in (E, P, D):
            assert _typed([src, tgt], FlowType.PF) == PF_ORACLE.get((src, tgt))
            assert _typed([src, tgt], FlowType.DF) == DF_ORACLE.get((src, tgt))


def test_infer_flow_type_loop_cases():
    # Two distinct processes; then a flow from a node to itself.
    assert _typed([P, P], FlowType.PF) is FlowType.COMP
    assert _typed([P], FlowType.PF) is None
    assert _typed([E], FlowType.PF) is None
    assert _typed([P, D], FlowType.DF) is FlowType.DELETE


def test_check_activator():
    # Processes relay; entities and stores attach. The rule is shared
    # with the well-formed-stage validator, message for message.
    d = build_diagram(
        Stage.RAW,
        [
            Node("e", NodeType.EXT),
            Node("p", NodeType.PROC),
            Node("sink", NodeType.PROC),
            Node("idle", NodeType.PROC),
            Node("lone", NodeType.EXT),
            Node("s", NodeType.DB),
        ],
        [Flow("f1", "e", "p", FlowType.PF), Flow("f2", "p", "sink", FlowType.PF)],
    )
    result, diagnostics = typecheck(d)
    assert result is None
    assert {g.clause for g in diagnostics} <= CONNECTIVITY_CLAUSES
    assert [(g.element, g.clause, g.message) for g in diagnostics] == [
        ("idle", "proc-source-target", "process 'idle' has no incoming or outgoing flow"),
        ("lone", "ext-connected", "external entity 'lone' has no flows"),
        ("s", "db-connected", "data store 's' has no flows"),
        ("sink", "proc-source-target", "process 'sink' has no outgoing flow"),
    ]
    typed = replace(
        d,
        stage=Stage.WELLFORMED,
        flows={
            "f1": replace(d.flows["f1"], flow_type=FlowType.IN),
            "f2": replace(d.flows["f2"], flow_type=FlowType.COMP),
        },
    )
    assert list(validate_wellformed(typed).violations) == diagnostics


def test_typecheck_can_tolerate_connectivity():
    d = build_diagram(
        Stage.RAW,
        [Node("e", NodeType.EXT), Node("p", NodeType.PROC), Node("q", NodeType.PROC)],
        [Flow("f1", "e", "p", FlowType.PF), Flow("f2", "p", "q", FlowType.PF)],
    )
    result, diagnostics = typecheck(d, tolerate_connectivity=True)
    assert result is not None and result.stage is Stage.WELLFORMED
    assert {f.id: f.flow_type for f in result.flows.values()} == {
        "f1": FlowType.IN,
        "f2": FlowType.COMP,
    }
    assert [(g.element, g.clause) for g in diagnostics] == [("q", "proc-source-target")]

    # Flow findings still block, and every finding is reported.
    bad = replace(d, flows={**d.flows, "f3": Flow("f3", "e", "e", FlowType.PF)})
    result, diagnostics = typecheck(bad, tolerate_connectivity=True)
    assert result is None
    assert [(g.element, g.clause) for g in diagnostics] == [
        ("f3", "pf-no-rule"),
        ("q", "proc-source-target"),
    ]


def test_typecheck_estore_types_every_flow():
    wellformed, diagnostics = typecheck(build_estore_raw())
    assert diagnostics == []
    assert wellformed is not None
    assert wellformed.stage is Stage.WELLFORMED
    assert {f.id: f.flow_type for f in wellformed.flows.values()} == ESTORE_EXPECTED_TYPES
    assert validate_wellformed(wellformed).valid


def test_typecheck_preserves_topology_and_attributes():
    raw = build_estore_raw()
    wellformed, _ = typecheck(raw)
    assert set(wellformed.nodes) == set(raw.nodes)
    assert set(wellformed.flows) == set(raw.flows)
    for flow_id, flow in raw.flows.items():
        typed = wellformed.flows[flow_id]
        assert (typed.source, typed.target, typed.label) == (
            flow.source,
            flow.target,
            flow.label,
        )
    assert wellformed.nodes == raw.nodes


def test_typecheck_failure_returns_no_diagram():
    d = build_diagram(
        Stage.RAW,
        [Node("s1", NodeType.DB), Node("s2", NodeType.DB)],
        [Flow("f", "s1", "s2", FlowType.PF)],
    )
    result, diagnostics = typecheck(d)
    assert result is None
    assert [(g.element, g.clause) for g in diagnostics] == [("f", "pf-no-rule")]


def test_typecheck_reports_every_problem_sorted():
    d = build_diagram(
        Stage.RAW,
        [Node("e1", NodeType.EXT), Node("e2", NodeType.EXT), Node("p", NodeType.PROC)],
        [Flow("fa", "e1", "e2", FlowType.PF), Flow("fb", "e1", "p", FlowType.DF)],
    )
    # Independent count: failing clauses evaluated one by one.
    expected = [
        ("fa", "pf-no-rule"),   # ext -> ext has no reading
        ("fb", "df-no-rule"),   # deletion must run proc -> db
        ("p", "proc-source-target"),  # no outgoing flow
    ]
    result, diagnostics = typecheck(d)
    assert result is None
    assert [(g.element, g.clause) for g in diagnostics] == sorted(expected)


def test_typecheck_diagnostic_render_format():
    d = build_diagram(
        Stage.RAW,
        [Node("s1", NodeType.DB), Node("s2", NodeType.DB)],
        [Flow("f", "s1", "s2", FlowType.PF)],
    )
    _, diagnostics = typecheck(d)
    line = diagnostics[0].render()
    assert line.startswith("error f pf-no-rule: ")


def test_typecheck_requires_raw_stage():
    wellformed, _ = typecheck(build_estore_raw())
    with pytest.raises(StageError):
        typecheck(wellformed)


def test_typecheck_requires_valid_raw_content():
    """Raw content that `validate_raw` refuses comes back as its findings,
    with no diagram, whether or not connectivity findings are tolerated."""
    d = build_diagram(Stage.RAW, [Node("x", NodeType.LIMIT)], [])
    expected = list(validate_raw(d).violations)
    assert expected
    for tolerate in (False, True):
        assert typecheck(d, tolerate_connectivity=tolerate) == (None, expected)


def test_typecheck_loop_rule():
    d = build_diagram(
        Stage.RAW,
        [Node("e", NodeType.EXT), Node("p", NodeType.PROC)],
        [
            Flow("f_in", "e", "p", FlowType.PF),
            Flow("f_out", "p", "e", FlowType.PF),
            Flow("f_loop", "p", "p", FlowType.PF),
        ],
    )
    result, diagnostics = typecheck(d)
    assert result is None
    assert [(g.element, g.clause) for g in diagnostics] == [("f_loop", "pf-loop")]


def test_typecheck_is_deterministic():
    d = build_diagram(
        Stage.RAW,
        [Node("e1", NodeType.EXT), Node("e2", NodeType.EXT), Node("p", NodeType.PROC)],
        [Flow("fa", "e1", "e2", FlowType.PF), Flow("fb", "e1", "p", FlowType.DF)],
    )
    first = typecheck(d)
    second = typecheck(d)
    assert first == second
