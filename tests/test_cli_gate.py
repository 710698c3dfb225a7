"""The CLI's validation gate: what `check` and `transform` print for each
source of findings, pinned byte for byte, and how often a command runs
each validator."""

from __future__ import annotations

import hashlib
import importlib
import json

import pytest

from padfd import Diagram, Flow, FlowType, Node, NodeType, Stage, emit_json, typecheck
from padfd.cli import main

from helpers import build_estore_raw, build_payment_raw

E, P, D = NodeType.EXT, NodeType.PROC, NodeType.DB


def _diagram(stage, nodes, flows) -> Diagram:
    return Diagram(
        stage=stage,
        nodes={node.id: node for node in nodes},
        flows={flow.id: flow for flow in flows},
    )


# One witness per source of findings, each run through the CLI as
# canonical JSON.
WITNESSES = {
    # validate_raw: the raw stage's vocabulary and no partners.
    "invalid-raw": _diagram(
        Stage.RAW,
        [Node("a", E, partner="p"), Node("lim", NodeType.LIMIT), Node("p", P)],
        [Flow("f1", "a", "p", FlowType.PF), Flow("f2", "p", "a", FlowType.PF)],
    ),
    # typecheck's three typing clauses, one each.
    "pf-no-rule": _diagram(
        Stage.RAW, [Node("a", E), Node("b", E)], [Flow("ab", "a", "b", FlowType.PF)]
    ),
    "pf-loop": _diagram(
        Stage.RAW,
        [Node("a", E), Node("p", P)],
        [
            Flow("f1", "a", "p", FlowType.PF),
            Flow("f2", "p", "a", FlowType.PF),
            Flow("loop", "p", "p", FlowType.PF),
        ],
    ),
    "df-no-rule": _diagram(
        Stage.RAW,
        [Node("a", E), Node("p", P)],
        [
            Flow("f1", "a", "p", FlowType.PF),
            Flow("f2", "p", "a", FlowType.PF),
            Flow("del", "a", "p", FlowType.DF),
        ],
    ),
    # A typing clause beside a connectivity finding: never waved through.
    "typing-and-connectivity": _diagram(
        Stage.RAW,
        [Node("a", E), Node("b", E), Node("s", D)],
        [Flow("ab", "a", "b", FlowType.PF)],
    ),
    # Connectivity alone, raw and well-formed: --allow-ill-formed rewrites it.
    "raw-connectivity": _diagram(
        Stage.RAW,
        [Node("a", E), Node("e", E), Node("p", P), Node("s", D)],
        [Flow("f1", "a", "p", FlowType.PF)],
    ),
    "wellformed-connectivity": _diagram(
        Stage.WELLFORMED,
        [Node("a", E), Node("p", P), Node("s", D)],
        [Flow("f1", "a", "p", FlowType.IN)],
    ),
    # validate_wellformed: a typed flow with the wrong endpoints, beside a
    # connectivity finding.
    "wellformed-endpoints": _diagram(
        Stage.WELLFORMED,
        [Node("a", E), Node("p", P), Node("s", D)],
        [Flow("f1", "a", "p", FlowType.IN), Flow("f2", "p", "a", FlowType.STORE)],
    ),
    # validate_pa: a partner that is not there and a well-formed flow kind.
    "pa": _diagram(
        Stage.PA,
        [Node("a", E, partner="ghost"), Node("p", P)],
        [Flow("f1", "a", "p", FlowType.IN)],
    ),
}

# What `check` reports for each witness: (element, rule, kind, message).
FINDINGS = {
    "invalid-raw": [
        ("a", "partner-unexpected", "stage-violation",
         "'a' carries a partner before the rewrite stage"),
        ("lim", "node-type", "stage-violation",
         "node type 'limit' not allowed in a raw diagram"),
    ],
    "pf-no-rule": [
        ("ab", "pf-no-rule", "ill-formed-flow",
         "plain flow 'ab' runs ext -> ext; no flow kind reads that"),
    ],
    "pf-loop": [
        ("loop", "pf-loop", "ill-formed-flow",
         "flow 'loop' loops on process 'p'; inter-process flows need two distinct processes"),
    ],
    "df-no-rule": [
        ("del", "df-no-rule", "ill-formed-flow",
         "deletion flow 'del' runs ext -> proc; deletion must run proc -> db"),
    ],
    "typing-and-connectivity": [
        ("ab", "pf-no-rule", "ill-formed-flow",
         "plain flow 'ab' runs ext -> ext; no flow kind reads that"),
        ("s", "db-connected", "ill-formed-activator", "data store 's' has no flows"),
    ],
    "raw-connectivity": [
        ("e", "ext-connected", "ill-formed-activator", "external entity 'e' has no flows"),
        ("p", "proc-source-target", "ill-formed-activator",
         "process 'p' has no outgoing flow"),
        ("s", "db-connected", "ill-formed-activator", "data store 's' has no flows"),
    ],
    "wellformed-connectivity": [
        ("p", "proc-source-target", "stage-violation", "process 'p' has no outgoing flow"),
        ("s", "db-connected", "stage-violation", "data store 's' has no flows"),
    ],
    "wellformed-endpoints": [
        ("f2", "flow-endpoints", "stage-violation",
         "store flow 'f2' must run proc -> db, found proc -> ext"),
        ("s", "db-connected", "stage-violation", "data store 's' has no flows"),
    ],
    "pa": [
        ("a", "partner-missing", "stage-violation", "'a' names missing partner 'ghost'"),
        ("f1", "flow-type", "stage-violation",
         "flow type 'in' not allowed in a privacy-aware diagram"),
        ("p", "gadget-part", "stage-violation",
         "proc node 'p': reason missing or not wired as the rewrite wires them"),
    ],
}

# What `transform` gives where it does not print the check's findings and
# exit 1 writing nothing: (exit code, stderr, the first 16 hex digits of
# the output file's SHA-256), without and with --allow-ill-formed.
ALREADY_PA = (1, "error: input is already privacy-aware\n", None)
TRANSFORMED = {
    "raw-connectivity": (None, (0, "", "dddb9c78b2d22bee")),
    "wellformed-connectivity": (None, (0, "", "9747d757006e0801")),
    "pa": (ALREADY_PA, ALREADY_PA),
}


def _run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_gate_output_is_pinned(name, tmp_path, capsys):
    findings = FINDINGS[name]
    rendered = "".join(f"error {e} {rule}: {message}\n" for e, rule, _, message in findings)
    source = tmp_path / "in.json"
    source.write_bytes(emit_json(WITNESSES[name]))

    assert _run(capsys, ["check", str(source)]) == (1, rendered, "")
    payload = {
        "stage": WITNESSES[name].stage.value,
        "diagnostics": [
            {"element": element, "rule": rule, "kind": kind, "message": message}
            for element, rule, kind, message in findings
        ],
    }
    report = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert _run(capsys, ["check", str(source), "--report", "json"]) == (1, report, "")

    refused = (1, rendered, None)
    strict, tolerant = TRANSFORMED.get(name, (None, None))
    for flags, expected in (([], strict), (["--allow-ill-formed"], tolerant)):
        output = tmp_path / "out.json"
        code, out, err = _run(capsys, ["transform", str(source), "-o", str(output), *flags])
        digest = hashlib.sha256(output.read_bytes()).hexdigest()[:16] if output.exists() else None
        assert (code, err, digest) == (expected or refused), flags
        assert out == ""
        output.unlink(missing_ok=True)


# --- each command validates once ----------------------------------------------

_VALIDATORS = ("validate_raw", "connectivity", "validate_wellformed")


def _count_validator_calls(monkeypatch) -> dict[str, int]:
    """Wrap each validator wherever a module holds it, counting calls."""
    validate = importlib.import_module("padfd.validate")
    holders = [importlib.import_module(f"padfd.{name}") for name in ("validate", "rewrite")]
    calls = dict.fromkeys(_VALIDATORS, 0)
    for name in _VALIDATORS:
        original = getattr(validate, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in holders:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def _wellformed_estore() -> Diagram:
    return typecheck(build_estore_raw())[0]


RAW_ONCE = {"validate_raw": 1, "connectivity": 1, "validate_wellformed": 0}
WELLFORMED_ONCE = {"validate_raw": 0, "connectivity": 1, "validate_wellformed": 1}


@pytest.mark.parametrize(
    ("command", "build", "expected"),
    [
        ("check", build_estore_raw, RAW_ONCE),
        ("check", _wellformed_estore, WELLFORMED_ONCE),
        ("transform", build_estore_raw, RAW_ONCE),
        ("transform", _wellformed_estore, WELLFORMED_ONCE),
        ("transform --allow-ill-formed", build_estore_raw, RAW_ONCE),
        ("simulate", build_payment_raw, RAW_ONCE),
    ],
    ids=[
        "check-raw",
        "check-wellformed",
        "transform-raw",
        "transform-wellformed",
        "transform-raw-allow-ill-formed",
        "simulate-raw",
    ],
)
def test_each_command_validates_once(
    command, build, expected, fixtures_dir, tmp_path, monkeypatch, capsys
):
    source = tmp_path / "in.json"
    source.write_bytes(emit_json(build()))
    argv = {
        "check": ["check", str(source)],
        "transform": ["transform", str(source), "-o", str(tmp_path / "out.json")],
        "transform --allow-ill-formed": [
            "transform", str(source), "-o", str(tmp_path / "out.json"), "--allow-ill-formed",
        ],
        "simulate": [
            "simulate", str(source),
            "--static", str(fixtures_dir / "payment_static.csv"),
            "--dynamic", str(fixtures_dir / "payment_dynamic.csv"),
            "--clock", "2020-06-01",
        ],
    }[command]
    calls = _count_validator_calls(monkeypatch)
    assert main(argv) == 0, capsys.readouterr().err
    assert calls == expected
