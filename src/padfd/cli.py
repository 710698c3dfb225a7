"""Command line interface.

    padfd check INPUT        validate a diagram, printing diagnostics
    padfd transform INPUT    rewrite a business diagram into a privacy-aware one
    padfd simulate MODEL     run policy/data tables against a model
    padfd export INPUT       convert between drawio / json / dot

Exit codes: 0 clean, 1 semantic problems (ill-formed diagram, policy
violation with --fail-on-violation, unknown flow ids), 2 unreadable
input (XML/JSON syntax, unknown styles, missing files). Output files are
written atomically (temp file, then rename). The PADFD_STYLES
environment variable supplies a default --styles file.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import PadfdError, ParseError
from .model import Stage

# Each subcommand imports the layers it uses inside the functions below,
# so a process loads only what its command and input formats need. The
# names here serve annotations only (type checkers read any
# `TYPE_CHECKING` as true), so not even `typing` is imported for them.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from datetime import date

    from .graph import Diagram
    from .styles import StyleMap


def _style_map(args) -> StyleMap | None:
    """The map named by --styles or PADFD_STYLES, read on every command so
    a bad one always fails alike; None stands for the draw.io default."""
    path = getattr(args, "styles", None) or os.environ.get("PADFD_STYLES")
    if not path:
        return None
    from .styles import load_style_map

    return load_style_map(path)


def _sniff_format(path: Path, data: bytes) -> str:
    if path.suffix.lower() == ".json":
        return "json"
    if path.suffix.lower() in (".xml", ".drawio"):
        return "drawio"
    head = data.lstrip()[:1]
    return "json" if head == b"{" else "drawio"


def _read_diagram(path_text: str, fmt: str | None, styles: StyleMap | None) -> Diagram:
    path = Path(path_text)
    data = path.read_bytes()
    fmt = fmt or _sniff_format(path, data)
    if fmt == "json":
        from .canonical import parse_json

        return parse_json(data)
    from .drawio import parse_drawio

    return parse_drawio(data, styles)


def _write_atomic(path_text: str, data: bytes) -> None:
    import tempfile

    path = Path(path_text)
    handle = tempfile.NamedTemporaryFile(
        dir=path.parent or Path("."), prefix=f".{path.name}.", delete=False
    )
    try:
        handle.write(data)
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        os.unlink(handle.name)
        raise


def _emit(diagram: Diagram, fmt: str, styles: StyleMap | None) -> bytes:
    if fmt == "json":
        from .canonical import emit_json

        return emit_json(diagram)
    if fmt == "dot":
        from .dot import emit_dot

        return emit_dot(diagram)
    from .drawio import emit_drawio
    from .layout import layout_generated

    # draw.io files should open fully placed; fill in missing positions.
    return emit_drawio(layout_generated(diagram), styles)


def _sniff_out_format(path_text: str) -> str:
    suffix = Path(path_text).suffix.lower()
    if suffix == ".json":
        return "json"
    if suffix in (".dot", ".gv"):
        return "dot"
    return "drawio"


def _findings(diagram: Diagram) -> list:
    """Diagnostics (raw stage) or violations (later stages), render-ables."""
    from .validate import validate_pa, validate_raw, validate_wellformed

    if diagram.stage is Stage.RAW:
        validity = validate_raw(diagram)
        if not validity.valid:
            return list(validity.violations)
        from .typecheck import typecheck

        _, diagnostics = typecheck(diagram)
        return diagnostics
    if diagram.stage is Stage.WELLFORMED:
        return list(validate_wellformed(diagram).violations)
    return list(validate_pa(diagram).violations)


def cmd_check(args) -> int:
    styles = _style_map(args)
    diagram = _read_diagram(args.input, args.format, styles)
    findings = _findings(diagram)
    if args.report == "json":
        payload = {
            "stage": diagram.stage.value,
            "diagnostics": [
                {
                    "element": f.element,
                    "rule": getattr(f, "rule", None) or getattr(f, "clause", None),
                    "message": f.message,
                    "kind": getattr(f, "kind", None).value
                    if getattr(f, "kind", None)
                    else "stage-violation",
                }
                for f in findings
            ],
        }
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
    return 1 if findings else 0


def _to_wellformed(diagram: Diagram, allow_ill_formed: bool) -> Diagram | None:
    """Bring a raw or well-formed diagram to the rewrite's doorstep,
    printing findings and returning None when it cannot be done. With
    ``allow_ill_formed`` connectivity findings alone are waved through;
    typing problems never are."""
    from .validate import CONNECTIVITY_CLAUSES, validate_raw, validate_wellformed

    if diagram.stage is Stage.RAW:
        validity = validate_raw(diagram)
        if not validity.valid:
            for violation in validity.violations:
                print(violation.render(), file=sys.stderr)
            return None
        from .typecheck import typecheck

        wellformed, diagnostics = typecheck(
            diagram, tolerate_connectivity=allow_ill_formed
        )
        if wellformed is None:
            for diagnostic in diagnostics:
                print(diagnostic.render(), file=sys.stderr)
        return wellformed
    violations = validate_wellformed(diagram).violations
    if not violations or (
        allow_ill_formed and all(v.clause in CONNECTIVITY_CLAUSES for v in violations)
    ):
        return diagram
    for violation in violations:
        print(violation.render(), file=sys.stderr)
    return None


def cmd_transform(args) -> int:
    styles = _style_map(args)
    diagram = _read_diagram(args.input, args.in_format, styles)
    if diagram.stage is Stage.PA:
        print("error: input is already privacy-aware", file=sys.stderr)
        return 1
    wellformed = _to_wellformed(diagram, args.allow_ill_formed)
    if wellformed is None:
        return 1
    from .transform import transform

    result = transform(
        wellformed,
        shared_log_store=args.shared_log_store,
        check=not args.allow_ill_formed,
    )
    out_format = args.out_format or _sniff_out_format(args.output)
    _write_atomic(args.output, _emit(result, out_format, styles))
    return 0


def cmd_simulate(args) -> int:
    from .simulate import (
        compatibility_with_equivalences,
        load_data_records,
        load_equivalences,
        load_flow_metas,
        render_report,
        report_json,
        run_simulation,
    )

    styles = _style_map(args)
    diagram = _read_diagram(args.model, args.in_format, styles)
    if diagram.stage is not Stage.PA:
        wellformed = _to_wellformed(diagram, allow_ill_formed=False)
        if wellformed is None:
            return 1
        from .transform import transform

        diagram = transform(wellformed)
    metas = load_flow_metas(args.static)
    records = load_data_records(args.dynamic)
    compatible = None
    if args.compat:
        compatible = compatibility_with_equivalences(load_equivalences(args.compat))
    report = run_simulation(
        diagram,
        metas,
        records,
        args.clock,
        compatible=compatible,
        multi_hop=args.multi_hop,
    )
    if args.report == "json":
        print(report_json(report))
    else:
        print(render_report(report), end="")
    if args.fail_on_violation and report.violations:
        return 1
    return 0


def cmd_export(args) -> int:
    styles = _style_map(args)
    diagram = _read_diagram(args.input, args.in_format, styles)
    _write_atomic(args.output, _emit(diagram, args.out_format, styles))
    return 0


def _iso_date(text: str) -> date:
    from datetime import date

    try:
        return date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an ISO date (YYYY-MM-DD), got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padfd",
        description="Validate, rewrite, and simulate privacy-aware data flow diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate a diagram and print diagnostics")
    check.add_argument("input")
    check.add_argument("--format", choices=["drawio", "json"], default=None)
    check.add_argument("--styles", help="style map JSON file")
    check.add_argument("--report", choices=["text", "json"], default="text")
    check.set_defaults(func=cmd_check)

    tf = sub.add_parser(
        "transform", help="rewrite a business diagram into a privacy-aware one"
    )
    tf.add_argument("input")
    tf.add_argument("-o", "--output", required=True)
    tf.add_argument("--in-format", choices=["drawio", "json"], default=None)
    tf.add_argument("--out-format", choices=["drawio", "json", "dot"], default=None)
    tf.add_argument(
        "--shared-log-store",
        action="store_true",
        help="merge the per-flow log stores into one",
    )
    tf.add_argument(
        "--allow-ill-formed",
        action="store_true",
        help="rewrite diagram excerpts despite connectivity findings",
    )
    tf.add_argument("--styles", help="style map JSON file")
    tf.set_defaults(func=cmd_transform)

    sim = sub.add_parser("simulate", help="run policy/data tables against a model")
    sim.add_argument("model")
    sim.add_argument("--static", required=True, help="flow policy table (.csv/.json)")
    sim.add_argument("--dynamic", required=True, help="data record table (.csv/.json)")
    sim.add_argument("--clock", required=True, type=_iso_date, help="YYYY-MM-DD")
    sim.add_argument("--report", choices=["json", "text"], default="text")
    sim.add_argument("--fail-on-violation", action="store_true")
    sim.add_argument(
        "--multi-hop",
        action="store_true",
        help="records forwarded into a process continue along its outgoing flows",
    )
    sim.add_argument(
        "--compat", help="JSON list of [consented, covered] purpose pairs"
    )
    sim.add_argument("--in-format", choices=["drawio", "json"], default=None)
    sim.add_argument("--styles", help="style map JSON file")
    sim.set_defaults(func=cmd_simulate)

    export = sub.add_parser("export", help="convert between diagram formats")
    export.add_argument("input")
    export.add_argument("-o", "--output", required=True)
    export.add_argument(
        "--out-format", choices=["drawio", "json", "dot"], required=True
    )
    export.add_argument("--in-format", choices=["drawio", "json"], default=None)
    export.add_argument("--styles", help="style map JSON file")
    export.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PadfdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
