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

`run` is the process entry (the ``padfd`` console script and
``python -m padfd.cli``); `main` is the same command line as a function
for callers inside a Python process.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .errors import PadfdError, ParseError, WellFormednessError
from .model import Stage

# Each subcommand imports the layers it uses inside the functions below,
# so a process loads only what its command and input formats need. The
# names here serve annotations only (type checkers read any
# `TYPE_CHECKING` as true), so not even `typing` is imported for them.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence
    from datetime import date

    from .graph import Diagram
    from .styles import StyleMap
    from .validate import Violation


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


def _gate(
    diagram: Diagram, allow_ill_formed: bool
) -> tuple[Sequence[Violation], Diagram | None]:
    """Check a diagram once: its findings, and the diagram ready for the
    rewrite or None. A raw diagram is typed on the way. With
    ``allow_ill_formed`` connectivity findings alone are waved through;
    typing problems never are. No privacy-aware diagram is ready."""
    if diagram.stage is Stage.RAW:
        from .typecheck import typecheck

        try:
            wellformed, findings = typecheck(
                diagram, tolerate_connectivity=allow_ill_formed
            )
        except WellFormednessError as exc:
            return exc.violations, None
        return findings, wellformed
    from .validate import blocks_rewrite, validate_pa, validate_wellformed

    if diagram.stage is Stage.PA:
        return validate_pa(diagram).violations, None
    findings = validate_wellformed(diagram).violations
    return findings, None if blocks_rewrite(findings, allow_ill_formed) else diagram


def cmd_check(args) -> int:
    styles = _style_map(args)
    diagram = _read_diagram(args.input, args.format, styles)
    findings, _ = _gate(diagram, allow_ill_formed=False)
    if args.report == "json":
        # A raw diagram's findings say what kind of typing problem they are.
        kinds = {}
        if diagram.stage is Stage.RAW:
            from .validate import CONNECTIVITY_CLAUSES

            kinds = dict.fromkeys(("pf-no-rule", "pf-loop", "df-no-rule"), "ill-formed-flow")
            kinds.update(dict.fromkeys(CONNECTIVITY_CLAUSES, "ill-formed-activator"))
        payload = {
            "stage": diagram.stage.value,
            "diagnostics": [
                {
                    "element": f.element,
                    "rule": f.clause,
                    "message": f.message,
                    "kind": kinds.get(f.clause, "stage-violation"),
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


def cmd_transform(args) -> int:
    styles = _style_map(args)
    diagram = _read_diagram(args.input, args.in_format, styles)
    if diagram.stage is Stage.PA:
        print("error: input is already privacy-aware", file=sys.stderr)
        return 1
    findings, wellformed = _gate(diagram, args.allow_ill_formed)
    if wellformed is None:
        for finding in findings:
            print(finding.render(), file=sys.stderr)
        return 1
    from .transform import transform

    result = transform(wellformed, shared_log_store=args.shared_log_store, check=False)
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
        findings, wellformed = _gate(diagram, allow_ill_formed=False)
        if wellformed is None:
            for finding in findings:
                print(finding.render(), file=sys.stderr)
            return 1
        from .transform import transform

        diagram = transform(wellformed, check=False)
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
    """Run one command line and return its exit code. The caller's
    collector state is left as it was."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PadfdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """Entry of a ``padfd`` process: `main` on ``sys.argv`` without the
    cyclic garbage collector.

    A command builds no reference cycles that grow with its input, so in
    a short-lived process the collector would only rescan the live
    diagram, elements and decisions as they are built. The heap is frozen
    on the way out, which leaves the full collection CPython makes at
    shutdown, disabled collector or not, nothing to scan."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
