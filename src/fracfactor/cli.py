"""Command-line front end.

Subcommands:
    check-factor      decide fractional [a,b]-factor existence for one graph
    check-critical    decide fractional ID-[a,b]-factor-criticality
    check-hypotheses  evaluate the three criticality conditions
    verify-theorem    sweep an ensemble for condition/criticality counterexamples
    gen               generate extremal or random graphs

Exit codes: 0 when the queried property holds (or generation succeeded),
1 when it fails, 2 for usage or input errors, 3 when a cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .conditions import check_criticality_conditions
from .constructions import (
    GENERATED_KINDS,
    KIND_RANDOM,
    parse_probability,
    random_graph,
    verify_sharpness,
)
from .criticality import is_fractional_id_factor_critical
from .errors import ConstructionError, InputError, ResourceLimitError
from .factor import FactorParams, FractionalAssignment, find_fractional_factor
from .graphs import format_edge_list, parse_edge_list
from .sweep import parse_sweep_config, run_sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracfactor",
        description="Exact checks for fractional [a,b]-factors and deletion criticality.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument("--seed", type=int, default=0, help="default random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("-a", type=int, required=True, help="lower degree bound a")
        p.add_argument("-b", type=int, required=True, help="upper degree bound b")

    p = sub.add_parser("check-factor", help="decide fractional [a,b]-factor existence")
    p.add_argument("graph", help="edge-list file")
    add_params(p)
    p.add_argument("--witness", action="store_true", help="print a factor when one exists")

    p = sub.add_parser("check-critical", help="decide deletion criticality")
    p.add_argument("graph", help="edge-list file")
    add_params(p)

    p = sub.add_parser("check-hypotheses", help="evaluate the three conditions")
    p.add_argument("graph", help="edge-list file")
    add_params(p)

    p = sub.add_parser("verify-theorem", help="run a counterexample sweep")
    p.add_argument("config", help="sweep config file")

    p = sub.add_parser("gen", help="generate a graph")
    p.add_argument("kind", choices=(*GENERATED_KINDS, KIND_RANDOM))
    p.add_argument("-a", type=int, help="lower degree bound a")
    p.add_argument("-b", type=int, help="upper degree bound b")
    p.add_argument("-t", type=int, help="scale parameter for extremal families")
    p.add_argument("-n", type=int, help="order for random graphs")
    p.add_argument("-p", help="edge probability for random graphs, e.g. 1/2")
    p.add_argument("-o", "--out", required=True, help="output edge-list path")
    p.add_argument(
        "--verify",
        action="store_true",
        help="audit the generated extremal instance and print the report",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "check-factor": _cmd_check_factor,
        "check-critical": _cmd_check_critical,
        "check-hypotheses": _cmd_check_hypotheses,
        "verify-theorem": _cmd_verify_theorem,
        "gen": _cmd_gen,
    }
    try:
        return commands[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConstructionError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_graph(path: str):
    return parse_edge_list(_read_text(path))


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _certificate_line(cert: dict | None) -> str:
    """The text of a JSON certificate, as check-factor and check-critical print it."""
    if cert is None:
        return "certificate: not extracted (order above the subset-scan cap)"
    return f"certificate: S={cert['s']} T={cert['t']} delta={cert['delta']}"


def _cmd_check_factor(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    params = FactorParams(args.a, args.b)
    result = find_fractional_factor(g, params)
    feasible = isinstance(result, FractionalAssignment)
    payload: dict = {
        "command": "check-factor",
        "n": g.n,
        "m": g.m,
        "a": params.a,
        "b": params.b,
        "feasible": feasible,
    }
    lines = [f"graph: {g.n} vertices, {g.m} edges", f"params: a={params.a} b={params.b}"]
    if feasible:
        lines.append("feasible: yes")
        if args.witness:  # one "u v p/q" line per edge, the fraction in lowest terms
            payload["witness"] = [
                [u, v, f"{val.numerator}/{val.denominator}"]
                for (u, v), val in sorted(result.values.items())
            ]
            lines.append("witness:")
            lines.extend(" ".join(map(str, row)) for row in payload["witness"])
        _emit(args, payload, lines)
        return 0
    lines.append("feasible: no")
    payload["certificate"] = result.certificate.to_dict() if result.certificate else None
    lines.append(_certificate_line(payload["certificate"]))
    _emit(args, payload, lines)
    return 1


def _cmd_check_critical(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    params = FactorParams(args.a, args.b)
    report = is_fractional_id_factor_critical(g, params)
    payload = {"command": "check-critical", "a": params.a, "b": params.b}
    payload.update(report.to_dict())
    lines = [
        f"graph: {g.n} vertices, {g.m} edges",
        f"params: a={params.a} b={params.b}",
        f"critical: {'yes' if report.verdict else 'no'}",
        f"independent sets checked: {report.independent_sets_checked}",
    ]
    if not report.verdict:
        lines.append(f"failing independent set: {sorted(report.failing_set or ())}")
        lines.append(_certificate_line(payload["certificate"]))
    _emit(args, payload, lines)
    return 0 if report.verdict else 1


def _cmd_check_hypotheses(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    params = FactorParams(args.a, args.b)
    report = check_criticality_conditions(g, params)
    payload = {"command": "check-hypotheses"}
    payload.update(report.to_dict())
    lines = [
        f"graph: {g.n} vertices, min degree {report.min_degree}",
        f"params: a={params.a} b={params.b}",
        f"order:        {'ok' if report.order_ok else 'FAIL'} (margin {report.order_margin})",
        f"min degree:   {'ok' if report.min_degree_ok else 'FAIL'} (margin {report.min_degree_margin})",
    ]
    if report.worst_pair is None:
        lines.append("neighborhood: ok (vacuous, graph is complete)")
    else:
        lines.append(
            f"neighborhood: {'ok' if report.neighborhood_ok else 'FAIL'} "
            f"(margin {report.neighborhood_margin}, worst pair {report.worst_pair} "
            f"with union {report.worst_union_size})"
        )
    lines.append(f"all conditions: {'ok' if report.all_ok else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if report.all_ok else 1


def _cmd_verify_theorem(args: argparse.Namespace) -> int:
    config = parse_sweep_config(_read_text(args.config))
    report = Path(config.output_path) if config.output_path else None
    created = report is not None and not report.exists()
    if report:  # an unwritable path fails here, before any graph is examined
        open(report, "a").close()
    try:
        result = run_sweep(config)
    except BaseException:  # a failed sweep leaves no empty report behind
        if created:
            report.unlink(missing_ok=True)
        raise
    payload = result.to_dict()
    lines = []
    for summary in result.summaries:
        lines.append(
            f"(a={summary.a}, b={summary.b}): {summary.graphs_examined} graphs, "
            f"{summary.condition_passing} pass the conditions, "
            f"{summary.criticality_confirmed} confirmed critical, "
            f"{summary.invariant_checks} invariant audits, "
            f"{len(summary.counterexamples)} counterexamples"
        )
    lines.append(f"total counterexamples: {result.counterexample_count}")
    for summary in result.summaries:
        for cex in summary.counterexamples:
            lines.append(f"counterexample [{cex.kind}] at {cex.source}:")
            lines.append(f"  edges: {list(cex.edges)}")
    if report:
        report.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        lines.append(f"report written to {config.output_path}")
    _emit(args, payload, lines)
    return 0 if result.counterexample_count == 0 else 1


def _require(args: argparse.Namespace, names: list[str]) -> None:
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        raise InputError(
            f"gen {args.kind} requires " + ", ".join(f"-{m}" for m in missing)
        )


def _cmd_gen(args: argparse.Namespace) -> int:
    out = Path(args.out)
    payload: dict = {"command": "gen", "kind": args.kind}
    lines: list[str] = []
    if args.kind == KIND_RANDOM:
        if args.verify:
            raise InputError("--verify audits only the extremal kinds, not random graphs")
        _require(args, ["n", "p"])
        g = random_graph(args.n, parse_probability(args.p), args.seed)
        out.write_text(format_edge_list(g))
        payload.update({"n": g.n, "m": g.m, "written": [str(out)]})
        lines.append(f"wrote {out} ({g.n} vertices, {g.m} edges, seed {args.seed})")
        _emit(args, payload, lines)
        return 0

    _require(args, ["a", "b", "t"])
    params = FactorParams(args.a, args.b)
    g, labels = GENERATED_KINDS[args.kind](params, args.t)
    sidecar = out.with_suffix(".labels.json")
    out.write_text(format_edge_list(g))
    sidecar_doc = {"kind": args.kind, "a": params.a, "b": params.b, "t": args.t}
    sidecar_doc.update(labels.to_dict())
    sidecar.write_text(json.dumps(sidecar_doc, indent=2, sort_keys=True) + "\n")
    payload.update({"n": g.n, "m": g.m, "written": [str(out), str(sidecar)]})
    lines.append(f"wrote {out} ({g.n} vertices, {g.m} edges)")
    lines.append(f"wrote {sidecar}")
    if args.verify:
        report = verify_sharpness(args.kind, params, args.t)
        payload["verify"] = report.to_dict()
        lines.append("sharpness audit:")
        for check in report.checks:
            tag = "required" if check.required else "reported"
            status = "pass" if check.passed else "FAIL"
            lines.append(f"  [{tag}] {check.name}: {status} ({check.detail})")
    _emit(args, payload, lines)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
