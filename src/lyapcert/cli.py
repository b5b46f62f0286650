"""Command-line interface.

Subcommands:
    verify-dt  <config>                 discrete pipeline, writes a report
    verify-ct  <config> --with report   validate W against the flow
    levelset   <config> --with report   re-estimate the level set
    export     <report> --format csv    plot data for a stored report

Exit codes: 0 stability verdict, 2 partial/halted result, 1 error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import RunConfig
from .errors import ConfigError, LyapcertError
from .pipeline import (
    EXIT_ERROR,
    EXIT_PARTIAL,
    RunReport,
    export_plot_data,
    recompute_level,
    run_verify_ct,
    run_verify_dt,
)


def _add_overrides(p: argparse.ArgumentParser):
    p.add_argument("--workers", type=int, help="accepted for old scripts; has no effect")
    p.add_argument("--delta-min", type=float, dest="delta_min")
    p.add_argument("--M", type=int, dest="M", help="starting decrease horizon")
    p.add_argument(
        "--bound-method", choices=["split", "combined", "best"], dest="bound_method"
    )


def _load_config(path, args) -> RunConfig:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        run = doc.setdefault("run", {})
        if getattr(args, "workers", None) is not None:
            run["workers"] = args.workers
        if getattr(args, "bound_method", None) is not None:
            run["bound_method"] = args.bound_method
        if getattr(args, "delta_min", None) is not None:
            doc.setdefault("search", {})["delta_min"] = args.delta_min
        if getattr(args, "M", None) is not None:
            cand = doc.setdefault("candidate", {})
            cand["M"] = args.M
            cand["M_max"] = max(args.M, int(cand.get("M_max", args.M)))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    return RunConfig.from_dict(doc)


def _print_summary(report):
    counts = report.counts
    print(
        f"verdict: {report.verdict}   M={report.M_final}   "
        f"explored={counts['explored']} good={counts['good']} wrong={counts['wrong']}"
    )
    if report.level is not None:
        lv = report.level
        print(f"level: Lbar1={lv.Lbar1:.6g} Lbar2={lv.Lbar2:.6g} Lbar={lv.Lbar:.6g}")
    if report.local is not None:
        print(f"local: level_L={report.local.level_L:.6g} verified={report.local.verified}")
    for note in report.notes:
        print(f"note: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lyapcert",
        description="Sampling-based Lyapunov certification and DOA estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dt = sub.add_parser("verify-dt", help="run the discrete-time pipeline")
    p_dt.add_argument("config")
    p_dt.add_argument("--out", default="report.json")
    _add_overrides(p_dt)

    p_ct = sub.add_parser("verify-ct", help="validate W for the continuous system")
    p_ct.add_argument("config")
    p_ct.add_argument("--with", dest="prior", required=True, help="prior report JSON")
    p_ct.add_argument("--out", default="report_ct.json")
    _add_overrides(p_ct)

    p_lv = sub.add_parser("levelset", help="re-estimate the level set of a report")
    p_lv.add_argument("config")
    p_lv.add_argument("--with", dest="prior", required=True)
    p_lv.add_argument("--spacing", type=float)

    p_ex = sub.add_parser("export", help="export plot data from a report")
    p_ex.add_argument("report")
    p_ex.add_argument("--format", choices=["csv", "json"], default="csv")
    p_ex.add_argument("--out", default="export")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify-dt":
            cfg = _load_config(args.config, args)
            report = run_verify_dt(cfg)
            report.save(args.out)
            _print_summary(report)
            print(f"report written to {args.out}")
            return report.exit_code
        if args.command == "verify-ct":
            cfg = _load_config(args.config, args)
            prior = RunReport.load_dict(args.prior)
            report = run_verify_ct(cfg, prior)
            report.save(args.out)
            _print_summary(report)
            print(f"report written to {args.out}")
            return report.exit_code
        if args.command == "levelset":
            cfg = _load_config(args.config, args)
            prior = RunReport.load_dict(args.prior)
            level = recompute_level(cfg, prior, args.spacing)
            print(
                f"Lbar1={level.Lbar1:.6g} Lbar2={level.Lbar2:.6g} Lbar={level.Lbar:.6g} "
                f"(obstacles={level.n_obstacle}, boundary={level.n_boundary})"
            )
            return 0 if level.usable else EXIT_PARTIAL
        if args.command == "export":
            report = RunReport.load_dict(args.report)
            paths = export_plot_data(report, args.out, args.format)
            for p in paths:
                print(p)
            return 0
    except (LyapcertError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
