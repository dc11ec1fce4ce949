"""Command-line interface: ``python -m repro <command>``.

Commands mirror the analyses a policy analyst would actually run:

* ``review``      — the annual review for a date (premises, bounds,
  recommendation);
* ``headline``    — the paper-vs-reproduction headline table;
* ``rate``        — CTP of a hardware configuration given from flags;
* ``machine``     — catalog lookup plus controllability assessment;
* ``license``     — a license decision for a machine/destination pair;
* ``policy``      — Chapter-5 credibility/burden scorecards over a whole
  threshold x year grid in one vectorized pass;
* ``scenarios``   — the same scorecards across counterfactual policy
  worlds (alternate decontrol timelines, frontier shocks, drift regimes)
  as one (scenario x threshold x year) tensor;
* ``sensitivity`` — robustness of the lower bound and the Table 4
  verdicts to the factor weights;
* ``simulate``    — run a suite workload across the architecture spectrum;
* ``sweep``       — evaluate the whole machine x workload x node-count
  design space in one vectorized pass;
* ``acquire``     — covert-acquisition premium for a capability level;
* ``report``      — the full markdown review document for a date;
* ``bench``       — time the batch hot paths against scalar references;
* ``serve``       — run the micro-batching HTTP serving front end
  (``--workers N`` pre-forks a sharded fleet over one port);
* ``catalog``     — apply event-sourced catalog mutations (appends and
  amendments) in process or against a running fleet.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.core.framework import headline_summary
from repro.diffusion.acquisition import acquisition_premium, simulate_acquisitions
from repro.core.review import run_annual_review
from repro.core.sensitivity import bound_sensitivity, classification_stability
from repro.core.threshold import ThresholdPolicy, select_threshold
from repro.ctp import ComputingElement, Coupling, ctp_homogeneous
from repro.controllability.index import assess
from repro.diffusion.policy import ExportControlPolicy, threshold_at
from repro.machines import catalog as _machine_catalog
from repro.machines.catalog import find_machine
from repro.obs.errors import ReproError, ValidationError
from repro.obs.trace import profile
from repro.reporting.tables import render_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and shell completion)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPC export-control policy analysis "
                    "(Goodman/Wolcott/Burkhart 1995, reproduced)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_review = sub.add_parser("review", help="run the annual review")
    p_review.add_argument("--year", type=float, default=1995.5)
    p_review.add_argument(
        "--policy", choices=[p.name.lower() for p in ThresholdPolicy],
        default="control_what_can_be_controlled",
    )
    p_review.add_argument("--profile", action="store_true",
                          help="print a span/counter profile after the output")

    sub.add_parser("headline", help="paper-vs-reproduction headline table")

    p_rate = sub.add_parser("rate", help="rate a configuration in Mtops")
    p_rate.add_argument("--clock-mhz", type=float, required=True)
    p_rate.add_argument("--word-bits", type=float, default=64.0)
    p_rate.add_argument("--fp-per-cycle", type=float, default=1.0)
    p_rate.add_argument("--int-per-cycle", type=float, default=1.0)
    p_rate.add_argument("--concurrent", action="store_true",
                        help="fixed and floating units issue concurrently")
    p_rate.add_argument("--processors", type=int, default=1)
    p_rate.add_argument(
        "--coupling", choices=[c.name.lower() for c in Coupling],
        default="shared",
    )
    p_rate.add_argument("--year", type=float, default=1995.5,
                        help="compare against the threshold in force")

    p_machine = sub.add_parser("machine", help="catalog lookup + assessment")
    p_machine.add_argument("key", nargs="?", default=None,
                           help='"Vendor Model"; omit to list the catalog')
    p_machine.add_argument("--worksheet", action="store_true",
                           help="show the CTP derivation step by step")

    p_license = sub.add_parser("license", help="one license decision")
    p_license.add_argument("key", help='machine, e.g. "Cray C916"')
    p_license.add_argument("destination", help="e.g. India")
    p_license.add_argument("--threshold", type=float, default=None,
                           help="Mtops (default: in force at --year)")
    p_license.add_argument("--year", type=float, default=1995.5)

    p_policy = sub.add_parser(
        "policy", help="credibility/burden scorecards over a threshold "
                       "x year grid"
    )
    p_policy.add_argument("--thresholds", type=str,
                          default="100,160,195,1500,2000,7000",
                          metavar="SPEC",
                          help='candidate thresholds in Mtops: comma list '
                               'and/or inclusive ranges "lo:hi[:step]" '
                               '(default: the four historical eras plus '
                               '2,000 and 7,000)')
    p_policy.add_argument("--years", type=str, default="1988:1998:2",
                          metavar="SPEC",
                          help='review dates: comma list and/or inclusive '
                               'ranges "lo:hi[:step]" (default '
                               '"1988:1998:2")')
    p_policy.add_argument("--point", action="append", default=None,
                          metavar="T,Y",
                          help="answer single (threshold Mtops, year) "
                               "scorecards from grids over just the "
                               "given points; repeatable, overrides "
                               "--thresholds/--years")
    p_policy.add_argument("--profile", action="store_true",
                          help="print a span/counter profile after the "
                               "output")

    p_scenarios = sub.add_parser(
        "scenarios", help="credibility/burden scorecards across "
                          "counterfactual policy worlds"
    )
    p_scenarios.add_argument(
        "--worlds", type=str,
        default="historical,flop_cap,accelerated_foreign",
        metavar="NAMES",
        help="comma list of preset worlds (default "
             '"historical,flop_cap,accelerated_foreign"; the historical '
             "baseline is always included)")
    p_scenarios.add_argument(
        "--worlds-json", type=str, default=None, metavar="FILE",
        help="JSON file with extra scenario objects in the wire form "
             "(one object or a list; '-' reads stdin)")
    p_scenarios.add_argument("--thresholds", type=str,
                             default="195,1500,7000", metavar="SPEC",
                             help='candidate thresholds in Mtops: comma '
                                  'list and/or inclusive ranges '
                                  '"lo:hi[:step]" (default "195,1500,7000")')
    p_scenarios.add_argument("--years", type=str, default="1988:1998:2",
                             metavar="SPEC",
                             help='review dates: comma list and/or '
                                  'inclusive ranges "lo:hi[:step]" '
                                  '(default "1988:1998:2")')
    p_scenarios.add_argument("--profile", action="store_true",
                             help="print a span/counter profile after the "
                                  "output")

    p_sens = sub.add_parser("sensitivity", help="robustness of the findings")
    p_sens.add_argument("--year", type=float, default=1995.5)
    p_sens.add_argument("--samples", type=int, default=200)
    p_sens.add_argument("--seed", type=int, default=0)
    p_sens.add_argument("--profile", action="store_true",
                        help="print a span/counter profile after the output")

    p_sim = sub.add_parser(
        "simulate", help="run a workload across the architecture spectrum"
    )
    p_sim.add_argument("workload", nargs="?", default=None,
                       help="suite workload name; omit to list")
    p_sim.add_argument("--nodes", type=int, default=16)

    p_sweep = sub.add_parser(
        "sweep", help="vectorized design-space sweep over the machine "
                      "catalog"
    )
    p_sweep.add_argument("workload", nargs="?", default=None,
                         help="suite workload name; omit to sweep the "
                              "whole suite")
    p_sweep.add_argument("--nodes", type=str, default="1:256",
                         metavar="SPEC",
                         help='node counts: comma list ("1,2,4,8") and/or '
                              'inclusive ranges "lo:hi[:step]" '
                              '(default "1:256")')
    p_sweep.add_argument("--profile", action="store_true",
                         help="print a span/counter profile after the "
                              "output")

    p_acq = sub.add_parser(
        "acquire", help="covert-acquisition premium for a capability level"
    )
    p_acq.add_argument("target_mtops", type=float)
    p_acq.add_argument("--year", type=float, default=1995.5)
    p_acq.add_argument("--attempts", type=int, default=1_000)

    p_report = sub.add_parser(
        "report", help="generate the full markdown review document"
    )
    p_report.add_argument("--year", type=float, default=1995.5)
    p_report.add_argument("--output", type=str, default=None,
                          help="write to a file instead of stdout")

    p_bench = sub.add_parser(
        "bench", help="time the batch hot paths against scalar references"
    )
    p_bench.add_argument("--quick", action="store_true",
                         help="smaller inputs and fewer repeats (CI smoke)")
    p_bench.add_argument("--output", "--json-out", dest="output", type=str,
                         default="BENCH_perf.json", metavar="PATH",
                         help='JSON output path ("-" to skip writing); '
                              "--json-out is an alias so CI jobs can keep "
                              "the working tree clean")
    p_bench.add_argument("--profile", action="store_true",
                         help="print a span/counter profile after the output")

    p_serve = sub.add_parser(
        "serve", help="run the micro-batching HTTP serving front end"
    )
    p_serve.add_argument("--host", type=str, default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8040)
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="largest coalesced dispatch (default 64)")
    p_serve.add_argument("--max-wait-ms", type=float, default=0.0,
                         help="linger bound for a fuller batch "
                              "(default 0: dispatch greedily)")
    p_serve.add_argument("--queue-limit", type=int, default=1024,
                         help="bounded queue depth; beyond it requests "
                              "get 429 + Retry-After")
    p_serve.add_argument("--cache-size", type=int, default=1024,
                         help="LRU response-cache entries (0 disables)")
    p_serve.add_argument("--deadline-ms", type=float, default=5000.0,
                         help="per-request deadline; missed -> 504")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="pre-forked worker processes sharing the "
                              "port (default 1: single process, no fork)")
    p_serve.add_argument("--drain-timeout", type=float, default=5.0,
                         metavar="SECONDS",
                         help="on SIGTERM/SIGINT, bound for draining "
                              "in-flight batches before workers are "
                              "killed (default 5)")

    p_mcp = sub.add_parser(
        "mcp", help="serve line-delimited JSON-RPC over stdin/stdout "
                    "(the MCP-style agentic bridge)"
    )
    p_mcp.add_argument("--cache-size", type=int, default=1024,
                       help="LRU response-cache entries (0 disables)")
    p_mcp.add_argument("--deadline-ms", type=float, default=5000.0,
                       help="per-request deadline; missed -> JSON-RPC "
                            "error -32002")

    p_catalog = sub.add_parser(
        "catalog", help="apply event-sourced catalog mutations"
    )
    cat_sub = p_catalog.add_subparsers(dest="catalog_command",
                                       required=True)
    p_apply = cat_sub.add_parser(
        "apply", help="apply catalog events from a JSON file "
                      "(in process, or remotely via --port)"
    )
    p_apply.add_argument("events", type=str, metavar="FILE",
                         help="JSON file holding one event object or a "
                              "list of them ('-' reads stdin)")
    p_apply.add_argument("--port", type=int, default=None,
                         help="POST each event to a running server's "
                              "/catalog/append instead of applying in "
                              "process")
    p_apply.add_argument("--host", type=str, default="127.0.0.1")
    p_apply.add_argument("--fleet-size", type=int, default=1,
                         metavar="N",
                         help="with --port, distinct worker processes "
                              "that must acknowledge each event (a "
                              "pre-forked fleet balances fresh "
                              "connections across workers; replays are "
                              "no-ops, so repeated POSTs converge the "
                              "whole fleet)")
    p_apply.add_argument("--attempts", type=int, default=64,
                         help="with --port, cap on fresh-connection "
                              "POSTs while converging the fleet "
                              "(default 64)")
    p_apply.add_argument("--profile", action="store_true",
                         help="print a span/counter profile after the "
                              "output")

    return parser


def _cmd_review(args: argparse.Namespace) -> str:
    review = run_annual_review(args.year,
                               ThresholdPolicy[args.policy.upper()])
    bounds = review.bounds
    lines = [f"Annual review, {args.year}"]
    for report in (review.premises.premise1, review.premises.premise2,
                   review.premises.premise3):
        verdict = "HOLDS" if report.holds else "FAILS"
        lines.append(f"  premise {report.number}: {verdict}")
    lines.append(render_table(
        ["quantity", "Mtops"],
        [
            ["lower bound (uncontrollable)", bounds.uncontrollable_mtops],
            ["lower bound (foreign)", bounds.foreign_mtops],
            ["upper bound (application)", bounds.upper_application_mtops
             or float("nan")],
            ["upper bound (max available)", bounds.upper_theoretical_mtops],
            ["threshold in force", review.threshold_in_force],
            ["recommended threshold", review.recommendation.threshold_mtops],
        ],
    ))
    lines.append(f"threshold in force is "
                 f"{'STALE' if review.threshold_is_stale else 'current'}")
    return "\n".join(lines)


def _cmd_headline(_args: argparse.Namespace) -> str:
    hs = headline_summary()
    return render_table(
        ["quantity", "paper", "reproduced"],
        [
            ["lower bound mid-1995", "4,000-5,000",
             round(hs.lower_bound_mid_1995)],
            ["lower bound late 96/97", "~7,500",
             round(hs.lower_bound_late_1996_97)],
            ["lower bound end of decade", ">16,000",
             round(hs.lower_bound_end_of_decade)],
            ["RDT&E cluster", "~7,000", round(hs.rdte_cluster_start or 0)],
            ["military-ops cluster", "~10,000",
             round(hs.milops_cluster_start or 0)],
            ["apps below bound (1995)", "majority",
             f"{hs.fraction_apps_below_lower_1995:.0%}"],
        ],
        title="Headline findings",
    )


def _validate_rate_args(args: argparse.Namespace) -> None:
    """Reject bad ``rate`` flags up front, naming the flag the user typed
    rather than the internal field the value would have landed in."""
    if not args.clock_mhz > 0:
        raise ValidationError(
            f"--clock-mhz must be positive (got {args.clock_mhz:g})",
            context={"flag": "--clock-mhz", "got": args.clock_mhz,
                     "valid": "> 0"},
        )
    if not args.word_bits > 0:
        raise ValidationError(
            f"--word-bits must be positive (got {args.word_bits:g})",
            context={"flag": "--word-bits", "got": args.word_bits,
                     "valid": "> 0"},
        )
    if args.processors < 1:
        raise ValidationError(
            f"--processors must be at least 1 (got {args.processors})",
            context={"flag": "--processors", "got": args.processors,
                     "valid": ">= 1"},
        )
    for flag, value in (("--fp-per-cycle", args.fp_per_cycle),
                        ("--int-per-cycle", args.int_per_cycle)):
        if value < 0:
            raise ValidationError(
                f"{flag} must be non-negative (got {value:g})",
                context={"flag": flag, "got": value, "valid": ">= 0"},
            )


def _cmd_rate(args: argparse.Namespace) -> str:
    _validate_rate_args(args)
    element = ComputingElement(
        name="cli", clock_mhz=args.clock_mhz, word_bits=args.word_bits,
        fp_ops_per_cycle=args.fp_per_cycle,
        int_ops_per_cycle=args.int_per_cycle,
        concurrent_int_fp=args.concurrent,
    )
    rating = ctp_homogeneous(element, args.processors,
                             Coupling[args.coupling.upper()])
    threshold = threshold_at(args.year)
    verdict = "supercomputer" if rating >= threshold else "below definition"
    return (f"CTP = {rating:,.1f} Mtops "
            f"({args.processors} x {args.clock_mhz:g} MHz, "
            f"{args.coupling})\n"
            f"vs {threshold:,.0f}-Mtops definition in force "
            f"{args.year}: {verdict}")


def _cmd_machine(args: argparse.Namespace) -> str:
    if args.key is None:
        rows = [[m.key, f"{m.year:.1f}", round(m.ctp_mtops, 1)]
                for m in sorted(_machine_catalog.COMMERCIAL_SYSTEMS,
                                key=lambda m: (m.year, m.key))]
        return render_table(["machine", "introduced", "CTP (Mtops)"], rows,
                            title="Commercial catalog")
    machine = find_machine(args.key)
    if args.worksheet:
        from repro.ctp.worksheet import machine_worksheet

        return machine_worksheet(args.key)
    a = assess(machine)
    rows = [
        ["introduced", f"{machine.year:.1f}"],
        ["architecture", machine.architecture.value],
        ["processors", machine.n_processors],
        ["CTP (Mtops)", round(machine.ctp_mtops, 1)],
        ["max-config CTP", round(machine.max_configuration().ctp_mtops, 1)],
        ["controllability index", round(a.index, 3)],
        ["classification", a.classification.value],
    ]
    return render_table(["field", "value"], rows, title=machine.key)


def _cmd_license(args: argparse.Namespace) -> str:
    threshold = args.threshold or threshold_at(args.year)
    policy = ExportControlPolicy(threshold)
    d = policy.license_decision(find_machine(args.key), args.destination)
    return render_table(
        ["field", "value"],
        [
            ["rated Mtops", round(d.rating_mtops, 1)],
            ["threshold", round(threshold, 1)],
            ["tier", d.tier.value],
            ["license required", "yes" if d.requires_license else "no"],
            ["safeguards", "yes" if d.safeguards_required else "no"],
            ["outcome", "approved" if d.approved else "DENIED"],
        ],
        title=f"{args.key} -> {args.destination}",
    )


def _parse_float_spec(spec: str, flag: str) -> list[float]:
    """Parse a float axis spec: comma-separated values and/or inclusive
    ``lo:hi[:step]`` ranges (step defaults to 1).  Duplicates collapse;
    the result comes back ascending."""
    values: list[float] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        try:
            if len(parts) == 1:
                values.append(float(parts[0]))
                continue
            if len(parts) > 3:
                raise ValueError(token)
            lo, hi = float(parts[0]), float(parts[1])
            step = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ValidationError(
                f'{flag}: cannot parse "{token}" '
                f'(want a number or "lo:hi[:step]")',
                context={"flag": flag, "got": token,
                         "valid": 'number or "lo:hi[:step]"'},
            ) from None
        if not step > 0:
            raise ValidationError(
                f'{flag}: step must be positive in "{token}"',
                context={"flag": flag, "got": step, "valid": "> 0"},
            )
        # lo + k*step keeps the points exact for representable steps,
        # where accumulating "x += step" would drift.
        n_steps = int((hi - lo) / step + 1e-9)
        values.extend(lo + k * step for k in range(n_steps + 1))
    return sorted(set(values))


def _parse_policy_points(specs: list[str]) -> list[tuple[float, float]]:
    """Parse repeatable ``--point T,Y`` flags into (threshold, year)."""
    points = []
    for spec in specs:
        parts = spec.split(",")
        if len(parts) != 2:
            raise ValidationError(
                f'--point expects "THRESHOLD,YEAR" (got {spec!r})',
                context={"flag": "--point", "got": spec,
                         "valid": 'e.g. "2000,1995.5"'},
            )
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValidationError(
                f"--point values must be numbers (got {spec!r})",
                context={"flag": "--point", "got": spec,
                         "valid": 'e.g. "2000,1995.5"'},
            ) from None
    return points


def _cmd_policy_points(args: argparse.Namespace) -> str:
    """Point-query path: grids over the points' own coordinates."""
    from repro.tiles import policy_cells

    points = _parse_policy_points(args.point)
    cells = policy_cells(points)
    rows = []
    for cell in cells:
        rows.append([
            f"{cell.threshold_mtops:,.0f}",
            f"{cell.year:g}",
            f"{cell.frontier_mtops:,.0f}",
            len(cell.protected_applications),
            len(cell.illusory_applications),
            f"{cell.burden_units:,.0f}",
            len(cell.uncontrollable_covered_systems),
            "yes" if cell.credible else "NO",
        ])
    return render_table(
        ["threshold", "year", "frontier", "protected", "illusory",
         "burden", "uncontrollable", "credible"],
        rows, title="Policy scorecards (Mtops)",
    )


def _cmd_policy(args: argparse.Namespace) -> str:
    from repro.diffusion.policy_grid import evaluate_policy_grid

    if args.point:
        return _cmd_policy_points(args)
    thresholds = _parse_float_spec(args.thresholds, "--thresholds")
    years = _parse_float_spec(args.years, "--years")
    grid = evaluate_policy_grid(thresholds, years)
    rows = []
    for i, threshold in enumerate(grid.thresholds):
        for j, year in enumerate(grid.years):
            rows.append([
                f"{threshold:,.0f}",
                f"{year:g}",
                f"{grid.frontier_mtops[j]:,.0f}",
                int(grid.protected_counts[i, j]),
                int(grid.illusory_counts[i, j]),
                f"{grid.burden_units[i, j]:,.0f}",
                int(grid.uncontrollable_counts[i, j]),
                "yes" if grid.credible[i, j] else "NO",
            ])
    table = render_table(
        ["threshold", "year", "frontier", "protected", "illusory",
         "burden", "uncontrollable", "credible"],
        rows, title="Policy scorecards (Mtops)",
    )
    n_credible = int(grid.credible.sum())
    footer = (f"{grid.credible.size:,} grid points "
              f"({len(grid.thresholds)} thresholds x "
              f"{len(grid.years)} years), {n_credible:,} credible")
    return table + "\n" + footer


def _scenario_worlds(args: argparse.Namespace) -> list:
    """Resolve ``--worlds`` presets plus ``--worlds-json`` objects; the
    historical baseline is always world 0 (the comparison anchor)."""
    from repro.scenarios import HISTORICAL, preset_scenario, \
        scenario_from_payload

    worlds = [HISTORICAL]
    for token in args.worlds.split(","):
        token = token.strip()
        if not token:
            continue
        scenario = preset_scenario(token)
        if scenario not in worlds:
            worlds.append(scenario)
    if args.worlds_json is not None:
        import json
        import sys

        try:
            if args.worlds_json == "-":
                text = sys.stdin.read()
            else:
                with open(args.worlds_json, encoding="utf-8") as handle:
                    text = handle.read()
        except OSError as exc:
            raise ValidationError(
                f"cannot read worlds from {args.worlds_json}: {exc}",
                context={"flag": "--worlds-json", "got": args.worlds_json,
                         "valid": "a readable JSON file or '-'"},
            ) from None
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ValidationError(
                f"worlds file is not valid JSON: {exc}",
                context={"flag": "--worlds-json", "got": args.worlds_json},
            ) from None
        entries = payload if isinstance(payload, list) else [payload]
        for entry in entries:
            scenario = scenario_from_payload(entry)
            if scenario not in worlds:
                worlds.append(scenario)
    return worlds


def _cmd_scenarios(args: argparse.Namespace) -> str:
    from repro.scenarios import evaluate_scenario_grid

    worlds = _scenario_worlds(args)
    thresholds = _parse_float_spec(args.thresholds, "--thresholds")
    years = _parse_float_spec(args.years, "--years")
    grid = evaluate_scenario_grid(worlds, thresholds, years)

    def _year(value: float | None) -> str:
        return "-" if value is None else f"{value:g}"

    summary_rows = []
    for w, scenario in enumerate(grid.scenarios):
        summary_rows.append([
            scenario.name,
            _year(grid.divergence_year(w)) if w else "-",
            _year(grid.credibility_loss_year(w)),
            f"{grid.burden_delta(w):+,.0f}" if w else "baseline",
        ])
    summary = render_table(
        ["world", "diverges", "credibility lost", "burden vs historical"],
        summary_rows, title="World comparison",
    )

    rows = []
    for i, threshold in enumerate(grid.thresholds):
        for j, year in enumerate(grid.years):
            cells = [f"{threshold:,.0f}", f"{year:g}"]
            for w in range(len(grid.scenarios)):
                flag = "yes" if grid.credible[w, i, j] else "NO"
                cells.append(
                    f"{flag}/{grid.burden_units[w, i, j]:,.0f}")
            rows.append(cells)
    detail = render_table(
        ["threshold", "year"] + [s.name for s in grid.scenarios],
        rows, title="Credible?/burden per world (Mtops)",
    )
    n_w, n_t, n_y = grid.shape
    footer = (f"{n_w * n_t * n_y:,} tensor cells ({n_w} worlds x "
              f"{n_t} thresholds x {n_y} years), epoch {grid.epoch}")
    return summary + "\n\n" + detail + "\n" + footer


def _cmd_sensitivity(args: argparse.Namespace) -> str:
    bs = bound_sensitivity(args.year, args.samples, args.seed)
    stability = classification_stability(args.samples, args.seed)
    lines = [
        f"Lower bound at {args.year} over {args.samples} weightings:",
        f"  median {bs.median:,.0f} Mtops; "
        f"90% interval [{bs.quantile(0.05):,.0f}, {bs.quantile(0.95):,.0f}]",
        f"  fraction in the paper's 4,000-5,000 band: "
        f"{bs.fraction_in_band(4000, 5000):.0%}",
        "",
        render_table(
            ["machine", "default verdict", "agreement"],
            [[r.machine_key, r.default_classification.value,
              f"{r.agreement:.0%}" + (" (borderline)" if r.is_borderline
                                      else "")]
             for r in stability],
            title="Table 4 verdict stability",
        ),
    ]
    return "\n".join(lines)


def _cmd_simulate(args: argparse.Namespace) -> str:
    from repro.simulate.cluster_study import compare_architectures
    from repro.simulate.workloads import WORKLOAD_SUITE

    if args.workload is None:
        return render_table(
            ["workload", "pattern", "steps", "Mops/step"],
            [[w.name, w.pattern.value, w.steps,
              round(w.granularity_mops_per_step, 1)]
             for w in WORKLOAD_SUITE],
            title="Workload suite",
        )
    comp = compare_architectures(args.workload, args.nodes)
    rows = []
    for r in comp.ranked():
        rows.append([
            r.machine.name,
            "-" if not r.feasible else round(r.time_s, 1),
            f"{r.efficiency:.0%}",
            r.infeasible_reason or "",
        ])
    table = render_table(
        ["machine", "time (s)", "efficiency", "note"], rows,
        title=f"{args.workload} on {args.nodes}-element machines",
    )
    penalty = comp.cluster_penalty()
    footer = ("no ad hoc cluster can run this workload"
              if penalty == float("inf")
              else f"SMP / ad-hoc-cluster efficiency ratio: {penalty:.1f}x")
    return table + "\n" + footer


def _parse_nodes_spec(spec: str) -> list[int]:
    """Parse a ``--nodes`` spec: comma-separated integers and/or
    inclusive ``lo:hi[:step]`` ranges, e.g. ``"1,2,4:16:4,32"``.
    Duplicates collapse; the result comes back ascending."""
    counts: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        try:
            if len(parts) == 1:
                counts.append(int(parts[0]))
                continue
            if len(parts) > 3:
                raise ValueError(token)
            lo, hi = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise ValidationError(
                f'--nodes: cannot parse "{token}" '
                f'(want an integer or "lo:hi[:step]")',
                context={"flag": "--nodes", "got": token,
                         "valid": 'int or "lo:hi[:step]"'},
            ) from None
        if step < 1:
            raise ValidationError(
                f'--nodes: step must be positive in "{token}"',
                context={"flag": "--nodes", "got": step, "valid": ">= 1"},
            )
        counts.extend(range(lo, hi + 1, step))
    return sorted(set(counts))


def _cmd_sweep(args: argparse.Namespace) -> str:
    from repro.simulate.sweep import default_machine_catalog, sweep
    from repro.simulate.workloads import WORKLOAD_SUITE, find_workload

    counts = _parse_nodes_spec(args.nodes)
    machines = default_machine_catalog()
    workloads = ([find_workload(args.workload)] if args.workload
                 else list(WORKLOAD_SUITE))
    grid = sweep(machines, workloads, counts)
    import numpy as np

    if args.workload:
        # One workload: the best node count per catalog machine.
        rows = []
        for i, machine in enumerate(machines):
            times = np.where(grid.feasible[i, 0, :],
                             grid.times_s[i, 0, :], np.inf)
            if not np.isfinite(times).any():
                rows.append([machine.name, "-", "-", "-", "-",
                             grid.reason_text(i, 0, len(counts) - 1)])
                continue
            k = int(np.argmin(times))
            rows.append([
                machine.name, int(grid.node_counts[k]),
                round(float(times[k]), 1),
                f"{grid.speedups[i, 0, k]:.1f}x",
                f"{grid.efficiencies[i, 0, k]:.0%}",
                "",
            ])
        table = render_table(
            ["machine", "best nodes", "time (s)", "speedup", "efficiency",
             "note"],
            rows, title=f"{args.workload}: best configuration per machine",
        )
    else:
        # Whole suite: the single best feasible configuration per workload.
        rows = []
        for j, workload in enumerate(workloads):
            times = np.where(grid.feasible[:, j, :],
                             grid.times_s[:, j, :], np.inf)
            if not np.isfinite(times).any():
                rows.append([workload.name, "-", "-", "-", "-"])
                continue
            i, k = np.unravel_index(int(np.argmin(times)), times.shape)
            rows.append([
                workload.name, machines[i].name,
                int(grid.node_counts[k]),
                round(float(times[i, k]), 1),
                f"{grid.efficiencies[i, j, k]:.0%}",
            ])
        table = render_table(
            ["workload", "best machine", "nodes", "time (s)",
             "efficiency"],
            rows, title="Design-space sweep: best feasible configuration",
        )
    footer = (f"{grid.feasible.size:,} grid points "
              f"({len(machines)} machines x {len(workloads)} workloads x "
              f"{len(counts)} node counts)")
    return table + "\n" + footer


def _cmd_acquire(args: argparse.Namespace) -> str:
    premium = acquisition_premium(args.target_mtops, args.year)
    if not premium.feasible:
        return (f"no cataloged system reaches {args.target_mtops:,.0f} "
                f"Mtops at {args.year}")
    stats = simulate_acquisitions(args.target_mtops, args.year,
                                  n_attempts=args.attempts)
    return render_table(
        ["field", "value"],
        [
            ["easiest adequate system", premium.machine.key],
            ["severity", round(premium.controllability, 3)],
            ["expected delay (years)", round(premium.expected_delay_years, 2)],
            ["cost multiple", round(premium.cost_multiplier, 2)],
            ["detection probability",
             f"{premium.detection_probability:.0%}"],
            ["Monte-Carlo success rate", f"{stats.success_rate:.0%}"],
            ["Monte-Carlo mean delay (years)",
             round(stats.mean_delay_years, 2)],
        ],
        title=f"Acquiring {args.target_mtops:,.0f} Mtops at {args.year}",
    )


def _cmd_report(args: argparse.Namespace) -> str:
    from repro.reporting.report import generate_review_report

    document = generate_review_report(args.year)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(document)
        return f"wrote {args.output} ({len(document.splitlines())} lines)"
    return document


def _cmd_serve(args: argparse.Namespace) -> str:
    from repro.serve.server import ServeConfig, run_server

    if args.workers < 1:
        raise ValidationError(
            f"--workers must be at least 1 (got {args.workers})",
            context={"flag": "--workers", "got": args.workers,
                     "valid": ">= 1"},
        )
    if not args.drain_timeout >= 0:
        raise ValidationError(
            f"--drain-timeout must be non-negative "
            f"(got {args.drain_timeout:g})",
            context={"flag": "--drain-timeout", "got": args.drain_timeout,
                     "valid": ">= 0"},
        )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_limit=args.queue_limit,
        cache_size=args.cache_size,
        deadline_ms=args.deadline_ms,
        drain_timeout=args.drain_timeout,
    )
    if args.workers > 1:
        from repro.serve.prefork import run_prefork_server

        return run_prefork_server(config, n_workers=args.workers)
    return run_server(config)


def _cmd_mcp(args: argparse.Namespace) -> str:
    """Run the stdio JSON-RPC bridge until the host closes stdin.

    A thin consumer of the serving engine: every method forwards to the
    same transport-free ``ServiceEngine.handle`` the HTTP front end
    uses (``batch`` runs the multi-query planner), so an MCP host gets
    canonical validation, caching, and fusion without a socket.
    """
    from repro.serve.rpc import run_stdio_bridge
    from repro.serve.server import ServeConfig, ServiceEngine

    config = ServeConfig(cache_size=args.cache_size,
                         deadline_ms=args.deadline_ms)
    engine = ServiceEngine(config)
    try:
        served = run_stdio_bridge(engine)
    finally:
        engine.close()
    # The bridge owns stdout (one JSON value per line); the summary must
    # not pollute the protocol stream, so it goes to stderr directly.
    print(f"mcp: served {served} request(s)", file=sys.stderr)
    return ""


def _read_catalog_events(source: str) -> list[dict]:
    """Event payloads from a JSON file (or stdin): one object or a list."""
    import json
    import sys

    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise ValidationError(
            f"cannot read events from {source}: {exc}",
            context={"got": source, "valid": "a readable JSON file or '-'"},
        ) from None
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValidationError(
            f"events file is not valid JSON: {exc}",
            context={"got": source},
        ) from None
    events = payload if isinstance(payload, list) else [payload]
    if not events or not all(isinstance(e, dict) for e in events):
        raise ValidationError(
            "events must be a JSON object or a non-empty list of objects",
            context={"got": type(payload).__name__,
                     "valid": "object | [object, ...]"},
        )
    return events


def _cmd_catalog(args: argparse.Namespace) -> str:
    events = _read_catalog_events(args.events)
    if args.port is None:
        return _apply_events_local(events)
    return _apply_events_remote(events, args)


def _apply_events_local(events: list[dict]) -> str:
    from repro.catalog import events as catalog_events

    lines = []
    for payload in events:
        event = catalog_events.parse_event(payload)
        outcome = catalog_events.apply_event(event)
        verb = "applied" if outcome.applied else "no-op (already applied)"
        lines.append(f"{outcome.kind} {outcome.key}: {verb}, "
                     f"epoch {outcome.epoch}")
    lines.append(f"catalog epoch is now {_current_catalog_epoch()}")
    return "\n".join(lines)


def _current_catalog_epoch() -> int:
    from repro.catalog.registry import current_epoch

    return current_epoch()


def _apply_events_remote(events: list[dict],
                         args: argparse.Namespace) -> str:
    """Converge a (possibly pre-forked) fleet on every event.

    Each POST rides a *fresh* connection, which a SO_REUSEPORT fleet
    load-balances across workers; because replaying an applied event is
    an explicit no-op, repeatedly POSTing until ``--fleet-size`` distinct
    pids have answered converges every worker process.
    """
    from repro.serve.client import ServeClient

    if args.fleet_size < 1:
        raise ValidationError(
            f"--fleet-size must be at least 1 (got {args.fleet_size})",
            context={"flag": "--fleet-size", "got": args.fleet_size,
                     "valid": ">= 1"},
        )
    if args.attempts < args.fleet_size:
        raise ValidationError(
            "--attempts must be at least --fleet-size",
            context={"flag": "--attempts", "got": args.attempts,
                     "valid": f">= {args.fleet_size}"},
        )
    lines = []
    for payload in events:
        acknowledged: set[int] = set()
        epoch = None
        kind = key = None
        for _ in range(args.attempts):
            client = ServeClient(args.host, args.port)
            try:
                body = client.catalog_append(payload).require_ok()
            finally:
                client.close()
            acknowledged.add(int(body["pid"]))
            epoch, kind, key = body["epoch"], body["kind"], body["key"]
            if len(acknowledged) >= args.fleet_size:
                break
        if len(acknowledged) < args.fleet_size:
            raise ValidationError(
                f"only {len(acknowledged)} of {args.fleet_size} workers "
                f"acknowledged {payload.get('event')} after "
                f"{args.attempts} attempts",
                context={"got": sorted(acknowledged),
                         "valid": f"{args.fleet_size} distinct pids",
                         "flag": "--attempts"},
            )
        lines.append(f"{kind} {key}: epoch {epoch}, "
                     f"{len(acknowledged)} worker(s) converged "
                     f"(pids {sorted(acknowledged)})")
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> str:
    from repro.perf.workloads import run_benchmarks

    output = None if args.output == "-" else args.output
    payload = run_benchmarks(quick=args.quick, output=output)
    rows = [
        [w["name"],
         f"{w['scalar']['best_seconds'] * 1e3:,.2f}",
         f"{w['batch']['best_seconds'] * 1e3:,.2f}",
         "n/a" if w["speedup"] is None else f"{w['speedup']:,.1f}x",
         f"{w['max_rel_err']:.1e}"]
        for w in payload["workloads"]
    ]
    table = render_table(
        ["workload", "scalar (ms)", "batch (ms)", "speedup", "max rel err"],
        rows,
        title="Batch layer vs seed scalar"
        + (" (quick)" if args.quick else ""),
    )
    if output is not None:
        table += f"\nwrote {output}"
    return table


_COMMANDS = {
    "review": _cmd_review,
    "headline": _cmd_headline,
    "rate": _cmd_rate,
    "machine": _cmd_machine,
    "license": _cmd_license,
    "policy": _cmd_policy,
    "scenarios": _cmd_scenarios,
    "sensitivity": _cmd_sensitivity,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "acquire": _cmd_acquire,
    "report": _cmd_report,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "mcp": _cmd_mcp,
    "catalog": _cmd_catalog,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Commands that accept ``--profile`` run under
    :func:`repro.obs.profile` and append the rendered span tree and
    counter deltas after their normal output.  Any
    :class:`repro.obs.ReproError` becomes a one-line ``error:``
    diagnostic and a nonzero exit — no traceback.
    """
    args = build_parser().parse_args(argv)
    profiling = getattr(args, "profile", False)
    try:
        if profiling:
            with profile() as prof:
                output = _COMMANDS[args.command](args)
            print(output)
            print()
            print(prof.render())
        else:
            output = _COMMANDS[args.command](args)
            if output:  # "" = the command owned stdout itself (mcp)
                print(output)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0
    except ReproError as exc:
        print(f"error: {exc.diagnostic()}")
        return 1
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1
    return 0
