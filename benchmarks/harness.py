"""What the ``bench_*.py`` scripts share: their output options, the
committed-baseline preamble of ``--gate``, and the exit code.

The pass/fail rules against a baseline live in
:mod:`repro.obs.regress`; this module only knows a bench record's
envelope (``benchmark``, ``config``, ``summary`` and ``gates``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.obs import RegressionReport, RunLedger


def add_arguments(parser, name: str, gate_help: str | None = None) -> None:
    """``--out`` and ``--obs-root``, plus ``--gate`` and ``--baseline``
    for a bench with a committed-baseline gate."""
    committed = f"BENCH_{name}.json"
    parser.add_argument("--out", default=committed,
                        help=f"output JSON path (default: {committed})")
    if gate_help:
        parser.add_argument("--gate", action="store_true", help=gate_help)
        parser.add_argument(
            "--baseline", default=str(Path(__file__).parent.parent
                                      / committed),
            help="committed baseline JSON for the regression gate",
        )
    parser.add_argument(
        "--obs-root", default=None, metavar="DIR",
        help="also fold this record into the persistent run ledger "
             "at DIR ('repro runs regress' then gates on its trend)",
    )


def against_committed(record: dict, path: str | Path, keys: tuple,
                      what: str = "config"
                      ) -> tuple[RegressionReport, dict | None]:
    """An empty report for *record* and the committed baseline at
    *path* — or ``None`` and a note when the file is missing or its
    ``config`` differs from the record's in *keys* (then it would
    measure the config, not the code)."""
    report = RegressionReport(dict(record.get("summary", {}),
                                   command=f"bench:{record['benchmark']}"))
    path = Path(path)
    if not path.exists():
        report.notes.append(f"no committed baseline at {path}; "
                            f"regression check skipped")
        return report, None
    committed = json.loads(path.read_text())
    if any(committed["config"].get(key) != record["config"].get(key)
           for key in keys):
        report.notes.append(f"{what} differs from the committed baseline; "
                            f"regression check skipped (absolute gates "
                            f"still apply)")
        return report, None
    report.baselines = [committed]
    return report, committed


def failed_gates(record: dict) -> list[str]:
    """The absolute gates that failed: ``False``, where ``None`` is a
    gate its hardware guard skipped."""
    return [name for name, ok in record["gates"].items() if ok is False]


def conclude(record: dict, args, report: RegressionReport | None = None
             ) -> int:
    """Write *record* to ``args.out``, fold it into the ledger at
    ``args.obs_root``, print the gates' outcome and return the exit
    code: 1 on a failed gate or, with *report* (``--gate``), a failed
    check.  A skipped gate prints the record's ``<gate>_note``."""
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out} ({record['total_s']}s)")
    if args.obs_root:
        entry = RunLedger(args.obs_root).fold_bench(record)
        print(f"ledger: recorded {entry['run_id'][:12]} -> "
              f"{args.obs_root}")
    for name, ok in record["gates"].items():
        if ok is None:
            print(f"note: {record.get(f'{name}_note', f'{name} skipped')}")
    failures = failed_gates(record)
    if report is not None:
        print(report.render())
        failures += [check["name"] for check in report.failures]
    if failures:
        print(f"BENCH GATES FAILED: {', '.join(failures)}", file=sys.stderr)
    return 1 if failures else 0
