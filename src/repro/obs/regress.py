"""Regression checks: the one place a measured value meets its baselines.

:class:`RegressionReport` offers two checks:

* **deterministic** — a best Eq. (2) cost is deterministic per
  configuration (same seeds, same budget), so it fails when it is
  worse than the *best* baseline by more than its tolerance (tight:
  2% by default);
* **timed** — a wall-clock value (evals/s, seconds) fails when it is
  worse than the baseline *median* by more than its tolerance (loose:
  wall-clock noise is real even on one machine).  Rates across
  machines measure the machine, not the code, so a record may carry
  the value ``normalized`` by a same-process yardstick (over the seed
  engine's rate, over the exhaustive search's time): then that must
  have regressed by more than the tolerance too — a slower machine
  slows both, a code regression only one.  Without a yardstick, only
  baselines recorded on the same platform and CPU count count.

:func:`check_regression` (``repro runs regress``: a run against the
last-N ledger records with its ``match_key``) and the ``--gate`` of
``benchmarks/bench_eval.py`` and ``bench_search.py`` (a record against
the committed ``BENCH_*.json``) each build one report from them.  No
matched baseline (a first run of a configuration, new hardware) is a
pass with a note — a gate cannot exist before history does.
"""

from __future__ import annotations

import os
import platform

from .ledger import RunLedger

__all__ = ["RegressionReport", "check_regression", "hardware"]

DEFAULT_LAST = 5
DEFAULT_COST_TOL = 0.02
DEFAULT_THROUGHPUT_TOL = 0.30


def hardware() -> dict:
    """This process's platform, Python and CPU count, as summaries
    record them for the timed check's hardware guard."""
    return {"platform": platform.platform(),
            "python_version": platform.python_version(),
            "cpu_count": os.cpu_count()}


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class RegressionReport:
    """Outcome of one candidate-vs-baselines check."""

    def __init__(self, candidate: dict):
        self.candidate = candidate
        self.baselines: list[dict] = []
        self.checks: list[dict] = []
        self.notes: list[str] = []

    @property
    def failures(self) -> list[dict]:
        return [c for c in self.checks if not c["passed"]]

    @property
    def passed(self) -> bool:
        return not self.failures

    def _check(self, name, passed, value, bound, detail) -> None:
        self.checks.append({"name": name, "passed": passed,
                            "detail": detail, "value": value,
                            "bound": round(bound, 6)})

    def deterministic(self, name: str, value: float,
                      baselines: list[float], tolerance: float,
                      label: str | None = None) -> None:
        """Fail when lower-is-better *value* exceeds the best of
        *baselines* by more than *tolerance*."""
        best = min(baselines)
        bound = best * (1.0 + tolerance)
        self._check(name, value <= bound, value, bound, (
            f"{label or name} {value:.4f} vs baseline best {best:.4f} "
            f"(allowed <= {bound:.4f}, {len(baselines)} baselines)"
        ))

    def timed(self, name: str, candidate: dict, baselines: list[dict],
              tolerance: float, higher_is_better: bool = False,
              label: str | None = None) -> None:
        """Fail when ``candidate[name]`` is worse than the median of the
        usable *baselines* by more than *tolerance* and, if the
        candidate carries it ``normalized`` by a yardstick, so is that.
        Usable are the baselines carrying a normalized value too, or
        without one those on the candidate's recorded platform and CPU
        count; none is a note, not a check."""
        label = label or name
        value, normalized = candidate[name], candidate.get("normalized")
        guarded = normalized is not None
        if guarded:
            usable = [b for b in baselines
                      if b.get(name) and b.get("normalized") is not None]
            why = "no baseline with a yardstick"
        else:  # unrecorded hardware matches nothing
            hw = (candidate.get("platform"), candidate.get("cpu_count"))
            usable = [] if None in hw else [
                b for b in baselines if b.get(name)
                and (b.get("platform"), b.get("cpu_count")) == hw]
            why = ("no baseline on matching hardware — platform/CPU-count "
                   "guard")
        if not usable:
            self.notes.append(f"{label} check skipped ({why})")
            return
        factor = 1.0 - tolerance if higher_is_better else 1.0 + tolerance
        op = ">=" if higher_is_better else "<="

        def worse(measured: float, bound: float) -> bool:
            return measured < bound if higher_is_better else measured > bound

        base = _median([b[name] for b in usable])
        bound = base * factor
        regressed = worse(value, bound)
        detail = (f"{label} {value:.6g} vs baseline median {base:.6g} "
                  f"(allowed {op} {bound:.6g}, {len(usable)} "
                  f"{'yardstick-guarded' if guarded else 'hardware-matched'}"
                  f" baselines)")
        if guarded:
            base_norm = _median([b["normalized"] for b in usable])
            regressed = regressed and worse(normalized, base_norm * factor)
            detail += (f"; per yardstick {normalized:.4g} vs "
                       f"{base_norm:.4g} (allowed {op} "
                       f"{base_norm * factor:.4g})")
        self._check(name, not regressed, value, bound, detail)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "candidate": self.candidate.get("run_id"),
            "match_key": self.candidate.get("match_key"),
            "baselines": [b.get("run_id") for b in self.baselines],
            "checks": self.checks,
            "notes": self.notes,
        }

    def render(self) -> str:
        what = " ".join(str(part) for part in (
            self.candidate.get("command", "?"),
            self.candidate.get("workload")) if part)
        cid = self.candidate.get("run_id")
        lines = [(f"regress: run {cid[:12]} ({what})" if cid
                  else f"regress: {what}")
                 + f" vs {len(self.baselines)} matched baseline(s)"]
        lines += [f"  note: {note}" for note in self.notes]
        lines += [f"  [{'ok ' if c['passed'] else 'FAIL'}] {c['detail']}"
                  for c in self.checks]
        lines.append("PASS" if self.passed else "REGRESSION")
        return "\n".join(lines)


def check_regression(
    ledger: RunLedger,
    run: str | None = None,
    last: int = DEFAULT_LAST,
    cost_tolerance: float = DEFAULT_COST_TOL,
    throughput_tolerance: float = DEFAULT_THROUGHPUT_TOL,
) -> RegressionReport:
    """Compare *run* (default: the newest record) against the ledger's
    last-*last* records with the same match key.

    Returns a :class:`RegressionReport`; ``report.passed`` is the CI
    gate.  Raises ``KeyError`` for an unknown *run* reference and
    ``LookupError`` when the ledger is empty.
    """
    entries = ledger.entries()
    if not entries:
        raise LookupError("ledger is empty — nothing to check")
    candidate = ledger.resolve(run) if run is not None else entries[-1]
    report = RegressionReport(candidate)

    # the candidate compares against matched entries recorded before it
    key = candidate.get("match_key")
    position = next(
        (i for i, entry in enumerate(entries)
         if entry.get("run_id") == candidate.get("run_id")),
        len(entries),
    )
    history = [
        entry for i, entry in enumerate(entries)
        if i < position
        and entry.get("match_key") == key
        and entry.get("run_id") != candidate.get("run_id")
    ]
    baselines = history[-last:]
    report.baselines = baselines
    if not baselines:
        report.notes.append(
            "no matched baseline in ledger (first run of this "
            "configuration) — trend check skipped"
        )
        return report

    cost = candidate.get("best_cost")
    base_costs = [
        b["best_cost"] for b in baselines
        if b.get("best_cost") is not None
    ]
    if cost is not None and base_costs:
        report.deterministic("best_cost", cost, base_costs,
                             cost_tolerance, label="best cost")
    else:
        report.notes.append("cost check skipped (no cost recorded)")
    if candidate.get("evals_per_s") is None:
        report.notes.append("throughput check skipped (no rate recorded)")
    else:
        report.timed("evals_per_s", candidate, baselines,
                     throughput_tolerance, higher_is_better=True,
                     label="throughput")
    return report
