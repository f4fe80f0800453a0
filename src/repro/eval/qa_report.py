"""``python -m repro.eval qa`` — the mutation-campaign report.

Runs a :mod:`repro.qa.campaign` and renders the kill-rate rollup as the
text report plus a canonical JSON payload.  When any trial misses its
expectation (a curated fault survives, or a control/survivor trial trips
a detector) the full baseline/observed signature pair is written per
missed trial under the witness directory — the artifact CI uploads so a
red ``qa-smoke`` job is debuggable without rerunning the campaign.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.qa.campaign import CampaignReport, run_campaign


def render_qa_report(report: CampaignReport) -> str:
    lines = [
        f"QA mutation campaign: {report.campaign} "
        f"(seed {report.seed}, {len(report.results)} trials)",
        "",
        f"{'fault class':<22} {'trials':>6} {'killed':>6} {'rate':>6}",
        "-" * 44,
    ]
    for cls, row in report.by_class().items():
        rate = row["killed"] / row["trials"] if row["trials"] else 0.0
        lines.append(f"{cls:<22} {row['trials']:>6} {row['killed']:>6} "
                     f"{rate:>5.0%}")
    lines += [
        "-" * 44,
        f"curated kill rate: {report.kill_rate:.0%} "
        f"({report.curated_killed}/{len(report.trials_of('killed'))})",
        f"false positives:   {len(report.false_positives)}",
        f"gate:              {'OK' if report.gate_ok else 'FAILED'}",
    ]
    for result in report.missed:
        lines.append(f"  MISSED  {result.name} (expected kill, all "
                     "detectors agreed with baseline)")
    for result in report.false_positives:
        lines.append(f"  FALSE+  {result.name} (killed by "
                     f"{result.killed_by}: {result.detail})")
    killed = [r for r in report.results if r.killed and r.expect == "killed"]
    if killed:
        lines += ["", "curated kills:"]
        for result in killed:
            lines.append(f"  {result.name:<44} -> {result.killed_by}")
    return "\n".join(lines)


def write_witnesses(report: CampaignReport, directory: str) -> list[str]:
    """Dump baseline/observed signatures of every missed expectation."""
    paths = []
    bad = [r for r in report.results if not r.ok and r.witness is not None]
    if not bad:
        return paths
    os.makedirs(directory, exist_ok=True)
    for result in bad:
        safe = result.name.replace("/", "_")
        path = os.path.join(directory, f"{safe}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result.witness, fh, sort_keys=True, indent=1)
        paths.append(path)
    return paths


def generate_qa_report(campaign: str = "quick", seed: int = 2022,
                       jobs: int = 1,
                       witness_dir: str | None = None,
                       ) -> tuple[dict[str, Any], str]:
    report = run_campaign(campaign, seed=seed, jobs=jobs)
    payload = report.canonical()
    text = render_qa_report(report)
    if witness_dir is not None and not report.gate_ok:
        paths = write_witnesses(report, witness_dir)
        if paths:
            text += "\n\nwitnesses written:\n" + \
                "\n".join(f"  {p}" for p in paths)
    return payload, text
