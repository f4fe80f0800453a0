"""CLI: ``python -m repro.eval <table1|table2|figure3|failures|scaling|lint|
pointer|obs|qa|all>``.

Performance is measured by the repository benchmark,
``python3 perfbench/run.py`` (see ``perfbench/README.md``), not here.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's tables and figures on the "
                    "synthetic corpus.",
    )
    parser.add_argument("what", choices=["table1", "table2", "figure3",
                                         "failures", "scaling", "lint",
                                         "pointer", "obs", "qa", "all"])
    parser.add_argument("--scale", type=int, default=1,
                        help="corpus scale factor (default 1)")
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="per-binary lifting timeout in seconds")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for corpus lifting "
                             "(default 1 = serial)")
    parser.add_argument("--sampling", type=int, default=None,
                        help="obs: record 1 in N high-frequency events "
                             "(default: the obs layer's default)")
    parser.add_argument("--campaign", choices=["quick", "full"],
                        default="quick",
                        help="qa: campaign size (default quick)")
    parser.add_argument("--seed", type=int, default=2022,
                        help="qa: campaign seed (default 2022)")
    parser.add_argument("--qa-out", default=None,
                        help="qa: also write the canonical JSON report "
                             "to this path")
    parser.add_argument("--witness-dir", default="qa-witnesses",
                        help="qa: directory for missed-expectation "
                             "witnesses (default qa-witnesses)")
    args = parser.parse_args(argv)

    if args.what in ("table1", "all"):
        from repro.eval.table1 import generate_table1

        _, text = generate_table1(scale=args.scale,
                                  timeout_seconds=args.timeout,
                                  jobs=args.jobs)
        print(text)
    if args.what in ("table2", "all"):
        from repro.eval.table2 import generate_table2

        _, text = generate_table2()
        print(text)
    if args.what in ("figure3", "all"):
        from repro.eval.figure3 import generate_figure3

        _, text = generate_figure3(scale=args.scale,
                                   timeout_seconds=args.timeout,
                                   jobs=args.jobs)
        print(text)
    if args.what == "scaling":
        from repro.eval.scaling import format_scaling, run_scaling

        print(format_scaling(run_scaling(timeout_seconds=args.timeout,
                                         jobs=args.jobs)))
    if args.what == "lint":
        from repro.eval.lint_report import generate_lint_report

        print(generate_lint_report(scale=args.scale,
                                   timeout_seconds=args.timeout))
    if args.what == "pointer":
        from repro.eval.pointer_report import generate_pointer_report

        _, text = generate_pointer_report(scale=args.scale,
                                          timeout_seconds=args.timeout)
        print(text)
    if args.what == "obs":
        from repro.eval.obs_report import generate_obs_report
        from repro.obs.tracer import DEFAULT_SAMPLING

        _, text = generate_obs_report(
            scale=args.scale, timeout_seconds=args.timeout, jobs=args.jobs,
            sampling=args.sampling if args.sampling else DEFAULT_SAMPLING,
        )
        print(text)
    if args.what == "qa":
        import json

        from repro.eval.qa_report import generate_qa_report

        payload, text = generate_qa_report(
            campaign=args.campaign, seed=args.seed, jobs=args.jobs,
            witness_dir=args.witness_dir,
        )
        print(text)
        if args.qa_out:
            with open(args.qa_out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, indent=1)
        if not payload["gate_ok"]:
            print("qa: campaign gate failed (missed faults or false "
                  "positives)", file=sys.stderr)
            return 1
    if args.what in ("failures", "all"):
        from repro.eval.failures_report import generate_failures_report

        print(generate_failures_report())
    return 0


if __name__ == "__main__":
    sys.exit(main())
