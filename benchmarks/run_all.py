"""Run every benchmark's report and print one consolidated document.

The one-command regeneration of everything the paper shows::

    python benchmarks/run_all.py            # all figures + claims
    python benchmarks/run_all.py figure     # only the figure reproductions
    python benchmarks/run_all.py claim      # only the textual-claim checks
    python benchmarks/run_all.py --quick    # CI-sized workloads

Each section is the ``main()`` of one ``bench_*`` module — the same code
``pytest benchmarks/ --benchmark-only`` times and asserts.  A section
that raises does not abort the run: the failure (name, exception,
traceback tail) is printed, the remaining sections still run, and the
process exits non-zero at the end.  That makes ``--quick`` the CI gate
for every section's assertions; timing is perfbench's job.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
import traceback

#: Report order: the paper's figures first, then its claims, then the
#: extension experiments (including the engine benchmarks added by the
#: batch-update and durability PRs).
SECTIONS = [
    ("figure", "bench_figure1_prepost"),
    ("figure", "bench_figure2_encoding"),
    ("figure", "bench_figure3_dewey"),
    ("figure", "bench_figure4_ordpath"),
    ("figure", "bench_figure5_lsdx"),
    ("figure", "bench_figure6_improved_binary"),
    ("figure", "bench_figure7_matrix"),
    ("claim", "bench_claim_skewed_growth"),
    ("claim", "bench_claim_overflow"),
    ("claim", "bench_claim_containment_gaps"),
    ("claim", "bench_claim_lsdx_collisions"),
    ("claim", "bench_update_cost"),
    ("claim", "bench_storage_growth"),
    ("extension", "bench_extended_matrix"),
    ("extension", "bench_ablation_code_design"),
    ("extension", "bench_codec_storage"),
    ("extension", "bench_structural_join"),
    ("extension", "bench_twig_queries"),
    ("extension", "bench_accelerator"),
    ("extension", "bench_xmark_auctions"),
    ("extension", "bench_query_axes"),
    ("extension", "bench_batch_updates"),
    ("extension", "bench_durability"),
    ("extension", "bench_ulang"),
]

KINDS = ("figure", "claim", "extension")


def run_section(module_name: str, argv):
    """Import and run one section; return its failure, or ``None``."""
    try:
        importlib.import_module(module_name).main(argv)
    except (Exception, SystemExit) as error:
        tail = traceback.format_exception(type(error), error,
                                          error.__traceback__)
        return {
            "section": module_name,
            "type": type(error).__name__,
            "message": str(error),
            "traceback_tail": [line.rstrip("\n") for line in tail[-4:]],
        }
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument("kinds", nargs="*", metavar="kind",
                        help="restrict to report kinds: figure, claim, "
                             "extension (default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workloads in every section")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    unknown = [kind for kind in args.kinds if kind not in KINDS]
    if unknown:
        parser.error(f"unknown kind(s): {', '.join(unknown)} "
                     f"(choose from {', '.join(KINDS)})")
    wanted = set(args.kinds) if args.kinds else set(KINDS)
    section_argv = ["--quick"] if args.quick else []
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    started = time.perf_counter()
    count = 0
    failures = []
    for kind, module_name in SECTIONS:
        if kind not in wanted:
            continue
        banner = f"  {module_name}  ({kind})  "
        print("=" * len(banner))
        print(banner)
        print("=" * len(banner))
        failure = run_section(module_name, section_argv)
        if failure is not None:
            failures.append(failure)
            print(f"!! section failed: {failure['type']}: "
                  f"{failure['message']}")
            for line in failure["traceback_tail"]:
                print(f"   {line}")
        print()
        count += 1
    elapsed = time.perf_counter() - started
    print(f"-- regenerated {count} reports in {elapsed:.1f} s")
    if failures:
        print(f"-- {len(failures)} section(s) FAILED: "
              + ", ".join(failure["section"] for failure in failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
