"""Update-language throughput and static-analyzer precision.

Two questions, matching the two halves of ``repro.ulang``:

* How fast do programs get from source text to an applied batch?
  (parse / analyze / execute, statements per second)
* How *precise* is the conservative independence analysis?  Soundness
  is guaranteed by the test battery; what the bench tracks is the other
  axis — the fraction of genuinely-independent (program, query) pairs
  the analyzer manages to prove, so precision regressions (a widening
  that starts answering may-conflict everywhere) show up as a number.
"""

from __future__ import annotations

import time

from _common import bench_args, fresh
from repro.ulang import check_program, parse_program, run_program
from repro.xmlmodel.parser import parse

WIDTH = 64


def workload_document():
    xml = "".join(f"<item idx='{i}'><v>{i}</v></item>" for i in range(WIDTH))
    return parse(f"<root>{xml}</root>")


PROGRAMS = [
    "insert <entry year='2024'/> into /root;",
    "delete //item[@idx='3'];",
    "replace value of //item[@idx='5']/v with 'updated';",
    "rename //item as entry; delete //entry[@idx='7'];",
    "move //item[@idx='2'] into /root;",
]

#: (program, query, truly-independent?) — ground truth established by
#: hand; the precision metric is how many of the independent pairs the
#: analyzer proves.
PRECISION_PAIRS = [
    ("delete //a/b;", "//a/b", False),
    ("delete //a/b;", "/r/c/d", True),
    ("delete //a/b;", "//b/c", False),
    ("insert <x/> into /r/a;", "/r/a/x", False),
    ("insert <x/> into /r/a;", "/r/c", True),
    ("replace value of /r/a/b with '1';", "/r/a/b", False),
    ("replace value of /r/a/b with '1';", "/r/a/c", True),
    ("replace value of /r/a/b with '1';", "//a[b='0']", False),
    ("rename //a as z;", "//q/w", True),
    ("rename //a as z;", "//z", False),
    ("move /r/a into /r/c;", "/r/q", True),
    ("move /r/a into /r/c;", "//c/a", False),
]


def throughput(rounds: int):
    ldoc = fresh("ordpath", workload_document())
    statements = sum(len(parse_program(p).statements) for p in PROGRAMS)
    start = time.perf_counter()
    for _ in range(rounds):
        for source in PROGRAMS:
            parse_program(source)
    parse_s = time.perf_counter() - start

    queries = ["//item", "/root/entry", "//item[@idx='9']"]
    programs = [parse_program(p) for p in PROGRAMS]
    start = time.perf_counter()
    for _ in range(rounds):
        for program in programs:
            check_program(program, queries=queries, ldoc=ldoc)
    analyze_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(rounds):
        run_program(fresh("ordpath", workload_document()), programs[0])
    execute_s = time.perf_counter() - start

    per_round = statements * rounds
    return [
        {"stage": "parse", "stmt_per_s": round(per_round / parse_s)},
        {"stage": "analyze+verdicts", "stmt_per_s": round(per_round / analyze_s)},
        {"stage": "execute (1 stmt)", "stmt_per_s": round(rounds / execute_s)},
    ]


def precision():
    proved = possible = false_independent = 0
    for program, query, truly_independent in PRECISION_PAIRS:
        report = check_program(program, queries=[query])
        independent = report.verdicts[0].independent
        if truly_independent:
            possible += 1
            proved += independent
        elif independent:
            false_independent += 1
    return {
        "stage": "precision",
        "proved_independent": proved,
        "provable": possible,
        "false_independent": false_independent,
    }


def main(argv=None):
    args = bench_args(__doc__, argv)
    rounds = 20 if args.quick else 200
    for row in throughput(rounds):
        print(f"{row['stage']:18s} {row['stmt_per_s']:>10,d} stmt/s")
    quality = precision()
    print(f"precision          {quality['proved_independent']}/"
          f"{quality['provable']} independent pairs proven, "
          f"{quality['false_independent']} unsound verdicts")
    # Soundness is an invariant, not a statistic: any false independent
    # here means the chain domain widened incorrectly.
    assert quality["false_independent"] == 0


if __name__ == "__main__":
    main()
