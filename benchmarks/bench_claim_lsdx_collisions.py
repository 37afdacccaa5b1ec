"""Section 3.1.2 claim: LSDX "do[es] not always produce unique node labels".

The corner cases catalogued by Sans & Laurent [19] are regenerated: the
published between-insertion rule lands on an existing label whenever the
open interval is too tight for increment-or-append (for example between
``z`` and ``zb``).  QED under the same update sequence stays collision
free, which is the survey's reason for dismissing the LSDX family.
"""

from _common import bench_args, fresh
from repro.xmlmodel.builder import wide_tree


def collision_scenario(scheme_name):
    """Append past z, then insert between the last two children."""
    ldoc = fresh(scheme_name, wide_tree(25))  # children b..z for LSDX
    children = ldoc.document.root.element_children()
    ldoc.updates.append_child(ldoc.document.root, "tail")
    ldoc.updates.insert_after(children[-1], "squeeze")
    return ldoc.log.collisions


def tight_interval_sweep(scheme_name, rounds=12):
    """Repeatedly halve one interval; count duplicate labels."""
    ldoc = fresh(scheme_name, wide_tree(2))
    left, right = ldoc.document.root.element_children()
    collisions = 0
    for _ in range(rounds):
        ldoc.updates.insert_after(left, "wedge")
        collisions = ldoc.log.collisions
    return collisions


def regenerate():
    return {
        "lsdx z/zb corner case": collision_scenario("lsdx"),
        "comd z/zb corner case": collision_scenario("comd"),
        "qed same scenario": collision_scenario("qed"),
        "lsdx tight-interval sweep": tight_interval_sweep("lsdx"),
        "qed tight-interval sweep": tight_interval_sweep("qed"),
    }


def bench_lsdx_collision_corner_cases(benchmark):
    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    assert results["lsdx z/zb corner case"] >= 1
    assert results["comd z/zb corner case"] >= 1  # inherited defect
    assert results["qed same scenario"] == 0
    assert results["qed tight-interval sweep"] == 0


def main(argv=None):
    bench_args(__doc__, argv)  # corner cases are constant-sized
    results = regenerate()
    print("Duplicate labels produced (collisions)")
    for scenario, count in results.items():
        print(f"  {scenario:28s} {count}")


if __name__ == "__main__":
    main()
