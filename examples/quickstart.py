"""Quickstart: find fuzzy duplicates in a small list of strings.

Run with:  python examples/quickstart.py
"""

from repro import Relation, deduplicate

CUSTOMERS = [
    "Lisa Simpson, Seattle, WA, USA, 98125",
    "Simson Lisa, Seattle, WA, United States, 98125",
    "Bart Simpson, Springfield, OR, USA, 97477",
    "Ned Flanders, Springfield, OR, USA, 97477",
    "Monty Burns, Springfield, OR, USA, 97477",
    "Moe Szyslak, Springfield, OR, USA, 97477",
    "Edna Krabappel, Portland, OR, USA, 97201",
    "Edna Krabapel, Portland, OR, USA, 97201",
]


def main() -> None:
    relation = Relation.from_strings("customers", CUSTOMERS)

    # DE_S(K): groups of at most K=3 duplicates, sparse-neighborhood
    # threshold c=4 (the paper's default operating point).  The default
    # distance is fuzzy match similarity, which handles the token swap
    # and the "USA"/"United States" variation in the Lisa records.
    result = deduplicate(relation, k=3, c=4.0)

    print("Duplicate groups found:")
    for group in result.duplicate_groups:
        print()
        for rid in group:
            print(f"  [{rid}] {relation.get(rid).text()}")

    print()
    print("Records with no duplicate:")
    for group in result.partition:
        if len(group) == 1:
            print(f"  [{group[0]}] {relation.get(group[0]).text()}")

    print()
    print(f"Phase 1 index lookups : {result.stats.phase1.lookups}")
    print(f"CSPairs rows          : {result.stats.n_cs_pairs}")
    print(f"Neighborhood growths  : {result.nn_relation.ng_values()}")


if __name__ == "__main__":
    main()
