"""Regenerate bench/expected/named_spectra.json with sympy, apart from normcov.

    python3 bench/regen_expected.py

For M12, its second class (the generators conjugated by the transposition
(1 2)) and M11, sympy's Schreier-Sims checks the group order and its element
enumeration lists every cycle type, fixed points counted as parts of size 1.
The generators are read from the shipped generators.json; nothing of
normcov's code runs. catalog-gamma checks each membership answer against
these spectra.
"""

import json
from pathlib import Path

from sympy.combinatorics import Permutation, PermutationGroup

BENCH = Path(__file__).resolve().parent
DATA = BENCH.parent / "src" / "normcov" / "data" / "generators.json"
GROUPS = (("M12", 1), ("M12", 2), ("M11", 1))


def spectrum(record: dict, cls: int) -> tuple[int, list[list[int]]]:
    n = record["degree"]
    gens = [Permutation([[p - 1 for p in cyc] for cyc in gen], size=n) for gen in record["generators"]]
    if cls == 2:
        swap = Permutation([[0, 1]], size=n)
        gens = [swap * g * swap for g in gens]
    group = PermutationGroup(gens)
    order = int(group.order())
    if order != record["expected_order"]:
        raise SystemExit(f"{record['name']}: sympy order {order}, data says {record['expected_order']}")
    types = set()
    for g in group.generate_schreier_sims():
        lens = [len(c) for c in g.full_cyclic_form]
        types.add(tuple(sorted(lens, reverse=True)))
    return order, sorted(list(t) for t in types)


def main() -> None:
    records = {rec["name"]: rec for rec in json.loads(DATA.read_text())}
    out = {}
    for name, cls in GROUPS:
        order, types = spectrum(records[name], cls)
        out[name if cls == 1 else f"{name}:{cls}"] = {"degree": records[name]["degree"], "order": order, "types": types}
    path = BENCH / "expected" / "named_spectra.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(BENCH.parent)}")


if __name__ == "__main__":
    main()
