"""Regenerate ``perfbench/reference.json``, the values the checks compare to.

Run from the root of a checkout::

    PYTHONPATH=src:. python3 -m perfbench.make_reference

Only regenerate when a change is *meant* to alter the program's numbers,
and say so in the change.  The file holds the numbers of every paper
harness report, the Table I entries shared with the paper, the
variability study's metric summary at its reference seed and the
``lattice_scale`` solutions.
"""

from __future__ import annotations

import json
import os

from perfbench import common, lattice_scale, paper, variability


def main() -> None:
    common.scrub_own_env()
    import repro.experiments as experiments
    from repro.api import Session
    from repro.core.paths import PAPER_TABLE_I

    numbers = {}
    shared = []
    for name in paper.HARNESSES:
        value = getattr(experiments, name)()
        numbers[name] = [list(pair) for pair in paper.numbers_of(value)]
        if name == "run_table1":
            shared = sorted(
                [list(key) for key in value.computed if key in PAPER_TABLE_I]
            )
    study = variability.study(variability.REFERENCE_SEED)
    study_result = Session(store=None).run(study)
    lattice_results = [
        Session(store=None).run(spec) for spec in lattice_scale.unit_specs(0)
    ]
    reference = {
        "paper": {"numbers": numbers, "table1_shared_entries": shared},
        "variability": {
            "seed": variability.REFERENCE_SEED,
            "trials": variability.TRIALS,
            "metrics": variability.summary(study_result),
        },
        "lattice_scale": lattice_scale.reference_entry(lattice_results),
    }
    path = os.path.join(os.path.dirname(__file__), "reference.json")
    with open(path, "w") as handle:
        json.dump(reference, handle, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
