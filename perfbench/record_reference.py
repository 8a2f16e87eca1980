"""Record the outcomes that benchmark runs are checked against, in reference.json.

    python3 perfbench/record_reference.py --seeds 0 9

Run it on the commit whose answers are the reference. For each workload and
seed it runs each of the seed's first ``inputs`` inputs once, requires zero
failed operations, and stores per input the final ``phi_reg`` and h-norm
(for the sweep: every member's final ``phi_reg`` and the ``e_h`` list). A
benchmark run with a recorded seed checks every input that has an outcome.
"""

import argparse
import json
import sys

import run as bench


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(0, 9), metavar=("FIRST", "LAST"))
    args = parser.parse_args(argv)
    bench.import_program()
    import workloads

    reference = {w: {} for w in workloads.WORKLOADS}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        for w in workloads.WORKLOADS.values():
            inst = workloads.Instance(w, seed, workloads.workdir_for(bench.WORK_ROOT, w, seed))
            inst.expected = []
            try:
                outcomes = [inst.run(j).outcome for j in range(w.inputs)]
            finally:
                inst.close()
            if inst.failed:
                raise SystemExit(f"{w.name} seed {seed}: {inst.failed} failed operations")
            reference[w.name][str(seed)] = outcomes
            print(f"{w.name} seed {seed}: recorded {len(outcomes)} inputs", flush=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
