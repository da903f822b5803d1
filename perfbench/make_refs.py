"""Regenerate perfbench/refs.json: every workload command run once at the
reference seed, with the values or digests the output checks compare.

    python3 perfbench/make_refs.py

Run it only when a workload's commands change; a change to the program
must be checked against the stored references, not re-record them.
"""

import json
import sys

import checks
import run
import spec


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    outputs = {}
    for workload in spec.WORKLOADS.values():
        for argv in workload["commands"]:
            inv = run.invoke(argv, spec.REFERENCE_SEED)
            if inv.returncode != 0:
                sys.exit(f"{checks.key(argv)} exited {inv.returncode}: {inv.stderr}")
            outputs[checks.key(argv)] = checks.reference(argv, inv.stdout)
    refs = {"seed": spec.REFERENCE_SEED, "outputs": outputs}
    (run.HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
