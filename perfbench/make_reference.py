"""Write reference.json: the row digest of every slot of every op kind.

    python3 perfbench/make_reference.py

Run it only when the program's rows are meant to change; the ROADMAP
replay rule says they must not.
"""

import json
import shutil
import sys
import tempfile

import workloads as wl
from run import HERE, OUT_DIR, Bench, load_program


def main() -> int:
    program = load_program()
    OUT_DIR.mkdir(exist_ok=True)
    digests = {}
    for workload in wl.WORKLOADS.values():
        workdir = tempfile.mkdtemp(dir=OUT_DIR)
        try:
            bench = Bench(program, workload, wl.DEFAULT_SEED, workdir)
            for kind in workload.kinds:
                row = []
                for slot in range(wl.SLOTS):
                    r = bench.op(kind.key)
                    if r.code not in kind.verdicts:
                        raise SystemExit(f"{kind.key} slot {slot}: exit code {r.code} {r.error}")
                    row.append(wl.row_digest(kind, r.output))
                digests[kind.key] = row
                print(kind.key, file=sys.stderr)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "reference.json", "w") as fh:
        json.dump({"seed": wl.DEFAULT_SEED, "slots": wl.SLOTS, "digests": digests}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
