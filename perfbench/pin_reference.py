"""Write reference.json: each workload's gate output at the current commit.

The pinned values gate every later change (see README.md). They were written
by the commit that added the benchmark. Regenerate them only together with a
documented, justified change of the program's seeded outputs.

    python3 perfbench/pin_reference.py
"""

import json

from run import BENCH_DIR, OUT, load_program
from workloads import WORKLOADS


def main():
    bf = load_program()
    pins = {}
    for name, wl in WORKLOADS.items():
        out_dir = OUT / name
        out_dir.mkdir(parents=True, exist_ok=True)
        pins[name] = wl.gate_output(bf, out_dir)
    body = ",\n".join(f" {json.dumps(name)}: {json.dumps(pin)}" for name, pin in pins.items())
    (BENCH_DIR / "reference.json").write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    main()
