"""Check that the ports-2.5k latency adapters change timing only.

    python3 bench/check_adapters.py --seed 1

Runs the ports-2.5k config from one seed on the bare synthetic ports
and through the adapters with every delay at zero; the two must end in
the same final-snapshot digest, or it exits 1. It also reports the
digest with the workload's delays on. That one may differ: with two
workers the engine checks the budget between submissions while earlier
jobs already charge the clock, so near the end of the budget how many
jobs start depends on timing.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, ZERO_LATENCY, prepare_inputs  # noqa: E402


def final_digest(inputs: Path, run_dir: Path, latency) -> str:
    import ideatree
    from adapters import with_latency

    config = ideatree.load_config(inputs / "config.json")
    ports = ideatree.build_synthetic_ports(config, corpus_dir=inputs / "corpus")
    if latency is not None:
        ports = with_latency(ports, latency)
    ideatree.execute_run(config, ports, run_dir)
    return hashlib.sha256((run_dir / "final_snapshot.json").read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload = WORKLOADS["ports-2.5k"]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="adapters-", dir=ROOT / ".bench_work"))
    try:
        inputs = tmp / "inputs"
        prepare_inputs(workload, args.seed, inputs)
        digests = {
            label: final_digest(inputs, tmp / label, latency)
            for label, latency in (("bare", None), ("zero-delay", ZERO_LATENCY),
                                   ("delayed", workload.latency))
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for label, digest in digests.items():
        print(f"{label:<11} {digest}")
    same = digests["bare"] == digests["zero-delay"]
    print("zero-delay adapters: " + ("same final snapshot" if same else "DIGESTS DIFFER"))
    print("with delays: " + ("same final snapshot" if digests["delayed"] == digests["bare"]
                             else "different final snapshot (timing-dependent dispatch)"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
