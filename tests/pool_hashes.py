"""sha256 of exit codes and ``solve`` output over the benchmark's instance pools.

    PYTHONPATH=src python tests/pool_hashes.py [SEED]

Builds each workload's full pool of the given seed (default 1) through
``perfbench/workloads.py``, as the benchmark does, writes every instance to
a file in a temporary directory, and solves it through ``cli.main`` in
each of the workload's modes at its eps.  Prints one line per workload: its name and the sha256
of every exit code and standard output, in solve order.  Comparing these
lines with recorded ones pins the answers on the benchmark's own instances.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from incknap import cli  # noqa: E402

def pool_hash(workload: workloads.Workload, seed: int, workdir: Path) -> str:
    digest = hashlib.sha256()
    for index in range(workload.pool):
        path = workdir / f"{workload.name}-{index}.json"
        path.write_text(cli.instance_to_json(workload.make(seed, index)))
        for mode in workload.modes:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["solve", str(path), "--mode", mode, "--eps", workload.eps])
            digest.update(f"{code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS.values():
            print(workload.name, pool_hash(workload, seed, Path(tmp)), flush=True)


if __name__ == "__main__":
    main()
