"""Set-up probe: import defosc.cli, run the warm-up jobs, print ``ready``.

``bench/run.py`` starts this in a fresh process and times it from process
start to the ``ready`` line; that is the ``setup_s`` a CLI user pays once
per process.  Every workload runs every task kind, so the warm-up is the
same for all of them.
"""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench.run import OUT, bootstrap  # noqa: E402


def main() -> int:
    bootstrap()
    import defosc.cli  # noqa: F401

    from bench import jobs, workloads

    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    jobs.warm_up(workloads.warm_up_jobs(), work_dir)
    print("ready", flush=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
