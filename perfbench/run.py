"""Benchmark entry point.

    python3 perfbench/run.py --workload cond_sweep --seed 1 --seconds 15 --trace 0

Run from the repository root.  The library is imported from `src/` of the
checkout this file sits in; the last stdout line is the JSON result.
"""
import os
import sys
import time

STARTED = time.perf_counter()


def _main() -> int:
    # One BLAS/OpenMP thread, set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "nomacell" / "__init__.py").is_file():
        print(f"error: no library source at {src / 'nomacell'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from nomabench.harness import main

    import nomacell
    if Path(nomacell.__file__).resolve().parent != src / "nomacell":
        print(f"error: nomacell imported from {nomacell.__file__}, not {src}",
              file=sys.stderr)
        return 2
    return main(sys.argv[1:], root, STARTED)


if __name__ == "__main__":
    sys.exit(_main())
