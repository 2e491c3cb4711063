"""The command line's entry: ``python -m kph`` and the installed ``kph`` script."""

import os
import sys

#: OpenBLAS reads its thread count from any of these.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv=None) -> int:
    """Run a kph subcommand on one BLAS thread unless the user chose a count.

    kph's matrix products are too small to gain from BLAS threads, while
    idle OpenBLAS workers still burn CPU. OpenBLAS reads the count once,
    when numpy loads, so it is set here, before the CLI first imports numpy.
    """
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
