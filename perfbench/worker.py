"""Run one pass of a workload in a fresh interpreter.

The set-up being measured comes first: importing the package and its CLI
and building the CLI parser, which every CLI call pays.  The worker then
prints ``ready`` so that the parent can stop the set-up clock, and only
then loads the benchmark's own code and runs the pass (see ``passes.py``).
"""

import sys


def main() -> int:
    import roundedcounts.cli

    roundedcounts.cli.build_parser()
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import passes

    return passes.main()


if __name__ == "__main__":
    sys.exit(main())
