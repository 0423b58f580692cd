"""Run the monord CLI under cProfile and keep its exit code.

    python3 perfbench/cliprof.py OUT.prof -- <monord arguments>

``python -m cProfile`` swallows ``SystemExit``, so every child would exit
0; this wrapper profiles ``monord.cli.main`` itself, writes the stats to
OUT.prof and exits with the code main returned.
"""

import cProfile
import sys


def run():
    out = sys.argv[1]
    argv = sys.argv[3:] if sys.argv[2:3] == ["--"] else sys.argv[2:]
    prof = cProfile.Profile()
    prof.enable()
    try:
        from monord.cli import main
        rc = main(argv)
    finally:
        prof.disable()
        prof.dump_stats(out)
    return rc


if __name__ == "__main__":
    sys.exit(run())
