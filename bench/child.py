"""One benchmark invocation: run ``blochcurve.cli.main(argv)`` in this process.

Usage: python3 child.py SPEC.json

SPEC holds ``src`` (the directory that contains the ``blochcurve`` package),
``argv`` (None: import the CLI and exit, which is what set-up time measures),
``spans`` (a path: trace the run and write its spans there) and ``rss`` (a
path: write this process's peak resident set in KiB there). The argv travels
in a file because a 100 000-value ``--nu0-list`` is longer than the kernel
accepts for one command-line argument.

The peak comes from VmHWM, the high-water mark of this process's own address
space. The ru_maxrss that wait4 returns would not do: exec carries the
spawning process's high-water mark into the child's, so it reads the larger
of the harness and the program.
"""

import json
import sys


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from blochcurve import cli

    if spec["argv"] is None:
        return 0
    spans = None
    if spec["spans"] is not None:
        import tracer

        spans = tracer.install()
    try:
        return cli.main(spec["argv"])
    finally:
        if spans is not None:
            spans.save(spec["spans"])
        with open(spec["rss"], "w", encoding="utf-8") as fh:
            fh.write(str(_peak_rss_kib()))


def _peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
