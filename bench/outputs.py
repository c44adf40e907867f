"""Compare every output of a fixed list of CLI commands between this checkout and another source tree.

Usage, from the repository root (stdlib only):

    python3 bench/outputs.py --src /path/to/another/src [--expect-change NAME ...]

Each command of :data:`COMMANDS` runs on each tree as
``python -m trigreg.cli ...`` in a child process whose ``PYTHONPATH`` is that
tree, in a fresh working directory of its own, which holds one output
directory per command, named after it: so ``name/file`` is ``file`` as the
earlier command ``name`` wrote it on the same tree (a CSV that one command
writes and the next reads as ``--input``).  The commands marked
``memory`` run with their address space capped at :data:`ADDRESS_SPACE` by
``resource.setrlimit(RLIMIT_AS, ...)`` in ``preexec_fn``, so no run can
exhaust the host; every child runs one BLAS thread, on both trees alike.

In stdout and stderr the working directory and the tree's path are replaced
by ``<dir>`` and ``<src>``.  Then the exit code, stdout, stderr, the list
of files and every file's bytes are compared, and one line per command says
``identical``, ``changed (expected)`` or ``CHANGED: <what>``.  The exit
status is 1 if any command changed that ``--expect-change`` does not name,
or if a named command did not change; else 0.  ``--src src`` compares the
checkout with itself, which checks that every command still runs.

Float cells are ``repr`` text, and another numpy or BLAS can differ in the
last bit, so the comparison is always two trees on one machine, never a
stored digest.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 2**30  # bytes; far above what a valid command here needs
TIMEOUT_S = 600

# ``refused``: the exit code with which ``cli.build_config`` refuses the
# command, before any input is read (None: it passes build_config).
# ``memory``: the command asks for more memory than any host has.
Command = namedtuple("Command", "name argv refused memory", defaults=[None, False])

_F1_21 = ("--gallery", "f1", "--n", "21")
_INPUT = ("--input", "approx-f1-eval1001/evaluation.csv")
_HUGE = "1000000000000"

COMMANDS = (
    # approximate
    Command("approx-f1-lambda", ("approximate", "--gallery", "f1", "--n", "101", "--lambda", "0.5")),
    Command("approx-sawtooth-gcv", ("approximate", "--gallery", "sawtooth", "--n", "2001", "--snr-db", "20",
                                    "--seed", "4", "--strategy", "gcv")),
    Command("approx-f1-eval1001", ("approximate", *_F1_21, "--lambda", "0.1", "--eval-points", "1001")),
    Command("approx-input-gcv", ("approximate", *_INPUT, "--strategy", "gcv")),
    Command("approx-f2-morozov", ("approximate", "--gallery", "f2", "--n", "501", "--snr-db", "30",
                                  "--strategy", "morozov")),
    Command("approx-f2-lcurve", ("approximate", "--gallery", "f2", "--n", "501", "--snr-db", "30",
                                 "--strategy", "lcurve")),
    Command("approx-f1-21", ("approximate", *_F1_21, "--lambda", "0.1")),
    Command("approx-overflow", ("approximate", "--gallery", "f1", "--n", "101", "--strategy", "manual",
                                "--lambda", "1e305")),
    # select
    Command("select-f1-501", ("select", "--gallery", "f1", "--n", "501", "--snr-db", "37.5", "--seed", "3",
                              "--strategy", "all")),
    Command("select-f1-101-clean", ("select", "--gallery", "f1", "--n", "101", "--strategy", "all")),
    Command("select-morozov-below-grid", ("select", "--gallery", "f1", "--n", "101", "--strategy", "morozov",
                                          "--noise-norm", "0")),
    Command("select-input-all", ("select", *_INPUT, "--strategy", "all")),
    Command("select-input-noise", ("select", *_INPUT, "--strategy", "all", "--noise-norm", "0.05")),
    Command("select-steep", ("select", "--gallery", "f1", "--n", "1001", "--snr-db", "20", "--s", "40",
                             "--strategy", "all")),
    Command("select-overflow", ("select", "--gallery", "f1", "--n", "101", "--snr-db", "20", "--zeta0", "1e305",
                                "--strategy", "lcurve")),
    Command("select-square-gcv-oracle", ("select", "--gallery", "square", "--n", "201", "--snr-db", "60",
                                         "--strategy", "gcv,oracle")),
    Command("select-morozov-above-grid", ("select", "--gallery", "f1", "--n", "101", "--snr-db", "20",
                                          "--zeta0", "1e-6", "--strategy", "morozov")),
    Command("select-f1-21", ("select", *_F1_21, "--snr-db", "20", "--strategy", "all")),
    Command("select-big", ("select", "--gallery", "f1", "--n", "100001", "--snr-db", "20", "--strategy", "all")),
    # sweep
    Command("sweep-f2-paper", ("sweep", "--gallery", "f2", "--n", "501", "--snr-db", "10:80:10", "--emit-curves")),
    Command("sweep-square-two", ("sweep", "--gallery", "square", "--n", "101", "--snr-db", "20,60",
                                 "--strategy", "morozov,oracle")),
    Command("sweep-short-grid", ("sweep", "--gallery", "f1", "--n", "101", "--snr-db", "10,20", "--zeta0", "1e-6",
                                 "--t-max", "50")),
    Command("sweep-folded", ("sweep", "--gallery", "square", "--n", "2001", "--snr-db", "20,60",
                             "--eval-points", "1000", "--emit-curves")),
    Command("sweep-f1-21", ("sweep", *_F1_21, "--snr-db", "10:30:10", "--emit-curves")),
    # refusals
    Command("refuse-n-contradicts-input", ("approximate", *_INPUT, "--n", "1003", "--strategy", "gcv")),
    Command("refuse-snr-with-input", ("select", *_INPUT, "--snr-db", "20"), refused=2),
    Command("refuse-lambda-without-manual", ("approximate", *_F1_21, "--strategy", "gcv", "--lambda", "0.1"),
            refused=2),
    Command("refuse-config-before-input", ("select", "--input", "missing.csv", "--strategy", "bogus"), refused=2),
    Command("refuse-infinite-range", ("select", *_F1_21, "--snr-db", "0:inf:1"), refused=3),
    Command("refuse-infinite-level", ("select", *_F1_21, "--snr-db", "inf"), refused=3),
    Command("refuse-steep-penalty", ("select", "--gallery", "f1", "--n", "1001", "--snr-db", "20", "--s", "58",
                                     "--strategy", "all")),
    # sizes that do not fit in memory
    Command("memory-grid", ("select", *_F1_21, "--q", "0.9999999999", "--t-max", _HUGE), memory=True),
    Command("memory-levels", ("sweep", *_F1_21, "--snr-db", "0:1e9:1"), memory=True),
    Command("memory-approximate-eval", ("approximate", *_F1_21, "--lambda", "0.1", "--eval-points", _HUGE),
            memory=True),
    Command("memory-select-n", ("select", "--gallery", "f1", "--n", "1000000000001", "--strategy", "gcv"),
            memory=True),
    Command("memory-sweep-eval", ("sweep", *_F1_21, "--snr-db", "20", "--eval-points", _HUGE), memory=True),
    Command("memory-oracle-eval", ("select", *_F1_21, "--eval-points", _HUGE, "--strategy", "oracle"),
            memory=True),
)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(command: Command, src: Path, workdir: str) -> dict:
    """Run one command on the tree ``src`` in ``workdir``; return its normalized outcome."""
    outdir = os.path.join(workdir, command.name)
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "trigreg.cli", *command.argv, "--output-dir", outdir]
    proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S,
                          preexec_fn=_cap_address_space if command.memory else None)

    def normalize(text: bytes) -> bytes:
        return text.replace(workdir.encode(), b"<dir>").replace(str(src).encode(), b"<src>")

    files = {}
    if os.path.isdir(outdir):
        for path in sorted(Path(outdir).rglob("*")):
            if path.is_file():
                files[str(path.relative_to(outdir))] = path.read_bytes()
    return {"exit code": proc.returncode, "stdout": normalize(proc.stdout), "stderr": normalize(proc.stderr),
            "files": files}


def differences(this: dict, other: dict) -> list[str]:
    """What differs between two outcomes of one command."""
    found = [key for key in ("exit code", "stdout", "stderr") if this[key] != other[key]]
    if sorted(this["files"]) != sorted(other["files"]):
        found.append("file list")
    found += [name for name in sorted(set(this["files"]) & set(other["files"]))
              if this["files"][name] != other["files"][name]]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the other source tree, compared with this checkout's src")
    parser.add_argument("--expect-change", nargs="+", default=[], metavar="NAME",
                        help="commands whose outputs are meant to differ")
    args = parser.parse_args(argv)
    names = {command.name for command in COMMANDS}
    unknown = sorted(set(args.expect_change) - names)
    if unknown:
        parser.error(f"unknown command names {unknown}")
    trees = [(ROOT / "src").resolve(), Path(args.src).resolve()]
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        workdirs = [os.path.join(scratch, f"tree{index}") for index in range(len(trees))]
        for workdir in workdirs:
            os.mkdir(workdir)
        for command in COMMANDS:
            this, other = (run(command, tree, workdir) for tree, workdir in zip(trees, workdirs))
            found = differences(this, other)
            expected = command.name in args.expect_change
            if found and expected:
                status = "changed (expected)"
            elif found:
                status, failed = f"CHANGED: {', '.join(found)}", failed + 1
            elif expected:
                status, failed = "identical, but expected to change", failed + 1
            else:
                status = "identical"
            print(f"{command.name}: exit {this['exit code']}, {len(this['files'])} files: {status}", flush=True)
    print(f"{len(COMMANDS)} commands, {failed} unexpected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
