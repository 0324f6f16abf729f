"""A command run in a fresh interpreter whose parent is a small interpreter
of its own, as a shell would start it.  A process's ru_maxrss survives exec,
so a child of the test process that read RUSAGE_SELF would report the test
process's peak whenever that were the larger; the small parent reads
RUSAGE_CHILDREN, the peak of the command alone."""

import os
import subprocess
import sys

import symchaos

SRC = os.path.dirname(os.path.dirname(symchaos.__file__))

# argv[1] is the timeout in seconds and argv[2:] the command; prints the
# command's last line of output, then its peak resident size in MB
_PARENT = ("import resource, subprocess, sys\n"
           "done = subprocess.run(sys.argv[2:], capture_output=True, text=True,\n"
           "                      timeout=float(sys.argv[1]))\n"
           "assert (done.returncode, done.stderr) == (0, ''), done.stderr[-2000:]\n"
           "print(done.stdout.splitlines()[-1])\n"
           "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)\n")


def last_line_and_peak(argv, timeout):
    """The last line that argv prints and its peak resident size in MB, argv
    run under the timeout, with the package on its path; it must exit 0 with
    nothing on stderr."""
    done = subprocess.run([sys.executable, "-c", _PARENT, str(timeout), *argv],
                          capture_output=True, text=True, timeout=timeout + 30,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert (done.returncode, done.stderr) == (0, ""), done.stderr[-2000:]
    line, peak_mb = done.stdout.splitlines()
    return line, float(peak_mb)


def cli(*argv):
    """The command line of `symchaos argv` in this interpreter."""
    return [sys.executable, "-m", "symchaos.cli", *argv]
