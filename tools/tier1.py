"""Run the tier-1 test suite and check that only the expected tests fail.

Two acceptance criteria fail on purpose (their pinned claims contradict
exact computation; see ``tests/test_acceptance.py``), so pytest's own exit
status cannot tell a good run from a bad one.  This script runs the whole
suite, as ROADMAP.md gives it, with nothing skipped or deselected::

    python tools/tier1.py

It prints pytest's summary line and exits 0 only when the failures are
exactly those two tests, the tests reported as xfailed are exactly the
strict xfails that record the binomial tail defects (ROADMAP open item 3:
the lower tail near the middle and far below it), and nothing errors,
collection included.  So a lost xfail (deleted, renamed or skipped) cannot
hide either defect.  A run that pytest stops with ``INTERNALERROR`` (a
crash in pytest or a plugin, which leaves the report incomplete) exits 1
and prints those lines, not the standing failures it did not report.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

EXPECTED_FAILURES = {
    "tests/test_acceptance.py::test_criterion_08_mse_landscape",
    "tests/test_acceptance.py::test_criterion_09_significance_curves",
}

EXPECTED_XFAILS = {
    "tests/test_distributions.py::test_binomial_cdf_near_the_middle_matches_mpmath",
    "tests/test_distributions.py::test_binomial_lower_tail_matches_mpmath",
}

# pytest's last line, e.g. "2 failed, 704 passed, 2 xfailed in 19.80s".
_SUMMARY = re.compile(r"^=*\s*(\d+ \w+.* in [\d.]+s.*?)\s*=*$")


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-rfEx"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    failed = {line.split()[1] for line in lines if line.startswith("FAILED ")}
    xfailed = {line.split()[1] for line in lines if line.startswith("XFAIL ")}
    errors = [line for line in lines if line.startswith("ERROR ")]
    summary = next((m.group(1) for line in reversed(lines) if (m := _SUMMARY.match(line))), None)
    print(summary or "no pytest summary line found")
    internal = [line for line in lines + proc.stderr.splitlines()
                if line.startswith("INTERNALERROR")]
    if internal:
        print(f"pytest stopped with INTERNALERROR (exit {proc.returncode}), so its report of "
              f"failures and xfails is incomplete; its last INTERNALERROR lines:", file=sys.stderr)
        print("\n".join(internal[-20:]), file=sys.stderr)
        return 1
    problems = [f"unexpected failure: {name}" for name in sorted(failed - EXPECTED_FAILURES)]
    problems += [f"expected failure did not fail: {name}"
                 for name in sorted(EXPECTED_FAILURES - failed)]
    problems += [f"unexpected xfail: {name}" for name in sorted(xfailed - EXPECTED_XFAILS)]
    problems += [f"expected xfail was not reported as xfailed: {name}"
                 for name in sorted(EXPECTED_XFAILS - xfailed)]
    problems += [f"error: {line[len('ERROR '):]}" for line in errors]
    if summary is None or "error" in summary:
        problems.append(f"pytest exited {proc.returncode}; its output ends:")
        problems += lines[-20:] + proc.stderr.splitlines()[-20:]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
