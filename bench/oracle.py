"""Answer checks for the benchmark's zdgdim commands.

Every check takes the command's exit code and captured stdout and returns
None when the answer is right, or a one-line reason when it is not.  The
expected values come from routes independent of the code under test: the
closed formula |Z*| - 2n + 2 evaluated here from the spec, fixed values
for the two adapter inputs (316 by the comaximal theorem, 75 by
definition-level computation), and the fixed list of verify cases that fail
by design.
"""

from __future__ import annotations

import json

SUITES = ("diameter", "gallai", "distance-lemma", "quotient", "gsr-equality",
          "decomposition", "formula-agreement", "adapters", "examples")

# The published component-union closed form disagrees with definition-level
# computation (criterion 12b); these four verify cases fail by design and
# must keep failing exactly like this.
KNOWN_VERIFY_FAILURES = (
    ("adapters", "UG(3,2): published form = gsr", "6", "3"),
    ("adapters", "UG(3,3): published form = gsr", "25", "22"),
    ("examples", "UG(3,2): published form", "6", "3"),
    ("examples", "UG(3,3): published form", "25", "22"),
)


def _sdim_rows(stdout: str) -> dict[str, str]:
    rows = {}
    for line in stdout.splitlines()[2:]:
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 3:
            rows[cells[0]] = cells[1]
    return rows


def check_sdim(rc: int, stdout: str, n: int, zstar: int) -> str | None:
    """`sdim ... --check` on a blow-up of 2^n with |Z*| = zstar: exit 0 and
    formula and gsr rows both equal to zstar - 2n + 2."""
    if rc != 0:
        return f"exit code {rc}, want 0"
    lines = stdout.splitlines()
    if not lines or not lines[0].endswith(f"(|V|={zstar})"):
        return f"header {lines[:1]!r} does not report |V|={zstar}"
    want = str(zstar - 2 * n + 2)
    rows = _sdim_rows(stdout)
    for method in ("formula", "gsr"):
        if rows.get(method) != want:
            return f"{method} = {rows.get(method)!r}, want {want}"
    return None


def check_adapter(rc: int, stdout: str, gsr: int) -> str | None:
    """`adapter ...`: exit 0, the given gsr value and a passing blow-up
    cross-check."""
    if rc != 0:
        return f"exit code {rc}, want 0"
    lines = stdout.splitlines()
    if f"sdim via gsr: {gsr}" not in lines:
        return f"no 'sdim via gsr: {gsr}' line"
    cross = [ln for ln in lines if ln.startswith("matches ")]
    if len(cross) != 1 or not cross[0].endswith(": True"):
        return f"cross-check lines {cross!r}, want one ending ': True'"
    return None


def check_verify(rc: int, stdout: str, suite: str) -> str | None:
    """`verify --json --suite X`: the suite ran cases and its only failures
    are the known published-form ones, with exit code 1 exactly when there
    are any."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if [r.get("suite") for r in report] != [suite]:
        return f"suites {[r.get('suite') for r in report]}, want [{suite!r}]"
    if not report[0].get("cases"):
        return "no cases ran"
    got = sorted((f["case"], f["expected"], f["got"])
                 for f in report[0]["failures"])
    want = sorted(k[1:] for k in KNOWN_VERIFY_FAILURES if k[0] == suite)
    if got != want:
        return f"failures {got}, want exactly {want}"
    if rc != (1 if want else 0):
        return f"exit code {rc}, want {1 if want else 0}"
    return None
