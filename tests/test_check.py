"""The trusted base: reading and checking a certificate loads no module of
the construction.

``desing.check`` and ``desing.iofmt`` import ``series``, ``poly``,
``fields`` and ``errors`` only.  ``tests/trusted_verify.py`` refuses the
construction modules before anything of ``desing`` loads and verifies
certificates with what is left; the README lists the same modules under
"Trusted base".
"""

import os
import re
import subprocess
import sys

import pytest

from desing.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")
PERFBENCH = os.path.join(ROOT, "perfbench")
SEED_1 = ("node-c1", "node-c2", "node-c3", "chain-k1", "chain-k2",
          "chain-k3", "chain-k4", "chain-k5", "sqrt2-node")
# (Y2, Y1^2) certifies as a short circuit, and Y1*Y2 as one after a
# reduction step
SHORT_CIRCUITS = {
    "y2-y1sq": "[field]\nQ\n[variables]\nbase x\nalgebra Y1 Y2\n[ideal]\n"
               "Y2\nY1^2\n[morphism]\nY1 = 0 + O(x^30)\nY2 = 0 + O(x^30)\n",
    "y1y2": "[field]\nQ\n[variables]\nbase x\nalgebra Y1 Y2\n[ideal]\n"
            "Y1*Y2\n[morphism]\nY1 = O(x^12)\nY2 = O(x^12)\n",
}
LOADED = ("import sys, desing.check, desing.iofmt; print(*sorted("
          "m for m in sys.modules if m.startswith('desing.')))")


def _python(*args):
    """Run python with this checkout's ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """(certificate, ``desing verify`` report) paths of the nine seed-1
    certify problems of the benchmark and the two short circuits."""
    tmp = tmp_path_factory.mktemp("trusted")
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
        files = workloads.certify(1, str(tmp)).files
    finally:
        sys.path.remove(PERFBENCH)
    problems = {name: files[str(tmp / f"{name}.problem")] for name in SEED_1}
    problems.update(SHORT_CIRCUITS)
    out = []
    for name, text in problems.items():
        problem, cert = tmp / f"{name}.problem", tmp / f"{name}.cert"
        problem.write_text(text)
        report = tmp / f"{name}.report"
        assert main(["gnd", "--input", str(problem),
                     "--output", str(cert)]) == 0
        assert main(["verify", "--input", str(cert),
                     "--output", str(report)]) == 0
        out.append((str(cert), str(report)))
    return out


def test_verify_runs_with_the_construction_refused(written):
    # each certificate parses, rebuilds its problem and passes its six
    # checks with groebner, smooth, approx, gnd and cli refused, and the
    # report lines are those of desing verify
    run = _python(os.path.join(TESTS, "trusted_verify.py"),
                  *[path for pair in written for path in pair])
    assert run.returncode == 0, run.stdout + run.stderr
    *lines, loaded = run.stdout.splitlines()
    assert lines == [f"{cert}: six checks pass" for cert, _ in written]
    assert loaded == ("loaded: desing desing.check desing.errors "
                      "desing.fields desing.iofmt desing.poly desing.series")


def test_the_finder_refuses_the_construction():
    run = _python("-c", f"import sys; sys.path.insert(0, {TESTS!r}); "
                  "import trusted_verify; "
                  "sys.meta_path.insert(0, trusted_verify.Refuse()); "
                  "import desing.check, desing.iofmt; import desing.gnd")
    assert run.returncode == 1
    assert "ImportError: import of desing.gnd refused" in run.stderr


def test_the_trusted_verify_reports_a_difference(written, tmp_path):
    # a report that is not desing verify's output is a difference, exit 1
    cert, report = written[0]
    other = tmp_path / "other.report"
    other.write_text(open(report).read().replace("[pass]", "[FAIL]", 1))
    run = _python(os.path.join(TESTS, "trusted_verify.py"), cert, str(other))
    assert run.returncode == 1
    assert run.stdout.splitlines()[0] == f"{cert}: DIFFERS"


def test_readme_lists_the_trusted_base():
    # the README's "Trusted base" list is exactly what the checker and the
    # reader load
    run = _python("-c", LOADED)
    assert run.returncode == 0, run.stderr
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n### Trusted base\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^- `(desing\.\w+)`", section, re.M)
    assert sorted(listed) == run.stdout.split()
