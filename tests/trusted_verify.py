"""Verify certificates with the construction out of reach.

usage: PYTHONPATH=src python tests/trusted_verify.py CERT REPORT [...]

Imports of ``desing.groebner``, ``desing.smooth``, ``desing.approx``,
``desing.gnd`` and ``desing.cli`` are refused before anything of
``desing`` loads.  Each CERT is then read (``iofmt.parse_certificate``),
its problem rebuilt (``check.original_problem``) and its six checks re-run
(``check.verify_certificate``): every check must pass, and the report
lines must equal REPORT, the output of ``desing verify`` on CERT.  Prints
one line per certificate and the ``desing`` modules loaded; exits 1 on a
difference or on a module outside the trusted base, and with an
ImportError on a refused import.
"""

import sys

BLOCKED = frozenset({"desing.groebner", "desing.smooth", "desing.approx",
                     "desing.gnd", "desing.cli"})
TRUSTED = frozenset({"desing", "desing.check", "desing.iofmt",
                     "desing.series", "desing.poly", "desing.fields",
                     "desing.errors"})


class Refuse:
    """A finder that refuses the construction modules, first on
    ``sys.meta_path``."""

    def find_spec(self, name, path=None, target=None):
        if name in BLOCKED:
            raise ImportError(f"import of {name} refused")
        return None


def main(args):
    if not args or len(args) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.meta_path.insert(0, Refuse())
    from desing.check import original_problem, verify_certificate
    from desing.iofmt import parse_certificate

    failed = 0
    for cert_path, report_path in zip(args[::2], args[1::2]):
        with open(cert_path, encoding="utf-8") as fh:
            cert = parse_certificate(fh.read())
        report = verify_certificate(cert, *original_problem(cert))
        with open(report_path, encoding="utf-8") as fh:
            same = fh.read() == "".join(r.line() + "\n" for r in report)
        ok = same and all(r.passed for r in report)
        failed += not ok
        print(f"{cert_path}: {'six checks pass' if ok else 'DIFFERS'}")
    loaded = {name for name in sys.modules
              if name == "desing" or name.startswith("desing.")}
    print("loaded: " + " ".join(sorted(loaded)))
    return 1 if failed or loaded - TRUSTED else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
