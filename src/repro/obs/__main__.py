"""``python -m repro.obs FILE...`` — validate obs artifacts from the shell.

Two modes, both used by CI:

* ``python -m repro.obs RECORD.json ...`` — validate run-record files
  against the schema (every fresh record in ``benchmarks/smoke.py``,
  the serve-smoke teardown).
* ``python -m repro.obs --prom EXPOSITION.txt ...`` — lint Prometheus
  text exposition captured from ``/metrics?format=prometheus``
  (serve-smoke scrape check).

Prefer this entry over ``python -m repro.obs.record`` (which works but
triggers runpy's found-in-sys.modules warning, since the package
__init__ imports the submodule).
"""

import sys
from typing import Optional

from repro.obs.prom import _lint_main
from repro.obs.record import _validator_main


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--prom":
        return _lint_main(argv[1:])
    return _validator_main(argv)


if __name__ == "__main__":
    sys.exit(main())
