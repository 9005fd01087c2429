"""The pinned census campaigns: each ``search --out`` file must keep its bytes.

Every campaign is ``symsum search ... --profile 1,-1 --profile 1,-2,1
--sporadic-only --out FILE``, run in one fresh interpreter on the checkout's
``src``.  The script compares the sha256 of the ``--out`` file with its pinned
value, then re-checks every record with ``tests/record_checker.py``.  The
header holds the campaign digest but not the path, so a hash does not depend
on the file name.  Run it by hand, from any directory, before a change to the
census engine or the checks behind it:

    python tests/pinned_campaigns.py

It takes about a minute and a half, most of it the k = n = 36 campaign and
its record check.  It exits 1 when a hash differs, a record is bad, or a run
fails.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from record_checker import check_file

ROOT = Path(__file__).resolve().parent.parent
SHARED_FLAGS = ("--profile", "1,-1", "--profile", "1,-2,1", "--sporadic-only")

# (name, search flags, sha256 of the --out file)
CAMPAIGNS = (
    ("k = n = 24", ("--k-max", "24", "--n-max", "24"),
     "afb254ff88bd7a5d6be120065c871ba9799515b4f5e2f617506f4ebd6d373a3c"),
    ("k <= 10, n <= 200", ("--k-max", "10", "--n-max", "200"),
     "c748380ebf03eaba8b5462c88f5ce8d1245620437922b1e45926d80b855177e6"),
    ("k = n = 32", ("--k-max", "32", "--n-max", "32"),
     "f147185b5d5b13f3623e832d9066accc0466b44123bfa5dc24efb4c8a1d4d9d1"),
    ("k = n = 36", ("--k-max", "36", "--n-max", "36"),
     "f6169e027c131e24e1e928aeda29367ef1dcf747e081221d2cbbbcfb52567c20"),
)


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    failures = 0
    with tempfile.TemporaryDirectory(prefix="campaigns-") as tmp:
        for i, (name, flags, want) in enumerate(CAMPAIGNS):
            out = Path(tmp) / f"c{i}.jsonl"
            t0 = time.perf_counter()
            code = subprocess.run(
                [sys.executable, "-m", "symsum", "search", *flags, *SHARED_FLAGS, "--out", str(out)],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL, check=False,
            ).returncode
            seconds = time.perf_counter() - t0
            if code != 0:
                print(f"FAILED   {seconds:6.1f} s  {name}: search exit {code}")
                failures += 1
                continue
            got = hashlib.sha256(out.read_bytes()).hexdigest()
            count, problems = check_file(out)
            for problem in problems:
                print(problem)
            ok = got == want and not problems
            verdict = "ok" if ok else "MISMATCH" if got != want else "BAD"
            print(f"{verdict:8} {seconds:6.1f} s  {name}: sha256 {got[:8]}..., "
                  f"{count} records, {len(problems)} bad", flush=True)
            failures += not ok
            out.unlink()
    print(f"{len(CAMPAIGNS) - failures} of {len(CAMPAIGNS)} campaigns hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
