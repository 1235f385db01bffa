"""Regenerate the gate's pinned answers in perfbench/data from the current program.

The pinned files define what a correct answer is, so run this only on a
commit whose output is trusted (the pins in the repository come from the
seed commit), never to make a failing gate pass:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from c2n3.apoly import apoly_substitution, apoly_theorem  # noqa: E402
from c2n3.cli import main as c2n3_main  # noqa: E402
from c2n3.rmpoly import rm_closed, rm_recursive  # noqa: E402

from gate import DATA, digest, summarize  # noqa: E402
from jobs import VERIFY_N, drawable_jobs, job_key  # noqa: E402


def main() -> None:
    digests = {}
    for job in drawable_jobs():
        buf = io.StringIO()
        if c2n3_main(job["argv"], out=buf) != 0:
            raise SystemExit(f"{job['argv']} exited non-zero")
        text = buf.getvalue()
        if not summarize(job, text).get("agree", True):
            raise SystemExit(f"{job['argv']}: routes disagree")
        digests[job_key(job)] = digest(text)
        print(job_key(job), file=sys.stderr)
    rm_small, apoly_small = {}, {}
    for n in VERIFY_N:
        closed = rm_closed(n).poly
        if closed != rm_recursive(n).poly:
            raise SystemExit(f"P_2n routes disagree at n={n}")
        rm_small[str(n)] = closed.to_json_obj()
        theorem = apoly_theorem(n).poly
        if theorem != apoly_substitution(n).poly:
            raise SystemExit(f"A_2n routes disagree at n={n}")
        apoly_small[str(n)] = theorem.to_json_obj()
    DATA.mkdir(exist_ok=True)
    (DATA / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    (DATA / "rm_small.json").write_text(json.dumps(rm_small, sort_keys=True) + "\n")
    (DATA / "apoly_small.json").write_text(json.dumps(apoly_small, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
