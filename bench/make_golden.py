"""Write the asym-mc reference digests (``asym_golden.json``).

The asym-mc workload checks each CLI call's JSON aggregates against the
output of the commit this file was generated at. Regenerate it only on
that commit or one whose deterministic CLI output is byte-identical to it:

    python3 bench/make_golden.py
"""

from __future__ import annotations

import json
import sys

import checks
from run import OUT_DIR, git_sha, import_twrelay
from workloads import GOLDEN_PATH, asym_argv

POOL = 512  # CLI seeds 0..POOL-1


def main() -> int:
    _, modules = import_twrelay()
    out = OUT_DIR / "golden.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    digests = []
    for cli_seed in range(POOL):
        if modules["sim_cli"].main(asym_argv(cli_seed, out)) != 0:
            print(f"CLI seed {cli_seed} failed", file=sys.stderr)
            return 1
        payload = json.loads(out.read_text())
        if any(agg["skipped"] for agg in payload["aggregates"]):
            print(f"CLI seed {cli_seed} dropped a trial", file=sys.stderr)
        digests.append(checks.aggregates_digest(payload["aggregates"]))
    out.unlink()
    GOLDEN_PATH.write_text(json.dumps({
        "commit": git_sha(),
        "argv": asym_argv(0, "OUT"),
        "digests": digests,
    }, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
