"""Bisimulate one machine for a step budget, or to its halt, and time it.

    python3 tools/long_proof.py tests/golden/bb5.spec --max-steps 1000000

Runs this checkout's ``src/`` in-process: ``bisimulate`` in dual mode with the
machine's least codec, once. Prints one JSON object with the verdict, the
lockstep steps, the wall seconds, the microseconds per step and the process's
maximum resident set size in MB (``ru_maxrss``, read as KiB as Linux reports
it). Without ``--max-steps`` the proof runs to the halt: the BB(5) champion
halts after 47,176,870 steps, which takes minutes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def prove(text: str, max_steps: int) -> dict:
    import codonmachine as cm

    spec = cm.parse_machine_spec(text)
    t0 = time.perf_counter()
    verdict = cm.bisimulate(spec, max_steps=max_steps)
    seconds = time.perf_counter() - t0
    return {
        "passed": verdict.passed,
        "outcome": verdict.outcome and verdict.outcome.value,
        "steps": verdict.steps,
        "seconds": round(seconds, 3),
        "us_per_step": round(1e6 * seconds / max(verdict.steps, 1), 3),
        "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec", type=Path, help="machine spec file")
    parser.add_argument("--max-steps", type=int, default=sys.maxsize,
                        help="step budget (default: run to the halt)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    result = prove(args.spec.read_text(encoding="utf-8"), args.max_steps)
    print(json.dumps(result))
    return 0 if result["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
