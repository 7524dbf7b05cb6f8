#!/usr/bin/env bash
# A campaign checkpointed by an older source tree resumes under this one.
#
# usage: resume_across_builds.sh BASE_TREE REF_DIR WORK_DIR
#
#   BASE_TREE  a checkout of the older commit; its src/ runs the first leg
#   REF_DIR    an uninterrupted campaign this tree ran with the flags below
#   WORK_DIR   where the cross-build campaign goes (replaced)
#
# The older tree runs the campaign and is SIGKILLed once its first
# checkpoint lands; this tree resumes it.  The resumed campaign must end
# on the reference's RNG fingerprint and trace record count.
set -euo pipefail

tree=$(cd "$(dirname "$0")/../.." && pwd)
base_tree=$(cd "$1" && pwd)
ref=$2
work=$3
flags=(--days 0.3 --base 200 --seed 7 --checkpoint-every 3)

rm -rf "$work"
PYTHONPATH="$base_tree/src" python -m repro run --trace-dir "$work" "${flags[@]}" &
pid=$!
for _ in $(seq 1 300); do
  ls "$work"/checkpoints/ckpt-*.bin >/dev/null 2>&1 && break
  kill -0 "$pid" 2>/dev/null || { echo "base campaign exited before any checkpoint"; exit 1; }
  sleep 0.1
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" || echo "base campaign killed after its first checkpoint"

PYTHONPATH="$tree/src" python -m repro run --trace-dir "$work" "${flags[@]}" --resume
PYTHONPATH="$tree/src" python - "$ref" "$work" <<'PY'
import json
import sys
from pathlib import Path

ref, resumed = (
    json.loads((Path(d) / "health.json").read_text()) for d in sys.argv[1:3]
)
assert resumed["resumed_from_round"] is not None, resumed
for key in ("rng_fingerprint", "trace_records"):
    assert resumed[key] == ref[key], (key, resumed[key], ref[key])
print(
    f"ok: resumed at round {resumed['resumed_from_round']} from the base "
    f"tree's checkpoint; {ref['trace_records']} records, fingerprints equal"
)
PY
