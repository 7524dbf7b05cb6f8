"""Mutation tests: every defect the qa checks exist for fails tier-1.

Each case copies ``src/`` and ``tests/`` into a scratch tree, injects
one defect, and runs the tier-1 tests that guard against it in a
subprocess against the copy: they must fail, and for the right reason
(the failure output names the defect).  The same tests pass on the
pristine copy.  The cases are the historical finds of the whole-program
pass these checks replaced, re-injected, plus its seeded fixtures:

- a counter or a ``Peer`` field the checkpoint leaves out, and
  ``ReportClient`` breaker timing or UDP dedup state missing from its
  own state: the checkpoint round trip;
- a per-channel constants cache that is never rebuilt: the
  invalidation tests (the round trip also runs each restored system past
  the cut, so a lazily rebuilt cache must rebuild to the live values);
- a sleep, or the drain's or port file's fsync, on the ingest service's
  event loop: the ingest tests' loop guard;
- a coroutine called and never awaited: the ``filterwarnings`` errors
  in ``pyproject.toml``;
- a draw from a fresh unseeded ``random.Random()`` passed to a callee:
  ``repro qa src`` (REP001) through its tier-1 gate test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

ROUND_TRIP = "tests/simulator/test_checkpoint_roundtrip.py"
PLAIN_CUT = f"{ROUND_TRIP}::test_restored_system_equals_saved_one[9-plain-]"
CLIENT_CUT = f"{ROUND_TRIP}::test_report_client_store_against_dead_port[]"
DRAIN = "tests/ingest/test_service.py::TestTcpIngestion::test_reports_stored_and_queryable"
PORT_FILE = "tests/ingest/test_service.py::TestTcpIngestion::test_port_file_announces_bound_ports"
GATE = "tests/qa/test_engine.py::TestCli::test_gate_on_repo_src_is_clean"
CONSTS = "tests/simulator/test_consts_invalidation.py::TestInvalidateChannelConsts::test_invalidate_all"
ON_LOOP = "on the event loop thread"


@dataclass(frozen=True)
class Mutation:
    """``edits`` (anchor, replacement) in ``path``; ``tests`` must fail saying ``expect``."""

    path: str
    edits: tuple[tuple[str, str], ...]
    tests: tuple[str, ...]
    expect: str


MUTATIONS = {
    "trace-server-counter": Mutation(
        "src/repro/traces/server.py",
        (
            ("        self.dropped = 0\n", "        self.dropped = 0\n        self.mutant_seen = 0\n"),
            ("        self.received += 1\n", "        self.received += 1\n        self.mutant_seen += 1\n"),
        ),
        (PLAIN_CUT,),
        "mutant_seen",
    ),
    "peer-field-not-pickled": Mutation(
        "src/repro/simulator/peer.py",
        (
            ('        "next_tracker_retry",\n    )', '        "next_tracker_retry",\n        "burst_credit",\n    )'),
            (
                '        self.next_tracker_retry = float("inf")\n',
                '        self.next_tracker_retry = float("inf")\n        self.burst_credit = 0.0\n',
            ),
            (
                "        self.partners.pop(partner_id, None)\n",
                "        self.partners.pop(partner_id, None)\n        self.burst_credit += 1.0\n",
            ),
            ('if name != "partners")', 'if name not in ("partners", "burst_credit"))'),
        ),
        (PLAIN_CUT,),
        "burst_credit",
    ),
    "client-breaker-clock-not-saved": Mutation(
        "src/repro/ingest/client.py",
        (('            "breaker_opened_at": self._breaker_opened_at,\n', ""),),
        (CLIENT_CUT,),
        "_breaker_opened_at",
    ),
    "client-udp-dedup-not-saved": Mutation(
        "src/repro/ingest/client.py",
        (('            "udp_shipped": sorted(self._udp_shipped),\n', ""),),
        (CLIENT_CUT,),
        "_udp_shipped",
    ),
    "channel-consts-not-rebuilt": Mutation(
        # Invalidation keeps the stale entries, so nothing rebuilds them.
        "src/repro/simulator/exchange.py",
        (
            ("            self._channel_consts.clear()\n", "            pass\n"),
            ("            self._channel_consts.pop(channel_id, None)\n", "            pass\n"),
        ),
        (CONSTS,),
        "rate_kbps",
    ),
    "sleep-in-drain": Mutation(
        "src/repro/ingest/service.py",
        (
            ("import asyncio\n", "import asyncio\nimport time\n"),
            ("        await self._queue.put(None)", "        time.sleep(0.0)\n        await self._queue.put(None)"),
        ),
        (DRAIN,),
        "blocking time.sleep()",
    ),
    "coroutine-never-awaited": Mutation(
        "src/repro/ingest/service.py",
        (("        await self._queue.put(None)", "        asyncio.sleep(0)\n        await self._queue.put(None)"),),
        (DRAIN,),
        "was never awaited",
    ),
    "drain-fsync-on-loop": Mutation(
        "src/repro/ingest/service.py",
        (("        await asyncio.to_thread(self.store.close)\n", "        self.store.close()\n"),),
        (DRAIN,),
        ON_LOOP,
    ),
    "port-file-fsync-on-loop": Mutation(
        "src/repro/ingest/service.py",
        (("await asyncio.to_thread(\n                atomic_write_bytes,\n", "atomic_write_bytes(\n"),),
        (PORT_FILE,),
        ON_LOOP,
    ),
    "unseeded-stream-passed": Mutation(
        "src/repro/traces/server.py",
        (
            (
                "from repro.obs.spans",
                "import random\n\n\ndef _mutant_draw(rng):\n    return rng.random()\n\n\n"
                "def _mutant_resample():\n    return _mutant_draw(random.Random())\n\n\n"
                "from repro.obs.spans",
            ),
        ),
        (GATE,),
        "REP001",
    ),
}


def _copy_tree(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(REPO / name, dest / name, ignore=ignore)
    shutil.copy2(REPO / "pyproject.toml", dest / "pyproject.toml")
    return dest


def _run(tree: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess[str]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-o", "addopts=", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_pristine_copy_passes_every_guarding_test(tmp_path):
    tests = sorted({t for m in MUTATIONS.values() for t in m.tests})
    done = _run(_copy_tree(tmp_path), tuple(tests))
    assert done.returncode == 0, done.stdout[-3000:]
    assert f"{len(tests)} passed" in done.stdout


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_injected_defect_fails_tier1(tmp_path, name):
    mutation = MUTATIONS[name]
    tree = _copy_tree(tmp_path)
    target = tree / mutation.path
    text = target.read_text()
    for anchor, replacement in mutation.edits:
        assert anchor in text, f"mutation anchor missing from {mutation.path}: {anchor!r}"
        text = text.replace(anchor, replacement, 1)
    target.write_text(text)
    done = _run(tree, mutation.tests)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output[-3000:]
    assert mutation.expect in output, output[-3000:]
