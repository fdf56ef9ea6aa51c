"""``python -m repro.db.backlog EVENTS.jsonl`` — what the recovery CPU
was doing when the checkpoint queue backed up, and why the last restart
took as long as it did.

Reads the event ring a run wrote (:meth:`repro.db.events.EventRing.write_jsonl`)
and prints the longest stretch in which the checkpoint queue stayed
non-empty: each checkpoint the recovery CPU requested (with its trigger)
and acknowledged and each log page it wrote, each with its running
totals of records sorted and pages flushed, and each image the main CPU
wrote or deferred (with the refusal that deferred it), in simulated-time
order.  Then, if the file holds a restart, the last one: its mode, its
simulated milliseconds, its rebuilds counted and timed by trigger, each
partition rebuilt for a ``touch`` (what the first transactions waited
for) or from the full log ``history``, and each whose rebuild failed.
"""

from __future__ import annotations

import json
import sys
from typing import Iterable

from repro.recovery.restart import TRIGGERS


def backlog(events: Iterable[dict]) -> list[dict]:
    """The events of the longest stretch, in simulated time, in which the
    checkpoint queue stayed non-empty: from the event that left it
    non-empty to the one that left it empty again (or to the end).
    Checkpoint events carry the depth they left (``queue_depth``); restart
    events fall inside whichever stretch they occur in."""
    stretches: list[list[dict]] = []
    current: list[dict] = []
    for entry in events:
        depth = entry.get("queue_depth")
        if current or depth:
            current.append(entry)
        if current and depth == 0:
            stretches.append(current)
            current = []
    if current:
        stretches.append(current)
    return max(stretches, key=lambda s: s[-1]["sim_s"] - s[0]["sim_s"], default=[])


def last_restart(events: list[dict]) -> list[dict]:
    """The events of the last restart, from its ``restart.begin`` to its
    ``restart.recovered`` (or to the end); empty if none began."""
    begins = [n for n, entry in enumerate(events) if entry["event"] == "restart.begin"]
    restart = events[begins[-1] :] if begins else []
    ends = [n for n, entry in enumerate(restart) if entry["event"] == "restart.recovered"]
    return restart[: ends[0] + 1] if ends else restart


def _describe(entry: dict) -> str:
    skip = {"event", "sim_s", "host_s"}
    return " ".join(f"{key}={entry[key]}" for key in sorted(entry) if key not in skip)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m repro.db.backlog EVENTS.jsonl", file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    window = backlog(events)
    if not window:
        print("the checkpoint queue never held a request")
    else:
        peak = max(entry.get("queue_depth", 0) for entry in window)
        print(
            f"checkpoint queue peaked at {peak} between sim {window[0]['sim_s']:.6f} s "
            f"and {window[-1]['sim_s']:.6f} s ({len(window)} events):"
        )
        for entry in window:
            print(f"  {entry['sim_s']:12.6f} s  {entry['event']:<24} {_describe(entry)}")
    restart = last_restart(events)
    if restart:
        begin, end = restart[0], restart[-1]
        until = "recovered" if end["event"] == "restart.recovered" else "the file's end"
        rebuilt = [entry for entry in restart if entry["event"] == "restart.rebuilt"]
        by_trigger = {t: [e for e in rebuilt if e["trigger"] == t] for t in TRIGGERS}
        print(
            f"last restart ({begin['mode']}): {(end['sim_s'] - begin['sim_s']) * 1000:.3f} "
            f"simulated ms to {until}; rebuilds by trigger: "
            + ", ".join(
                f"{trigger} {len(of)} in {sum(e['seconds'] for e in of):.6f} s"
                for trigger, of in by_trigger.items()
            )
        )
        for e in restart:
            if e["event"] == "restart.rebuild-failed":
                print(f"  rebuild failed: {e['address']} ({e['trigger']}): "
                      f"{e['error']}: {e['message']}")
            elif e["event"] == "restart.rebuilt":
                counts = f"{e['address']} ({e['pages_read']} pages, {e['records_applied']} records)"
                if e["trigger"] == "touch":
                    print(f"  touch: {counts}")
                if e["source"] == "history":
                    print(f"  from history: {counts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
