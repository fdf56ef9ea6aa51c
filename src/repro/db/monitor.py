"""The status page: ``status_page(db.stats())``.

A pure renderer of :meth:`~repro.db.database.Database.stats` — the kind
of page an operator of this system would watch: stable memory headroom,
recovery CPU utilisation, log window position, checkpoint backlog,
per-relation residency.  It reads nothing but the dict it is given.
"""

from __future__ import annotations

from repro.common.units import format_bytes, format_seconds


def status_page(stats: dict) -> str:
    clock = stats["clock_seconds"]
    recovery_util = stats["recovery_busy_seconds"] / clock if clock > 0 else 0.0
    shard = stats["shard_id"]
    twopc = stats["twopc"]
    window = stats["log_window"]
    lines = [
        "=== system status " + "=" * 44,
        f"shard               {'standalone' if shard is None else f'node {shard}'}",
        f"simulated time      {format_seconds(clock)}",
        f"transactions        {stats['transactions_committed']} committed / "
        f"{stats['transactions_aborted']} aborted / "
        f"{stats['transactions_active']} active",
        f"2pc                 {twopc['prepares']} prepared / "
        f"{twopc['decisions_logged']} decisions / "
        f"{twopc['in_doubt_committed'] + twopc['in_doubt_aborted']} in-doubt resolved",
        "--- stable memory",
        f"  SLB               {format_bytes(stats['slb_used_bytes'])}"
        f" / {format_bytes(stats['slb_capacity_bytes'])}",
        f"  SLT               {format_bytes(stats['slt_used_bytes'])}"
        f" / {format_bytes(stats['slt_capacity_bytes'])}",
        "--- logging",
        f"  records           {stats['slb_records_written']} written, "
        f"{stats['slt_records_binned']} binned",
        f"  log pages         {stats['log_pages_written']} on disk "
        f"({stats['archive_pages_written']} archive), window "
        f"[{window['start']}, {window['next_lsn']})",
        f"  active bins       {stats['slt_active_bins']}",
    ]
    modes = stats["logging"]
    if modes["mode_commits"]:
        per_mode = ", ".join(
            f"{mode} {count}"
            f" ({modes['log_bytes_per_txn'].get(mode, 0):.0f} B/txn)"
            for mode, count in sorted(modes["mode_commits"].items())
        )
        lines.append(f"  mode commits      {per_mode}")
    if modes["command_seq"]:
        lines.append(
            f"  command log       {modes['live_commands']} live / "
            f"{modes['command_seq']} issued, "
            f"{modes['commands_settled']} settled in "
            f"{modes['sweeps_taken']} sweeps"
        )
    replay = modes["command_replay"]
    if replay is not None:
        lines.append(
            f"  command replay    {replay['commands_replayed']} replayed "
            f"({replay['commands_skipped']} settled) in "
            f"{replay['batches']} batches @ "
            f"{replay['replay_workers']} workers"
        )
    lines += [
        "--- checkpoints",
        f"  taken/deferred    {stats['checkpoints_taken']} / "
        f"{stats['checkpoints_deferred']}",
        f"  queue depth       {stats['checkpoint_queue_depth']}",
        f"  disk slots used   {stats['checkpoint_slots_used']} / "
        f"{stats['checkpoint_slots_total']}",
    ]
    condenser = stats["condenser"]
    if condenser["enabled"]:
        lines.append(
            f"--- condenser        {condenser['pages_condensed']} pages in "
            f"{condenser['slices']} slices, {condenser['publishes']} "
            f"publishes, {condenser['flips_taken']} flips, "
            f"{condenser['log_pages_reclaimed']} log pages reclaimed, "
            f"lag {condenser['max_lag_pages']}"
        )
    lines += [
        "--- processors",
        f"  main CPU          {stats['main_cpu_instructions']:,.0f} instructions",
        f"  recovery CPU      {stats['recovery_cpu_instructions']:,.0f} "
        f"instructions ({recovery_util:.1%} utilised)",
        "--- residency",
        f"  partitions        {stats['resident_partitions']} resident, "
        f"{format_bytes(stats['resident_bytes'])}",
    ]
    for name, info in sorted(stats["residency"].items()):
        lines.append(
            f"    {name:<20} {info['resident']}/{info['partitions']} resident"
            + (f" ({info['missing']} missing)" if info["missing"] else "")
        )
    restart = stats["restart"]
    if restart is not None:
        by_source = ", ".join(
            f"{count} {source}" for source, count in restart["sources"].items() if count
        )
        lines.append(
            f"--- restart          {restart['partitions_recovered']} partitions "
            f"({by_source or 'none yet'}), {restart['pending_partitions']} pending"
        )
    io = stats["transient_io"].values()
    faults = sum(side["read_faults"] + side["write_faults"] for side in io)
    escalations = sum(side["read_escalations"] + side["write_escalations"] for side in io)
    lines.append(
        f"--- transient I/O    {faults} faults, "
        f"{escalations} escalated to media failure"
    )
    lines.append(
        f"--- audit trail      {stats['audit_entries']} entries, "
        f"{stats['audit_pages_flushed']} pages flushed"
    )
    return "\n".join(lines)
