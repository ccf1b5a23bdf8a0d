"""Fault injection: turning the correct store into a buggy "production DB".

The paper finds real SI violations in Dgraph, MariaDB-Galera, and
YugabyteDB, and reproduces 2477 known anomalies from CockroachDB,
MySQL-Galera, and YugabyteDB releases.  Since those systems are not
available offline, we model each *bug class* as a fault configuration of
our MVCC database (see DESIGN.md, substitution 2):

- ``no_first_committer_wins`` — commit skips write-write conflict
  detection, so concurrent updates silently overwrite each other:
  **lost update** (the MariaDB-Galera finding, Figure 5).
- ``stale_snapshot_prob`` / ``stale_snapshot_depth`` — a transaction may
  start from a snapshot older than its session's previous commit:
  **causality violation** (the Dgraph / YugabyteDB findings, Figures
  12-13).
- ``replicas`` / ``replication_delay`` — asynchronous multi-master
  replication with sessions pinned to replicas; concurrent independent
  writes become visible in different orders on different replicas:
  **long fork** (Figure 3).
- ``read_uncommitted_prob`` — reads may observe in-flight write buffers:
  **aborted reads** (when the writer later aborts) and dirty reads.
- ``intermediate_read_prob`` — reads may observe a non-final write of a
  committed multi-write transaction: **intermediate reads**.
- ``abort_prob`` — spontaneous aborts, to exercise aborted-transaction
  bookkeeping.

``DATABASE_PROFILES`` names the configurations after the systems they
emulate; ``benchmarks/bench_paper.py table2`` regenerates Table 2 from them.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["FaultConfig", "DATABASE_PROFILES"]


class FaultConfig:
    """Bug switches for :class:`repro.storage.database.MVCCDatabase`."""

    __slots__ = (
        "no_first_committer_wins",
        "stale_snapshot_prob",
        "stale_snapshot_depth",
        "replicas",
        "replication_delay",
        "read_uncommitted_prob",
        "intermediate_read_prob",
        "abort_prob",
    )

    def __init__(
        self,
        *,
        no_first_committer_wins: bool = False,
        stale_snapshot_prob: float = 0.0,
        stale_snapshot_depth: int = 4,
        replicas: int = 1,
        replication_delay: int = 0,
        read_uncommitted_prob: float = 0.0,
        intermediate_read_prob: float = 0.0,
        abort_prob: float = 0.0,
    ):
        self.no_first_committer_wins = no_first_committer_wins
        self.stale_snapshot_prob = stale_snapshot_prob
        self.stale_snapshot_depth = stale_snapshot_depth
        self.replicas = replicas
        self.replication_delay = replication_delay
        self.read_uncommitted_prob = read_uncommitted_prob
        self.intermediate_read_prob = intermediate_read_prob
        self.abort_prob = abort_prob

    @property
    def faulty(self) -> bool:
        """True if any correctness-breaking switch is enabled."""
        return (
            self.no_first_committer_wins
            or self.stale_snapshot_prob > 0
            or self.replicas > 1
            or self.read_uncommitted_prob > 0
            or self.intermediate_read_prob > 0
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self.__slots__
            if getattr(self, name)
        )
        return f"FaultConfig({fields})"


#: Named bug profiles standing in for the databases of Table 2.  The
#: expected anomaly class matches what the paper reports for each system.
DATABASE_PROFILES: Dict[str, dict] = {
    "dgraph-sim": {
        "kind": "graph",
        "release": "v21.12.0 (simulated)",
        "expected_anomaly": "causality violation",
        "faults": FaultConfig(stale_snapshot_prob=0.3, stale_snapshot_depth=5),
    },
    "mariadb-galera-sim": {
        "kind": "relational",
        "release": "v10.7.3 (simulated)",
        "expected_anomaly": "lost update",
        "faults": FaultConfig(no_first_committer_wins=True),
    },
    "yugabytedb-sim": {
        "kind": "multi-model",
        "release": "v2.11.1.0 (simulated)",
        "expected_anomaly": "causality violation",
        "faults": FaultConfig(stale_snapshot_prob=0.2, stale_snapshot_depth=3),
    },
    "cockroachdb-sim": {
        "kind": "relational",
        "release": "v2.1.0 (simulated)",
        "expected_anomaly": "long fork",
        "faults": FaultConfig(replicas=2, replication_delay=3),
    },
    "mysql-galera-sim": {
        "kind": "relational",
        "release": "v25.3.26 (simulated)",
        "expected_anomaly": "lost update",
        "faults": FaultConfig(no_first_committer_wins=True, abort_prob=0.05),
    },
}
