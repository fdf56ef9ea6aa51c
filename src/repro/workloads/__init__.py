"""Workload generators for the examples and benchmarks.

* :mod:`repro.workloads.distributions` — deterministic uniform / Zipf
  access-skew generators.
* :mod:`repro.workloads.debit_credit` — Gray's debit/credit workload
  (the paper's reference transaction: about four log records each).
* :mod:`repro.workloads.generator` — a generic mixed-operation driver.
* :mod:`repro.workloads.sharded_bank` — per-shard bank accounts with
  ledgered cross-shard transfers (conservation checkable per shard).
"""

from repro.workloads.distributions import UniformPicker, ZipfPicker
from repro.workloads.debit_credit import DebitCreditWorkload
from repro.workloads.generator import MixedWorkload, OperationMix
from repro.workloads.sharded_bank import ShardedBankWorkload

__all__ = [
    "DebitCreditWorkload",
    "MixedWorkload",
    "OperationMix",
    "ShardedBankWorkload",
    "UniformPicker",
    "ZipfPicker",
]
