"""Distributed-computing applications of MCDC (paper Sec. III-D and Fig. 1).

The paper motivates MCDC with two distributed-computing use cases:

1. *Data pre-partitioning* — divide a large categorical data set into compact
   multi-granular micro-clusters so a central server can place coherent data
   subsets on compute nodes without destroying local correlation.
2. *Compute-node grouping* — cluster the nodes themselves (described by
   categorical features such as GPU type or memory usage, Fig. 1) into
   performance-consistent groups that can be selected per task.

This package provides the *real* sharded execution runtime — a
pluggable executor API (:mod:`repro.distributed.transport`:
``make_executor`` over a ``"serial"`` / ``"tcp"`` backend registry: one
host's cores in-process, many hosts), the multi-host TCP backend
(:mod:`repro.distributed.rpc` + :mod:`repro.distributed.resilience`:
a ``repro worker`` server plus a fault-tolerant socket coordinator) and
the ``ShardedMGCPL`` / ``ShardedCAME`` / ``ShardedMCDC`` estimator wrappers
(:mod:`repro.distributed.runtime`) — alongside a lightweight simulated
cluster substrate (nodes, workloads, a scheduler, pluggable execution
backends) and the MCDC-guided partitioner with the metrics that quantify
what the pre-partitioning preserves (locality, balance, consistency).
"""

from repro.distributed.node import ComputeNode, NodePool, make_node_pool
from repro.distributed.partitioner import MultiGranularPartitioner, PartitionPlan
from repro.distributed.resilience import ResilientTCPExecutor, RetryPolicy
from repro.distributed.runtime import (
    ShardedCAME,
    ShardedMCDC,
    ShardedMCDCEncoder,
    ShardedMGCPL,
)
from repro.distributed.transport import (
    RemoteWorkerError,
    ShardExecutor,
    TransportError,
    available_backends,
    default_n_shards,
    make_executor,
    register_backend,
    resolve_shard_indices,
)
from repro.distributed.scheduler import GranularityAwareScheduler, RoundRobinScheduler, Task
from repro.distributed.simulation import (
    ExecutionEngine,
    MakespanModel,
    SimulationReport,
    simulate_distributed_execution,
)
from repro.distributed.metrics import intra_partition_similarity, load_balance, node_group_consistency

__all__ = [
    "ComputeNode",
    "NodePool",
    "make_node_pool",
    "MultiGranularPartitioner",
    "PartitionPlan",
    "ShardedMGCPL",
    "ShardedCAME",
    "ShardedMCDC",
    "ShardedMCDCEncoder",
    "ShardExecutor",
    "ResilientTCPExecutor",
    "RetryPolicy",
    "TransportError",
    "RemoteWorkerError",
    "available_backends",
    "make_executor",
    "register_backend",
    "default_n_shards",
    "resolve_shard_indices",
    "GranularityAwareScheduler",
    "RoundRobinScheduler",
    "Task",
    "ExecutionEngine",
    "MakespanModel",
    "simulate_distributed_execution",
    "SimulationReport",
    "intra_partition_similarity",
    "load_balance",
    "node_group_consistency",
]
