#ifndef DEEPSEA_SIM_CLUSTER_H_
#define DEEPSEA_SIM_CLUSTER_H_

#include <cstdint>
#include <vector>

namespace deepsea {

/// Configuration of the simulated shared-nothing cluster. Defaults
/// mirror the paper's testbed (Section 10): 31 worker nodes with 6
/// threads each, HDFS with 128 MB blocks, and writes substantially more
/// expensive than reads (w_write >> w_read, Section 7.2).
struct ClusterConfig {
  int num_workers = 31;
  int map_slots_per_worker = 6;

  double block_bytes = 128.0 * 1024 * 1024;

  /// Fixed per-map-task overhead (JVM spawn, scheduling) in seconds.
  /// This is what makes many-small-files layouts slow (Fig. 6b, E-60).
  double task_startup_seconds = 1.5;

  /// Per-task streaming read rate in bytes/second (a single mapper's
  /// effective throughput including deserialization). High relative to
  /// the per-worker cap so that a handful of tasks already saturates
  /// the cluster: reading half the bytes then takes about half the
  /// time, which is what partition pruning exploits.
  double read_bytes_per_second = 60.0 * 1024 * 1024;
  /// Aggregate cluster read throughput cap *per worker* (disk and CPU
  /// contention across that worker's slots; Hive-era deserialization
  /// keeps this well below raw disk speed).
  double worker_read_bytes_per_second = 20.0 * 1024 * 1024;
  /// Durable HDFS write throughput per worker (3x replication); writes
  /// are much more expensive than reads (Section 7.2).
  double write_bytes_per_second = 4.0 * 1024 * 1024;
  /// Intermediate (temp, single-replica) write rate per worker.
  double temp_write_bytes_per_second = 20.0 * 1024 * 1024;
  /// Cluster-wide shuffle rate in bytes/second per worker.
  double shuffle_bytes_per_second = 30.0 * 1024 * 1024;

  /// Per output file overhead (file-sink open/commit) in seconds; paid
  /// once per fragment when a partitioned view is written.
  double per_file_overhead_seconds = 5.0;

  /// Per input file overhead (split computation, footer reads, NameNode
  /// metadata) in seconds; paid once per file a map phase reads. This
  /// is what fragment merging (Section 11 extension) reduces.
  double file_open_seconds = 0.3;

  /// Fixed per-MR-job latency (job setup, scheduling) in seconds.
  double job_startup_seconds = 5.0;

  int total_map_slots() const { return num_workers * map_slots_per_worker; }
  double cluster_read_bytes_per_second() const {
    return worker_read_bytes_per_second * num_workers;
  }
};

/// Cost primitives of the MapReduce execution model. All returned times
/// are deterministic simulated seconds.
class ClusterModel {
 public:
  explicit ClusterModel(ClusterConfig config = ClusterConfig())
      : cfg_(config) {}

  const ClusterConfig& config() const { return cfg_; }
  ClusterConfig* mutable_config() { return &cfg_; }

  /// Number of map tasks spawned to scan a single file of `bytes`
  /// (one per block, minimum one per non-empty file).
  int64_t MapTasksForFile(double bytes) const;

  /// Total map tasks to scan a set of files.
  int64_t MapTasksForFiles(const std::vector<double>& file_bytes) const;

  /// Seconds for the map phase scanning `file_bytes`, using wave-based
  /// scheduling: ceil(tasks/slots) waves, each wave as long as its
  /// average task (startup + bytes/rate). Small files still pay full
  /// startup per task, modelling the small-files penalty.
  double MapPhaseSeconds(const std::vector<double>& file_bytes) const;

  /// Seconds to shuffle `bytes` across the cluster.
  double ShuffleSeconds(double bytes) const;

  /// Seconds to write `bytes` to HDFS (replicated, durable).
  double WriteSeconds(double bytes) const;

  /// Seconds to write `bytes` as single-replica temp output (the
  /// between-jobs intermediate that ReStore-style systems reuse).
  double TempWriteSeconds(double bytes) const;

  /// Seconds to write a partitioned view of `bytes` total into
  /// `num_fragments` fragment files: HDFS write plus per-file overhead.
  double PartitionedWriteSeconds(double bytes, int64_t num_fragments) const;

 private:
  ClusterConfig cfg_;
};

}  // namespace deepsea

#endif  // DEEPSEA_SIM_CLUSTER_H_
