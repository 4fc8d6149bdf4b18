#include "sim/cluster.h"

#include <algorithm>
#include <cmath>

namespace deepsea {

int64_t ClusterModel::MapTasksForFile(double bytes) const {
  if (bytes <= 0.0) return 0;
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(bytes / cfg_.block_bytes)));
}

int64_t ClusterModel::MapTasksForFiles(const std::vector<double>& file_bytes) const {
  int64_t tasks = 0;
  for (double b : file_bytes) tasks += MapTasksForFile(b);
  return tasks;
}

double ClusterModel::MapPhaseSeconds(const std::vector<double>& file_bytes) const {
  const int64_t tasks = MapTasksForFiles(file_bytes);
  if (tasks == 0) return 0.0;
  double total_bytes = 0.0;
  for (double b : file_bytes) total_bytes += std::max(b, 0.0);
  // Scheduling cost: one startup per wave of concurrently running tasks
  // (many small files mean many tasks, hence extra waves and startups).
  const int64_t slots = cfg_.total_map_slots();
  const int64_t waves = (tasks + slots - 1) / slots;
  const double startup = static_cast<double>(waves) * cfg_.task_startup_seconds;
  // I/O cost: parallel bandwidth grows with concurrent tasks but is
  // capped by the cluster's aggregate disk/CPU throughput.
  const int64_t concurrent = std::min(tasks, slots);
  const double bandwidth =
      std::min(static_cast<double>(concurrent) * cfg_.read_bytes_per_second,
               cfg_.cluster_read_bytes_per_second());
  // Per-file open/metadata overhead.
  int64_t files = 0;
  for (double b : file_bytes) {
    if (b > 0.0) ++files;
  }
  return startup + static_cast<double>(files) * cfg_.file_open_seconds +
         total_bytes / bandwidth;
}

double ClusterModel::ShuffleSeconds(double bytes) const {
  if (bytes <= 0.0) return 0.0;
  return bytes / (cfg_.shuffle_bytes_per_second * cfg_.num_workers);
}

double ClusterModel::WriteSeconds(double bytes) const {
  if (bytes <= 0.0) return 0.0;
  return bytes / (cfg_.write_bytes_per_second * cfg_.num_workers);
}

double ClusterModel::TempWriteSeconds(double bytes) const {
  if (bytes <= 0.0) return 0.0;
  return bytes / (cfg_.temp_write_bytes_per_second * cfg_.num_workers);
}

double ClusterModel::PartitionedWriteSeconds(double bytes,
                                             int64_t num_fragments) const {
  return WriteSeconds(bytes) +
         cfg_.per_file_overhead_seconds * static_cast<double>(num_fragments);
}

}  // namespace deepsea
