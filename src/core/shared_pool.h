#ifndef DEEPSEA_CORE_SHARED_POOL_H_
#define DEEPSEA_CORE_SHARED_POOL_H_

#include <memory>
#include <utility>

#include "catalog/table.h"
#include "core/engine_options.h"
#include "core/pool_manager.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"

namespace deepsea {

/// The infrastructure several tenant engines share: one EngineOptions
/// (a single S_max and cost model governs the whole pool), the cluster
/// and cost estimator the pool charges against, and the PoolManager
/// itself. Construct one SharedPool, then one DeepSeaEngine per tenant
/// over it:
///
///   SharedPool shared(&catalog, options);
///   DeepSeaEngine alice(&catalog, &shared, "alice");
///   DeepSeaEngine bob(&catalog, &shared, "bob");
///
/// The engines may then process queries from different threads; their
/// commits serialize on the pool's internal lock (see PoolManager).
/// The SharedPool and catalog must outlive every engine attached.
class SharedPool {
 public:
  SharedPool(Catalog* catalog, EngineOptions options)
      : options_(std::move(options)),
        cluster_(options_.cluster),
        estimator_(&cluster_, catalog),
        pool_(std::make_unique<PoolManager>(catalog, &options_, &cluster_,
                                            &estimator_)) {}

  SharedPool(const SharedPool&) = delete;
  SharedPool& operator=(const SharedPool&) = delete;

  const EngineOptions& options() const { return options_; }
  PoolManager* pool() { return pool_.get(); }
  const PoolManager& pool() const { return *pool_; }

 private:
  EngineOptions options_;
  ClusterModel cluster_;
  PlanCostEstimator estimator_;
  /// On the heap, like a single-tenant engine's pool: std::mutex has a
  /// trivial destructor, so ThreadSanitizer never sees a pool's commit
  /// mutexes die. A SharedPool rebuilt at a reused stack address would
  /// then merge the lock histories of two pools into false lock-order
  /// cycles; freed heap memory resets them.
  std::unique_ptr<PoolManager> pool_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_SHARED_POOL_H_
