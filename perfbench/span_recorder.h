#ifndef DEEPSEA_PERFBENCH_SPAN_RECORDER_H_
#define DEEPSEA_PERFBENCH_SPAN_RECORDER_H_

// Per-engine span recorder of the repo benchmark. It sits on the
// EngineObserver seam and timestamps every hook boundary; the caller
// brackets each ProcessQuery call with BeginQuery / EndQuery. From those
// timestamps it builds, per query, a root `query` span and child spans
// that tile it:
//
//   context.enter    ProcessQuery call -> OnQueryStart (shared lock,
//                    QueryContext + PlanningDelta construction)
//   rewrite          OnStageStart/End(kRewrite)
//   candidates       OnStageStart/End(kCandidates)
//   selection        OnStageStart/End(kSelection)
//   commit.wait      end of selection -> start of the next stage (write
//                    footprint, shared-lock release, commit lock
//                    acquisition, read-set validation, clock tick; a
//                    replan adds a second planning round and a second
//                    commit.wait span to the same query)
//   apply            OnStageStart/End(kApply)
//   context.release  end of apply -> ProcessQuery return (totals,
//                    OnQueryEnd, commit release, context teardown)
//
// One recorder per engine thread: hooks of one engine fire on that
// engine's thread (inline materialization), so recording takes no lock.
// Spans are kept in memory and written out after the run.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/engine_observer.h"

namespace deepsea {
namespace perfbench {

enum class SpanKind : uint8_t {
  kQuery = 0,
  kContextEnter,
  kRewrite,
  kCandidates,
  kSelection,
  kCommitWait,
  kApply,
  kContextRelease,
};
inline constexpr int kSpanKinds = 8;

const char* SpanKindName(SpanKind kind);

struct Span {
  int64_t query_id = 0;  ///< shared by the root and its children
  SpanKind kind = SpanKind::kQuery;
  int64_t start_ns = 0;  ///< steady_clock
  int64_t end_ns = 0;
};

class SpanRecorder : public EngineObserver {
 public:
  /// Query ids are `id_base` + the recorder's local query sequence, so
  /// recorders of different engines never share an id. Room for
  /// `queries` queries is reserved up front, so recording does not
  /// reallocate mid-run.
  SpanRecorder(int64_t id_base, size_t queries);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Called immediately before / after each ProcessQuery call.
  void BeginQuery();
  void EndQuery();

  void OnQueryStart(int64_t query_index, const PlanPtr& query,
                    const std::string& tenant) override;
  void OnStageStart(EngineStage stage, const QueryContext& ctx) override;
  void OnStageEnd(EngineStage stage, const QueryContext& ctx,
                  double sim_seconds, double wall_seconds) override;

  const std::vector<Span>& spans() const { return spans_; }
  /// Candidates registered by the candidates stage, summed over queries
  /// (replanned queries count each planning round).
  int64_t view_candidates() const { return view_candidates_; }
  int64_t fragment_candidates() const { return fragment_candidates_; }

 private:
  static int64_t NowNs();
  void Emit(SpanKind kind, int64_t start_ns, int64_t end_ns);

  int64_t next_id_;
  int64_t query_id_ = 0;
  int64_t call_ns_ = 0;
  int64_t stage_start_ns_ = 0;
  /// End of the selection stage while its commit is pending (0 = none).
  int64_t commit_pending_ns_ = 0;
  /// End of the apply stage (0 = not reached yet).
  int64_t apply_end_ns_ = 0;
  int64_t view_candidates_ = 0;
  int64_t fragment_candidates_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
}  // namespace deepsea

#endif  // DEEPSEA_PERFBENCH_SPAN_RECORDER_H_
