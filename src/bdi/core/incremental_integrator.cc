#include "bdi/core/incremental_integrator.h"

#include "bdi/common/logging.h"
#include "bdi/common/timer.h"
#include "bdi/common/trace.h"

namespace bdi::core {

IncrementalIntegrator::IncrementalIntegrator(Dataset* dataset,
                                             const IntegratorConfig& config)
    : dataset_(dataset), config_(config) {
  BDI_CHECK(dataset_ != nullptr && dataset_->num_records() > 0)
      << "IncrementalIntegrator needs a bootstrap corpus";
  // The bootstrap links unbudgeted; budgets are runtime setters.
  config_.linker.comparison_budget = 0.0;
  config_.linker.budget_ms = 0.0;
}

size_t IncrementalIntegrator::Refresh() {
  trace::StageSpan refresh_span("refresh");
  AlignSchema(*dataset_, config_, &report_);

  WallTimer timer;
  size_t comparisons;
  {
    trace::StageSpan span("linkage");
    if (linker_ == nullptr) {
      linker_ = std::make_unique<linkage::Linker>(
          dataset_, config_.linker, /*schema=*/nullptr,
          /*normalizer=*/nullptr, &report_.stats);
    }
    comparisons = linker_->AddNewRecords(&report_.stats);
    span.AddItems(comparisons);
    report_.linkage.clusters = linker_->Clusters();
    report_.linkage.num_candidates = linker_->num_candidates();
    report_.linkage.num_matches = linker_->edges().size();
  }
  report_.linkage_seconds = timer.ElapsedSeconds();
  refresh_span.AddItems(comparisons);

  ApplyLinkageFeedback(*dataset_, config_, &report_);
  Fuse(*dataset_, config_, &linker_->roles(), &report_);
  return comparisons;
}

}  // namespace bdi::core
