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
  linkage::IncrementalLinker::Config linker_config;
  linker_config.scorer = config_.linker.scorer;
  linker_config.threshold = config_.linker.threshold;
  linker_ = std::make_unique<linkage::IncrementalLinker>(dataset_,
                                                         linker_config);
}

size_t IncrementalIntegrator::Refresh() {
  trace::StageSpan refresh_span("refresh");
  AlignSchema(*dataset_, config_, &report_);

  WallTimer timer;
  size_t comparisons;
  {
    trace::StageSpan span("linkage");
    comparisons = linker_->AddNewRecords();
    span.AddItems(comparisons);
    report_.linkage.clusters = linker_->Clusters();
    report_.linkage.num_candidates += comparisons;
    report_.linkage.num_matches = linker_->num_edges();
  }
  report_.linkage_seconds = timer.ElapsedSeconds();
  refresh_span.AddItems(comparisons);

  ApplyLinkageFeedback(*dataset_, config_, &report_);
  Fuse(*dataset_, config_, /*roles=*/nullptr, &report_);
  return comparisons;
}

}  // namespace bdi::core
