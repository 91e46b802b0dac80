#ifndef BDI_CORE_INCREMENTAL_INTEGRATOR_H_
#define BDI_CORE_INCREMENTAL_INTEGRATOR_H_

#include <memory>

#include "bdi/core/integrator.h"
#include "bdi/linkage/incremental.h"

namespace bdi::core {

/// Incremental end-to-end integration (the velocity research direction the
/// paper calls out): keep an integrated view fresh as crawl batches
/// arrive. Each Refresh() runs the pipeline's shared stages (integrator.h)
/// around one incremental step:
///
///  * linkage is maintained by the IncrementalLinker, which compares only
///    the arriving records against their blocking partners;
///  * schema alignment, the linkage feedback step and fusion (claims,
///    numeric snapping, the configured fusion method) run over the whole
///    corpus on every refresh, exactly as in Integrator::Run.
///
/// Because every stage but linkage is recomputed from the corpus and the
/// incremental edge set does not depend on how records were batched, the
/// state after any sequence of Refresh() calls equals one Refresh() over
/// the same records (with budgets off). Linkage differs from a batch run:
/// the linker blocks and scores without the mediated schema, and fusion
/// keeps the claims of name/identifier attributes (Fuse with null roles).
class IncrementalIntegrator {
 public:
  /// `dataset` must outlive the integrator and contain the bootstrap
  /// corpus; Refresh() processes it (and every later append). The linker
  /// takes its scorer and threshold from `config.linker` and starts
  /// unbudgeted; budgets are set at runtime through linker().
  explicit IncrementalIntegrator(Dataset* dataset,
                                 const IntegratorConfig& config = {});

  IncrementalIntegrator(const IncrementalIntegrator&) = delete;
  IncrementalIntegrator& operator=(const IncrementalIntegrator&) = delete;

  /// Links all records appended since the last call, then realigns the
  /// schema, applies linkage feedback and re-fuses the whole corpus.
  /// Returns pairwise comparisons spent.
  size_t Refresh();

  /// The current integrated view (valid until the next Refresh).
  const IntegrationReport& report() const { return report_; }

  size_t num_integrated_records() const { return linker_->num_indexed(); }

  /// The underlying incremental linker — the serving layer adjusts its
  /// per-batch budgets (set_comparison_budget / set_budget_ms) at runtime.
  linkage::IncrementalLinker& linker() { return *linker_; }

 private:
  Dataset* dataset_;
  IntegratorConfig config_;
  std::unique_ptr<linkage::IncrementalLinker> linker_;
  IntegrationReport report_;
};

}  // namespace bdi::core

#endif  // BDI_CORE_INCREMENTAL_INTEGRATOR_H_
