#ifndef BDI_CORE_INCREMENTAL_INTEGRATOR_H_
#define BDI_CORE_INCREMENTAL_INTEGRATOR_H_

#include <memory>

#include "bdi/core/integrator.h"
#include "bdi/linkage/linkage.h"

namespace bdi::core {

/// Incremental end-to-end integration (the velocity research direction the
/// paper calls out): keep an integrated view fresh as crawl batches
/// arrive. Each Refresh() runs the pipeline's shared stages (integrator.h)
/// around one incremental step:
///
///  * linkage is kept by a resident linkage::Linker, whose
///    AddNewRecords() compares only the pairs the arriving records add,
///    with roles detected from the statistics AlignSchema computed;
///  * schema alignment, the linkage feedback step and fusion (claims with
///    the linker's roles, numeric snapping, the configured fusion method)
///    run over the whole corpus on every refresh, exactly as in
///    Integrator::Run.
///
/// With budgets off, the state after any sequence of Refresh() calls
/// equals one Refresh() over the same records, and its linkage equals
/// Linker(dataset, config.linker, nullptr, nullptr).Run(). It differs from
/// Integrator::Run only by the schema features: the batch linker scores
/// with the mediated schema and normalizer, which every refresh realigns,
/// so the resident linker scores without them.
class IncrementalIntegrator {
 public:
  /// `dataset` must outlive the integrator and contain the bootstrap
  /// corpus; Refresh() processes it (and every later append). The linker
  /// is built from `config.linker` at the first Refresh(), unbudgeted;
  /// budgets are set at runtime through linker().
  explicit IncrementalIntegrator(Dataset* dataset,
                                 const IntegratorConfig& config = {});

  IncrementalIntegrator(const IncrementalIntegrator&) = delete;
  IncrementalIntegrator& operator=(const IncrementalIntegrator&) = delete;

  /// Realigns the schema, links all records appended since the last call,
  /// then applies linkage feedback and re-fuses the whole corpus. Returns
  /// pairwise comparisons spent.
  size_t Refresh();

  /// The current integrated view (valid until the next Refresh).
  const IntegrationReport& report() const { return report_; }

  size_t num_integrated_records() const {
    return linker_ == nullptr ? 0 : linker_->num_indexed();
  }

  /// The resident linker (valid after the first Refresh) — the serving
  /// layer adjusts its per-batch budgets (set_comparison_budget /
  /// set_budget_ms) at runtime.
  linkage::Linker& linker() { return *linker_; }

 private:
  Dataset* dataset_;
  IntegratorConfig config_;
  std::unique_ptr<linkage::Linker> linker_;
  IntegrationReport report_;
};

}  // namespace bdi::core

#endif  // BDI_CORE_INCREMENTAL_INTEGRATOR_H_
