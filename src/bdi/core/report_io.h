#ifndef BDI_CORE_REPORT_IO_H_
#define BDI_CORE_REPORT_IO_H_

#include <string>

#include "bdi/common/result.h"
#include "bdi/common/status.h"
#include "bdi/core/integrator.h"

namespace bdi::core {

/// Persists the queryable parts of an integration result as three CSV
/// files under `directory` (created by the caller):
///
///   schema.csv   — mediated attribute clusters
///                  (cluster,name,source,attribute)
///   entities.csv — record -> entity-cluster labels (record,entity)
///   fused.csv    — resolved items with confidence
///                  (entity,attribute_cluster,value,confidence)
///
/// Together with the corpus CSV (WriteDatasetCsv) this is enough to
/// rebuild a queryable view without re-running the pipeline.
Status SaveIntegration(const IntegrationReport& report,
                       const Dataset& dataset,
                       const std::string& directory);

/// Reloads a saved integration against the same corpus. The dataset must
/// be the corpus the report was computed from (same interning order, e.g.
/// reloaded from the same CSV); a mismatch is detected via record counts
/// and attribute names where possible.
///
/// The loaded report supports MaterializeEntities and serve::Snapshot::Build;
/// it does not restore internal statistics (stats/normalizer are
/// recomputed).
bdi::Result<IntegrationReport> LoadIntegration(const Dataset& dataset,
                                          const std::string& directory);

}  // namespace bdi::core

#endif  // BDI_CORE_REPORT_IO_H_
