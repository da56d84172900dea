// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Machine-readable run reports: serializes one intset or STAMP run
// (configuration + measurements) as a JSON object, for the bench harnesses'
// --json output and for downstream plotting/regression tooling.
#ifndef SRC_HARNESS_REPORT_H_
#define SRC_HARNESS_REPORT_H_

#include <string>

#include "src/harness/experiment.h"
#include "src/harness/stamp_driver.h"
#include "src/obs/json.h"

namespace harness {

// Writes {"config": {...}, "result": {...}} as one value on `w` (usable as a
// nested object inside a larger document).
void WriteIntsetReport(asfobs::JsonWriter& w, const IntsetConfig& cfg, const IntsetResult& r);
void WriteStampReport(asfobs::JsonWriter& w, const std::string& app, const StampConfig& cfg,
                      const StampResult& r);

// Standalone single-run documents.
std::string IntsetReportJson(const IntsetConfig& cfg, const IntsetResult& r);
std::string StampReportJson(const std::string& app, const StampConfig& cfg,
                            const StampResult& r);

}  // namespace harness

#endif  // SRC_HARNESS_REPORT_H_
