// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Small text-table printer used by the benchmark harnesses to emit the rows
// and series the paper's figures and tables report.
#ifndef SRC_COMMON_TABLE_H_
#define SRC_COMMON_TABLE_H_

#include <cstdio>
#include <string>
#include <vector>

namespace asfcommon {

// Accumulates rows of string cells and prints them with aligned columns.
// Bench --json reports carry the same cells for post-processing.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  // Sets the header row.
  void SetHeader(std::vector<std::string> header) { header_ = std::move(header); }

  // Appends a data row; rows may be ragged (shorter than the header).
  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  // Convenience cell formatters.
  static std::string Num(double v, int precision = 2);
  static std::string Int(long long v);

  // Pretty-prints the table to `out` with aligned columns.
  void Print(std::FILE* out = stdout) const;

  const std::string& title() const { return title_; }
  size_t row_count() const { return rows_.size(); }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace asfcommon

#endif  // SRC_COMMON_TABLE_H_
