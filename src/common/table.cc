// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/common/table.h"

#include <algorithm>
#include <cstdio>

namespace asfcommon {

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::Int(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  return buf;
}

void Table::Print(std::FILE* out) const {
  std::vector<size_t> widths;
  auto widen = [&widths](const std::vector<std::string>& row) {
    if (row.size() > widths.size()) {
      widths.resize(row.size(), 0);
    }
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) {
    widen(r);
  }

  std::fprintf(out, "== %s ==\n", title_.c_str());
  auto print_row = [out, &widths](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      std::fprintf(out, "%-*s  ", static_cast<int>(widths[i]), row[i].c_str());
    }
    std::fprintf(out, "\n");
  };
  if (!header_.empty()) {
    print_row(header_);
    size_t total = 0;
    for (size_t w : widths) {
      total += w + 2;
    }
    for (size_t i = 0; i < total; ++i) {
      std::fputc('-', out);
    }
    std::fputc('\n', out);
  }
  for (const auto& r : rows_) {
    print_row(r);
  }
  std::fputc('\n', out);
}

}  // namespace asfcommon
