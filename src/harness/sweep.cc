// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/harness/sweep.h"

#include <atomic>
#include <thread>

namespace harness {

uint32_t DefaultJobs() {
  uint32_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ParallelFor(uint32_t jobs, size_t n, const std::function<void(size_t)>& fn) {
  if (jobs <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  size_t workers = jobs < n ? jobs : n;
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&]() {
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) {
          return;
        }
        fn(i);
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

SweepRunner::SweepRunner(uint32_t jobs) : jobs_(jobs == 0 ? DefaultJobs() : jobs) {}

size_t SweepRunner::SubmitIntset(const IntsetConfig& cfg) {
  ASF_CHECK_MSG(jobs_ == 1 || (cfg.obs.tracer == nullptr && cfg.obs.tx_sink == nullptr),
                "obs hooks cannot be shared across parallel sweep jobs");
  intset_results_.emplace_back();
  IntsetResult* slot = &intset_results_.back();
  queue_.push_back([cfg, slot]() { *slot = RunIntset(cfg); });
  return intset_results_.size() - 1;
}

size_t SweepRunner::SubmitIntsetOnParams(const IntsetConfig& cfg,
                                         const asf::MachineParams& params) {
  ASF_CHECK_MSG(jobs_ == 1 || (cfg.obs.tracer == nullptr && cfg.obs.tx_sink == nullptr),
                "obs hooks cannot be shared across parallel sweep jobs");
  intset_results_.emplace_back();
  IntsetResult* slot = &intset_results_.back();
  queue_.push_back([cfg, params, slot]() { *slot = RunIntsetOnParams(cfg, params); });
  return intset_results_.size() - 1;
}

size_t SweepRunner::SubmitStamp(const std::string& app_name, const StampConfig& cfg) {
  ASF_CHECK_MSG(jobs_ == 1 || (cfg.obs.tracer == nullptr && cfg.obs.tx_sink == nullptr),
                "obs hooks cannot be shared across parallel sweep jobs");
  stamp_results_.emplace_back();
  StampResult* slot = &stamp_results_.back();
  queue_.push_back([app_name, cfg, slot]() {
    auto app = MakeStampApp(app_name);
    *slot = RunStamp(*app, cfg);
  });
  return stamp_results_.size() - 1;
}

size_t SweepRunner::SubmitStress(const StressConfig& cfg) {
  ASF_CHECK_MSG(jobs_ == 1 ||
                    (cfg.intset.obs.tracer == nullptr && cfg.intset.obs.tx_sink == nullptr),
                "obs hooks cannot be shared across parallel sweep jobs");
  stress_results_.emplace_back();
  StressResult* slot = &stress_results_.back();
  queue_.push_back([cfg, slot]() { *slot = RunStress(cfg); });
  return stress_results_.size() - 1;
}

size_t SweepRunner::Submit(std::function<void()> fn) {
  queue_.push_back(std::move(fn));
  return queue_.size() - 1;
}

void SweepRunner::Run() {
  std::vector<std::function<void()>> batch;
  batch.swap(queue_);
  ParallelFor(jobs_, batch.size(), [&batch](size_t i) { batch[i](); });
}

}  // namespace harness
