/** @file Shared helpers for the figure/table regeneration binaries. */
#ifndef PYTFHE_BENCH_BENCH_UTIL_H
#define PYTFHE_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "backend/cluster_sim.h"
#include "backend/gpu_sim.h"
#include "backend/interpreter.h"
#include "backend/scheduler.h"
#include "core/compiler.h"
#include "vip/registry.h"

namespace pytfhe::bench {

/** Compiles a workload, aborting on failure. */
inline core::Compiled CompileWorkload(const vip::Workload& w) {
    std::string error;
    auto compiled = core::Compile(w.build(), {}, &error);
    if (!compiled) {
        std::fprintf(stderr, "compile of %s failed: %s\n", w.name.c_str(),
                     error.c_str());
        std::abort();
    }
    return std::move(*compiled);
}

/** Single-core runtime estimate (footnote-1 methodology). */
inline double SingleCoreSeconds(const pasm::Program& p) {
    return backend::SingleCoreSeconds(backend::ComputeGateMix(p),
                                      backend::CpuCostModel{});
}

/**
 * The paper's Algorithm 1 on local threads: the BFS schedule's waves run
 * one after another, each on fresh threads with a barrier before the
 * next, so every gate waits for the slowest gate of its level. Kept as
 * the baseline the executor ablation and the fig. 10 footer compare the
 * engine (backend/engine.h) against; programs run in production go
 * through backend::Execute. Plans not flagged level-safe are ignored,
 * since a wave may only reuse slots across a level boundary. A throwing
 * gate stops the remaining waves and rethrows as GateExecutionError after
 * the wave in flight joins.
 */
template <typename Evaluator>
std::vector<typename Evaluator::Ciphertext> RunProgramThreaded(
    const pasm::Program& program, Evaluator& eval,
    const std::vector<typename Evaluator::Ciphertext>& inputs,
    int32_t num_threads) {
    backend::detail::ValidateRunArgs(program, inputs.size(), num_threads);
    if (num_threads == 1) return backend::RunProgram(program, eval, inputs);

    const backend::Schedule schedule = backend::ComputeSchedule(program);
    const uint64_t first_gate = program.FirstGateIndex();
    const pasm::MemoryPlan* plan = program.Plan();
    backend::ValuePlane<Evaluator> plane;
    plane.Reset(program, inputs, plan != nullptr && plan->level_safe);

    std::atomic<bool> failed{false};
    std::mutex error_mu;
    std::optional<backend::GateExecutionError> error;
    for (const auto& wave : schedule.levels) {
        std::atomic<size_t> cursor{0};
        auto worker = [&]() {
            typename backend::detail::WorkerScratchOf<Evaluator>::type
                scratch{};
            while (!failed.load(std::memory_order_relaxed)) {
                const size_t i = cursor.fetch_add(1);
                if (i >= wave.size()) break;
                try {
                    plane.Apply(eval, program, wave[i], scratch);
                } catch (...) {
                    try {
                        backend::RethrowAsGateError(wave[i] - first_gate, 0);
                    } catch (const backend::GateExecutionError& e) {
                        std::lock_guard<std::mutex> lock(error_mu);
                        if (!error) error = e;
                    }
                    failed.store(true, std::memory_order_relaxed);
                }
            }
        };
        if (wave.size() == 1) {
            worker();
        } else {
            std::vector<std::thread> threads;
            const int32_t n = std::min<int32_t>(
                num_threads, static_cast<int32_t>(wave.size()));
            for (int32_t t = 0; t < n; ++t) threads.emplace_back(worker);
            for (auto& t : threads) t.join();
        }
        if (failed.load(std::memory_order_relaxed)) break;
    }
    if (error) throw *error;
    return plane.Harvest(program);
}

inline void PrintRule(int width = 96) {
    for (int i = 0; i < width; ++i) std::putchar('-');
    std::putchar('\n');
}

}  // namespace pytfhe::bench

#endif  // PYTFHE_BENCH_BENCH_UTIL_H
