/**
 * @file
 * Executor: the engine (engine.h) running one program on a persistent
 * worker pool.
 *
 * Each gate carries a remaining-predecessor count; workers claim ready
 * gates, and retiring a gate decrements its successors' counts, so a gate
 * starts the moment its inputs exist. The pool lives across runs: one
 * Executor per server (or per process) amortizes thread creation over
 * every Run. The wave Schedule (scheduler.h) is the discipline the cluster
 * and GPU simulators model; on local threads it runs only as the
 * benchmarks' Algorithm-1 baseline (bench/bench_util.h).
 */
#ifndef PYTFHE_BACKEND_EXECUTOR_H
#define PYTFHE_BACKEND_EXECUTOR_H

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backend/engine.h"
#include "backend/interpreter.h"
#include "pasm/program.h"

namespace pytfhe::backend {

/**
 * A persistent pool of worker threads that execute "parallel regions":
 * RunOnWorkers(n, fn) runs `fn` on n pool workers plus the calling thread
 * and returns when all participants finish. Workers are created on demand,
 * kept across calls (no per-wave thread churn), and joined on destruction.
 */
class ThreadPool {
  public:
    ThreadPool() = default;
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /**
     * Runs `fn` concurrently on `workers` pool threads and on the calling
     * thread; blocks until every participant has returned. `workers == 0`
     * degenerates to a plain inline call.
     */
    void RunOnWorkers(int32_t workers, const std::function<void()>& fn);

    /** Number of pool threads created so far. */
    int32_t NumWorkers() const;

  private:
    void EnsureWorkersLocked(int32_t n);
    void WorkerLoop();

    std::mutex region_mu_;  ///< Serializes RunOnWorkers callers.
    mutable std::mutex mu_;
    std::condition_variable work_cv_;  ///< Workers wait here for a region.
    std::condition_variable done_cv_;  ///< Caller waits here for completion.
    std::vector<std::thread> threads_;
    const std::function<void()>* job_ = nullptr;
    uint64_t generation_ = 0;  ///< Bumped per region so workers join once.
    int32_t target_ = 0;       ///< Workers wanted for the current region.
    int32_t started_ = 0;
    int32_t finished_ = 0;
    bool shutdown_ = false;
};

namespace detail {

/** The engine with one job: workers run until that job drains. */
template <typename Evaluator>
class OneJobEngine final : public Engine<Evaluator> {
  public:
    using Engine<Evaluator>::Engine;

    void WorkLoop() {
        typename Engine<Evaluator>::Worker w;
        std::unique_lock<std::mutex> lock(this->mu);
        while (!drained_) {
            if (this->ClaimLocked(w)) {
                this->RunClaimLocked(w, lock);
            } else {
                this->work_cv.wait(lock);
            }
        }
    }

  private:
    void OnDrainedLocked(EngineJob<Evaluator>&) override {
        drained_ = true;
        this->work_cv.notify_all();
    }

    bool drained_ = false;
};

}  // namespace detail

/**
 * Reusable program executor: owns a persistent ThreadPool and runs each
 * program as one engine job on it. The evaluator's Apply must be safe to
 * call concurrently.
 */
class Executor {
  public:
    /**
     * Executes `program` on `inputs` with `num_threads` workers (the
     * calling thread included); outputs are bit-identical to RunProgram
     * for every thread count and batch size. Throws std::invalid_argument
     * on an input-count mismatch, num_threads < 1 or batch_size < 1.
     *
     * Cancel and deadline come from `control` and are checked before
     * every gate: once one triggers, the remaining gates drain without
     * touching the evaluator and the call throws CancelledError or
     * DeadlineExceededError. A gate evaluation that throws — a real
     * evaluator error or a fault injected through `fault`, whose (job,
     * attempt) identity it carries — fails the run the same way with the
     * first GateExecutionError. The pool stays healthy either way.
     *
     * batch_size > 1 claims up to that many ready gates at once and fuses
     * the batchable bootstraps into one ApplyBatch call when the
     * evaluator supports it (engine.h).
     *
     * Checkpoints (checkpoint.h): when `store` holds a record that
     * verifies, the run resumes past its cut (level or ordinal); a bad
     * record is cleared and counted. With `checkpoint` enabled and a
     * plan that admits level cuts, level-cut records are captured into
     * `store` as the run goes. `stats` accumulates the counts.
     */
    template <typename Evaluator>
    std::vector<typename Evaluator::Ciphertext> Run(
        const pasm::Program& program, Evaluator& eval,
        const std::vector<typename Evaluator::Ciphertext>& inputs,
        int32_t num_threads, const RunControl& control = {},
        const FaultHook& fault = {}, int32_t batch_size = 1,
        const CheckpointPolicy& checkpoint = {},
        JobCheckpoint* store = nullptr,
        CheckpointRunStats* stats = nullptr) {
        detail::ValidateRunArgs(program, inputs.size(), num_threads);
        if (batch_size < 1)
            throw std::invalid_argument(
                "Executor::Run: batch_size must be >= 1, got " +
                std::to_string(batch_size));
        if (program.NumGates() == 0)
            return RunProgram(program, eval, inputs, control, fault);

        detail::OneJobEngine<Evaluator> engine(batch_size, checkpoint);
        EngineJob<Evaluator> job(program, eval, store, checkpoint);
        job.control = control;
        job.fault = fault;
        // Injected stalls honor this run's cancel/deadline token.
        if (job.fault.control == nullptr) job.fault.control = &job.control;
        {
            std::lock_guard<std::mutex> lock(engine.mu);
            engine.StartAttempt(job, inputs);
            engine.AddRunnableLocked(job);
        }
        const int32_t workers = static_cast<int32_t>(std::min<uint64_t>(
            num_threads - 1, program.NumGates() - 1));
        pool_.RunOnWorkers(workers, [&engine] { engine.WorkLoop(); });

        if (stats) stats->Add(job.ckpt);
        switch (detail::OneJobEngine<Evaluator>::OutcomeOf(job)) {
            case JobStatus::kCancelled: throw CancelledError();
            case JobStatus::kDeadlineExceeded: throw DeadlineExceededError();
            case JobStatus::kFailed: throw *job.failure;
            default: break;
        }
        return job.values.Harvest(program);
    }

    /** The underlying pool, exposed for reuse by other parallel backends. */
    ThreadPool& pool() { return pool_; }

  private:
    ThreadPool pool_;
};

}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_EXECUTOR_H
