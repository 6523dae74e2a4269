/**
 * @file
 * Multi-job serving substrate: many programs interleaved gate-by-gate on
 * one persistent worker pool.
 *
 * A server under load has many small encrypted jobs whose individual
 * dependency chains leave most workers idle (a ripple adder keeps ~1.3
 * threads busy no matter how many it is given). ServingExecutor runs every
 * admitted job on one engine (engine.h), whose workers claim ready gates
 * from all of them, so independent jobs fill each other's pipeline
 * bubbles. The engine does the gate work — claims, chaining, batching,
 * dependency counts, checkpoint capture and resume; this file adds what
 * serving needs on top: admission and tenant quotas, retry with backoff,
 * the degraded sequential attempt, the stall watchdog, and Stop.
 *
 * Scheduling policy, in order:
 *   - Admission: at most `max_active_jobs` jobs execute concurrently;
 *     excess submissions wait in a FIFO queue. Submissions beyond
 *     `max_pending_jobs` (queued + active) are rejected immediately with
 *     the typed OverloadedError — bounded memory, no silent growth.
 *   - Fairness: the engine scans active jobs round-robin and each job
 *     holds at most `per_job_inflight_cap` gates in flight, so one wide
 *     job cannot monopolize the pool while narrow jobs starve.
 *   - Chaining: a worker finishing a one-gate claim runs one newly ready
 *     successor of the same job directly (no queue round-trip), which
 *     preserves the in-flight count it already holds — depth-first within
 *     a job, fair across jobs.
 *
 * Cancellation and deadlines are cooperative at gate granularity (the
 * engine drains a stopping job without evaluating it). Queued jobs check
 * the deadline at admission; there is no timer thread.
 *
 * Fault tolerance (fault.h): a throwing gate evaluation — a real
 * evaluator exception or one injected by ServingOptions::fault_injector —
 * fails only its own job. The first error is latched as a typed
 * GateExecutionError, the job's remaining gates skip-and-drain exactly
 * like a cancellation, and the pool keeps serving every other job. When
 * the failure is transient and ServingOptions::retry allows another
 * attempt, the job is re-queued with exponential backoff (it waits in the
 * queue until its backoff elapses; later submissions may be admitted
 * ahead of it) and re-executed from its retained inputs. The degradation
 * ladder: the final permitted attempt runs isolated on the sequential
 * interpreter instead of the interleaved pool, so a job repeatedly killed
 * by the parallel substrate still gets one clean shot. Jobs that exhaust
 * their attempts (or hit a permanent fault) resolve kFailed and
 * Outputs() rethrows the latched error.
 *
 * Checkpointed execution: with ServingOptions::checkpoint enabled, the
 * engine captures each job's live set at wave-level quiesce points
 * (engine.h), and a retry resumes from the last valid record and
 * re-executes only the gates past the cut; a corrupt record is discarded
 * (counted) and the retry falls back to full re-execution. Jobs that keep
 * dying after resuming are quarantined after max_resume_failures resumed
 * attempts (typed JobQuarantinedError) so a poison job cannot burn pool
 * time forever.
 *
 * Stall watchdog: with stall_timeout_seconds > 0 a dedicated thread
 * compares each active job's progress heartbeat (bumped per processed
 * gate) against the timeout. A stalled job is flagged (jobs_stalled),
 * its in-flight gates are asked to abandon injected stalls early (the
 * abort hint feeds the FaultInjector's cooperative sleep), and the job is
 * preempted at the next gate boundary — retried from its checkpoint like
 * any transient failure, or failed with the typed StalledError once
 * attempts run out.
 */
#ifndef PYTFHE_BACKEND_SERVING_H
#define PYTFHE_BACKEND_SERVING_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "backend/checkpoint.h"
#include "backend/engine.h"
#include "backend/executor.h"
#include "backend/fault.h"
#include "backend/interpreter.h"
#include "circuit/gate_type.h"
#include "pasm/program.h"

namespace pytfhe::backend {

/**
 * Typed admission rejection: queued + active jobs hit the bound. Carries
 * a machine-readable retry-after hint — the queue depth at rejection and
 * an estimate of how long the backlog takes to drain (average completed-
 * job run time x backlog / active slots; 0 until history exists) — so a
 * client can back off proportionally instead of parsing "retry later".
 */
class OverloadedError : public std::runtime_error {
  public:
    OverloadedError(uint32_t queue_depth, double estimated_drain_seconds)
        : std::runtime_error(
              "ServingExecutor: overloaded (" +
              std::to_string(queue_depth) + " jobs pending; estimated " +
              "drain " + std::to_string(estimated_drain_seconds) +
              " s); retry later"),
          queue_depth_(queue_depth),
          estimated_drain_seconds_(estimated_drain_seconds) {}

    /** Jobs pending (queued + active) at rejection time. */
    uint32_t queue_depth() const { return queue_depth_; }
    /** Retry-after hint: estimated seconds until the backlog drains. */
    double estimated_drain_seconds() const {
        return estimated_drain_seconds_;
    }

  private:
    uint32_t queue_depth_;
    double estimated_drain_seconds_;
};

/**
 * Typed admission rejection for ServingOptions::max_job_arena_bytes: the
 * job's ciphertext plane would exceed the per-job arena budget. Unlike
 * OverloadedError this is not transient — resubmitting the same program
 * against the same budget always fails; the client must split the job or
 * the operator must raise the budget.
 */
class ArenaBudgetError : public std::runtime_error {
  public:
    ArenaBudgetError(size_t required_bytes, size_t budget_bytes)
        : std::runtime_error(
              "ServingExecutor: job ciphertext arena needs " +
              std::to_string(required_bytes) + " bytes, budget is " +
              std::to_string(budget_bytes)),
          required_bytes_(required_bytes),
          budget_bytes_(budget_bytes) {}

    size_t required_bytes() const { return required_bytes_; }
    size_t budget_bytes() const { return budget_bytes_; }

  private:
    size_t required_bytes_;
    size_t budget_bytes_;
};

/**
 * A job made no progress for ServingOptions::stall_timeout_seconds and
 * every permitted re-execution also stalled or failed. Thrown by
 * Outputs() of a kFailed job whose terminal attempt was killed by the
 * watchdog without a latched gate error.
 */
class StalledError : public std::runtime_error {
  public:
    StalledError(uint64_t job_seq, double timeout_seconds)
        : std::runtime_error("job " + std::to_string(job_seq) +
                             " stalled (no progress for " +
                             std::to_string(timeout_seconds) +
                             " s) and retries ran out"),
          job_seq_(job_seq),
          timeout_seconds_(timeout_seconds) {}

    uint64_t job_seq() const { return job_seq_; }
    double timeout_seconds() const { return timeout_seconds_; }

  private:
    uint64_t job_seq_;
    double timeout_seconds_;
};

/**
 * Poison-job quarantine: a job kept failing even after resuming from its
 * checkpoint ServingOptions::max_resume_failures times. Retrying further
 * would burn pool time deterministically; the job is failed with this
 * typed error instead.
 */
class JobQuarantinedError : public std::runtime_error {
  public:
    JobQuarantinedError(uint64_t job_seq, uint32_t resume_failures)
        : std::runtime_error("job " + std::to_string(job_seq) +
                             " quarantined after " +
                             std::to_string(resume_failures) +
                             " failed resume(s) from checkpoint"),
          job_seq_(job_seq),
          resume_failures_(resume_failures) {}

    uint64_t job_seq() const { return job_seq_; }
    uint32_t resume_failures() const { return resume_failures_; }

  private:
    uint64_t job_seq_;
    uint32_t resume_failures_;
};

/** Per-job accounting, final once the job reaches a terminal status. */
struct JobMetrics {
    double queue_seconds = 0.0;  ///< Submit -> first active (admission).
    double run_seconds = 0.0;    ///< Admission -> terminal.
    double wall_seconds = 0.0;   ///< Submit -> terminal.
    uint64_t total_gates = 0;    ///< Gates in the program.
    uint64_t gates_executed = 0; ///< Gates actually evaluated.
    uint64_t gates_skipped = 0;  ///< Drained without evaluation.
    /** Executed kLin* gates: bootstraps the elision pass saved this job. */
    uint64_t bootstraps_elided = 0;
    /** Executions of the job: 1 = first attempt succeeded, no retries. */
    uint32_t attempts = 1;
    /** Gate evaluations that threw, across all attempts. */
    uint64_t gate_failures = 0;
    /** True when the final attempt ran on the isolated sequential path. */
    bool degraded_sequential = false;
    /** Wave-boundary snapshots captured across all attempts. */
    uint64_t checkpoints_taken = 0;
    /** Retry attempts that restored a checkpoint instead of starting over. */
    uint64_t checkpoint_resumes = 0;
    /** Gates skipped on resume: work a checkpoint saved this job. */
    uint64_t gates_resumed = 0;
    /** Gates evaluated more than once across attempts (kDone jobs only):
     *  the retry waste checkpointing exists to bound. */
    uint64_t gates_reexecuted = 0;
    /** Times the watchdog flagged this job as making no progress. */
    uint64_t stalls = 0;
    /** True when the job was failed by the poison-job quarantine. */
    bool quarantined = false;
};

/** Serving-wide counters; a consistent snapshot is taken under the lock. */
struct ServingStats {
    uint64_t jobs_submitted = 0;
    uint64_t jobs_completed = 0;
    uint64_t jobs_cancelled = 0;
    uint64_t jobs_deadline_exceeded = 0;
    uint64_t jobs_failed = 0;    ///< Terminal kFailed (retries exhausted).
    uint64_t jobs_rejected = 0;  ///< Backpressure rejections (Overloaded).
    /** Rejections by the per-tenant admission quota (also Overloaded). */
    uint64_t jobs_rejected_tenant_quota = 0;
    uint64_t job_retries = 0;    ///< Re-executions after transient faults.
    uint64_t jobs_degraded = 0;  ///< Final attempts on the sequential path.
    uint64_t gates_executed = 0;
    uint64_t bootstraps_elided = 0;
    double total_queue_seconds = 0.0;
    double total_run_seconds = 0.0;
    uint32_t max_active_observed = 0;  ///< Peak concurrently active jobs.
    // Checkpoint/resume accounting (ServingOptions::checkpoint).
    uint64_t checkpoints_taken = 0;    ///< Wave-boundary snapshots captured.
    uint64_t checkpoint_bytes = 0;     ///< Cumulative captured record bytes.
    uint64_t checkpoint_resumes = 0;   ///< Retries restored from a snapshot.
    /** Records rejected at decode (CRC/fingerprint/structure mismatch). */
    uint64_t checkpoints_corrupt_discarded = 0;
    uint64_t gates_resumed = 0;        ///< Gates resume skipped re-running.
    /** Gates evaluated more than once across attempts of completed jobs:
     *  the re-execution waste the faulted-serving bench reports. */
    uint64_t gates_reexecuted = 0;
    uint64_t jobs_stalled = 0;         ///< Watchdog no-progress flags.
    uint64_t jobs_quarantined = 0;     ///< Poison jobs failed terminally.
};

/** Knobs for one ServingExecutor; all bounds must be >= 1. */
struct ServingOptions {
    int32_t num_workers = 4;
    /** Jobs executing concurrently; the rest queue FIFO. */
    uint32_t max_active_jobs = 8;
    /** Queued + active bound; submissions beyond it throw Overloaded. */
    uint32_t max_pending_jobs = 64;
    /** Fairness cap: gates of one job in flight at once (scaled by the
     *  job's SubmitOptions::weight — a weight-2 tenant holds up to twice
     *  the in-flight gates of a weight-1 tenant under contention). */
    uint32_t per_job_inflight_cap = 4;
    /**
     * Per-tenant admission quota: pending (queued + active) jobs one
     * tenant (SubmitOptions::tenant) may hold; submissions beyond it
     * throw OverloadedError so one tenant cannot fill the whole service
     * queue. 0 = unlimited. Jobs with tenant 0 share one anonymous pool.
     */
    uint32_t max_pending_jobs_per_tenant = 0;
    /**
     * Per-tenant concurrency quota: jobs of one tenant executing at once;
     * excess jobs wait in the queue (FIFO among eligible jobs, exactly
     * like retry backoff) without blocking other tenants' admissions.
     * 0 = unlimited.
     */
    uint32_t max_active_jobs_per_tenant = 0;
    /**
     * Re-execution of jobs killed by transient gate failures. The default
     * (max_attempts 1) fails a job on its first error; with more
     * attempts, inputs are retained per job and the last permitted
     * attempt runs on the isolated sequential path (degradation ladder).
     */
    RetryPolicy retry;
    /**
     * Optional deterministic fault injection applied to every gate of
     * every job (caller-owned, must outlive the executor). Null = no
     * injection, zero overhead beyond one branch per gate.
     */
    FaultInjector* fault_injector = nullptr;
    /**
     * Maximum simultaneously ready gates one worker claims at a time and
     * fuses into one batched bootstrap kernel call (evaluators opt in via
     * ApplyBatch; others claim one gate at a time). Gates are gathered
     * round-robin across active jobs — batching composes with fairness —
     * but only from jobs sharing the first picked job's evaluator, since
     * one batched blind rotation uses one bootstrapping key. Within a job,
     * batch mode serves the ready list FIFO, and a bootstrap the evaluator
     * cannot fuse is claimed alone. Fault injection stays per gate: a
     * faulted gate inside a batch fails only its own job. 1 disables
     * batching.
     */
    int32_t batch_size = 1;
    /**
     * Per-job ciphertext arena budget in bytes: a submission whose value
     * plane (ValuePlane::RequiredBytes — the memory-planned slot count
     * times the ciphertext stride) would exceed this throws the typed
     * ArenaBudgetError at Submit time, before any state is allocated.
     * 0 = unlimited. Memory planning shrinks a job's plane from one slot
     * per instruction to one per peak-live value, so planned programs fit
     * budgets their unplanned forms would blow through.
     */
    size_t max_job_arena_bytes = 0;
    /**
     * Wave-boundary checkpointing (checkpoint.h): every
     * checkpoint.every_n_levels wave levels a job quiesces and its live
     * ciphertext set is snapshotted, so a retry resumes from the cut
     * instead of gate zero. Disabled by default. Requires a level-safe
     * memory plan (or none) and a checkpoint codec for the evaluator's
     * ciphertext type; jobs that qualify for neither simply run
     * uncheckpointed. The degraded sequential attempt checkpoints too
     * (ordinal cuts, via RunProgramCheckpointed).
     */
    CheckpointPolicy checkpoint;
    /**
     * Stall watchdog: a job making no gate progress for this long is
     * flagged stalled, preempted at the next gate boundary (its injected
     * stalls are interrupted cooperatively), and retried from its last
     * checkpoint. 0 disables the watchdog. Choose a timeout comfortably
     * above the slowest legitimate gate — at bootstrap granularity a
     * false positive costs a retry, not a wrong answer.
     */
    double stall_timeout_seconds = 0.0;
    /** Watchdog poll period; 0 derives one from the timeout (~1/4, clamped
     *  to [1 ms, 250 ms]). */
    double stall_poll_seconds = 0.0;
    /**
     * Poison-job quarantine: after this many failed attempts that had
     * resumed from a checkpoint, the job is failed with the typed
     * JobQuarantinedError instead of retried again. 0 disables (plain
     * RetryPolicy::max_attempts still bounds the total attempts).
     */
    uint32_t max_resume_failures = 0;
};

/**
 * The multi-job scheduler. One instance per service; workers are the
 * persistent pool of a caller-owned Executor (the executor must outlive
 * this object, and its pool is occupied for this object's whole lifetime).
 * Evaluators passed to Submit must be safe to call concurrently and must
 * outlive their jobs — a serving registry typically owns one evaluator per
 * tenant key.
 *
 * Thread-safety: Submit, Stop, stats and every Job method may be called
 * from any thread.
 */
template <typename Evaluator>
class ServingExecutor {
  public:
    using Ciphertext = typename Evaluator::Ciphertext;

    /** Per-submission options (service-wide knobs live in ServingOptions). */
    struct SubmitOptions {
        /** Absolute wall deadline; time_point::max() = none. */
        std::chrono::steady_clock::time_point deadline =
            std::chrono::steady_clock::time_point::max();
        /**
         * Tenant identity for the per-tenant quotas (a serving registry
         * passes the KeyId value). 0 = anonymous; anonymous jobs share
         * one quota pool.
         */
        uint64_t tenant = 0;
        /**
         * Fairness weight: scales this job's share of the in-flight gate
         * cap (per_job_inflight_cap * weight). Clamped to >= 1.
         */
        uint32_t weight = 1;
        /**
         * Opaque lifetime token held by the job until it is destroyed.
         * A serving registry pins the evaluator's owning entry here so a
         * key-cache eviction cannot free key material under an in-flight
         * job — the evaluator passed to Submit must stay alive while any
         * job references it, and this is how the registry guarantees it.
         */
        std::shared_ptr<void> pin;
    };

    class Job;

  private:
    using Clock = std::chrono::steady_clock;
    using JobPtr = std::shared_ptr<Job>;
    using GateJob = EngineJob<Evaluator>;

    /**
     * The engine plus everything serving adds, under the engine's one
     * mutex. Shared-ptr-owned so a Job handle outliving the
     * ServingExecutor keeps the synchronization primitives its methods
     * lock alive.
     */
    struct Core final : Engine<Evaluator> {
        explicit Core(ServingOptions o)
            : Engine<Evaluator>(o.batch_size, o.checkpoint), opts(o) {}

        const ServingOptions opts;

        std::condition_variable watchdog_cv;  ///< Wakes the stall watchdog.
        std::vector<JobPtr> active;
        std::deque<JobPtr> queued;
        /** Active degraded attempts not yet claimed by a worker. */
        std::deque<JobPtr> sequential;
        ServingStats stats;

        /** Live per-tenant job counts, for the admission quotas. */
        struct TenantLoad {
            uint32_t pending = 0;  ///< Queued + active jobs.
            uint32_t active = 0;   ///< Jobs in the active set.
        };
        std::map<uint64_t, TenantLoad> tenant_load;

        /**
         * Drops one of the tenant's `pending` (the job left the system)
         * or `active` (it left the active set) counts.
         */
        void TenantReleaseLocked(uint64_t tenant,
                                 uint32_t TenantLoad::*count) {
            auto it = tenant_load.find(tenant);
            if (it == tenant_load.end()) return;
            if (it->second.*count > 0) --(it->second.*count);
            if (it->second.pending == 0 && it->second.active == 0)
                tenant_load.erase(it);
        }

        /** True when the tenant may occupy another active slot. */
        bool TenantMayActivateLocked(uint64_t tenant) const {
            if (opts.max_active_jobs_per_tenant == 0) return true;
            auto it = tenant_load.find(tenant);
            return it == tenant_load.end() ||
                   it->second.active < opts.max_active_jobs_per_tenant;
        }

        /**
         * Terminal transition: fills metrics, harvests outputs on kDone,
         * updates stats, wakes waiters. Container removal is the caller's
         * job (the job may live in `queued` or `active`).
         */
        void FinishLocked(Job& job, JobStatus status) {
            const Clock::time_point end = Clock::now();
            job.status = status;
            job.metrics.total_gates = job.program->NumGates();
            job.metrics.wall_seconds = Seconds(job.submit_time, end);
            if (job.started) {
                job.metrics.queue_seconds =
                    Seconds(job.submit_time, job.start_time);
                job.metrics.run_seconds = Seconds(job.start_time, end);
            } else {
                job.metrics.queue_seconds = job.metrics.wall_seconds;
            }
            job.metrics.gates_executed = job.gates_executed;
            job.metrics.gates_skipped = job.gates_skipped;
            job.metrics.bootstraps_elided = job.linear_executed;
            job.metrics.attempts = job.fault.attempt + 1;
            job.metrics.gate_failures = job.gate_failures;
            job.metrics.degraded_sequential = job.run_sequential;
            job.metrics.checkpoints_taken = job.ckpt.checkpoints_taken;
            job.metrics.checkpoint_resumes = job.ckpt.resumes;
            job.metrics.gates_resumed = job.ckpt.gates_resumed;
            job.metrics.stalls = job.stall_count;
            job.metrics.quarantined = job.quarantined;
            if (status == JobStatus::kDone) {
                // Re-execution waste: every evaluation beyond the one the
                // program needed was retry work a checkpoint could have
                // saved. gates_executed accumulates across attempts and a
                // resume skips its covered prefix, so the difference is
                // exact (and provably non-negative for completed jobs).
                const uint64_t n = job.program->NumGates();
                job.metrics.gates_reexecuted =
                    job.gates_executed > n ? job.gates_executed - n : 0;
                stats.gates_reexecuted += job.metrics.gates_reexecuted;
                // The sequential degraded path harvests its own outputs.
                if (job.outputs.empty())
                    job.outputs = job.values.Harvest(*job.program);
                ++stats.jobs_completed;
            } else if (status == JobStatus::kCancelled) {
                ++stats.jobs_cancelled;
            } else if (status == JobStatus::kFailed) {
                ++stats.jobs_failed;
            } else {
                ++stats.jobs_deadline_exceeded;
            }
            stats.gates_executed += job.gates_executed;
            stats.bootstraps_elided += job.linear_executed;
            stats.total_queue_seconds += job.metrics.queue_seconds;
            stats.total_run_seconds += job.metrics.run_seconds;
            TenantReleaseLocked(job.tenant, &TenantLoad::pending);
            job.done_cv.notify_all();
            // Wakes idle workers so shutdown drain can complete, and lets
            // a blocked Submit-side admission happen below via AdmitLocked.
            this->work_cv.notify_all();
        }

        /**
         * Moves queued jobs into active slots while capacity allows.
         * Jobs whose retry backoff has not elapsed (eligible_at in the
         * future) or whose tenant is at its concurrency quota are skipped
         * in place — FIFO among eligible jobs, so a backing-off retry or
         * a throttled tenant never blocks fresh admissions behind it.
         */
        void AdmitLocked() {
            const Clock::time_point now = Clock::now();
            // Expired deadlines fail promptly even when every active slot
            // is taken or the job is parked in retry backoff: neither a
            // full service nor an unelapsed backoff extends a deadline.
            for (size_t i = 0; i < queued.size();) {
                if (now >= queued[i]->control.deadline) {
                    JobPtr job = std::move(queued[i]);
                    queued.erase(queued.begin() + i);
                    FinishLocked(*job, JobStatus::kDeadlineExceeded);
                    continue;
                }
                ++i;
            }
            size_t i = 0;
            while (active.size() < opts.max_active_jobs &&
                   i < queued.size()) {
                if (now < queued[i]->eligible_at ||
                    !TenantMayActivateLocked(queued[i]->tenant)) {
                    ++i;
                    continue;
                }
                // A queued job is never cancelled (Cancel and Stop finish
                // queued jobs on the spot) and its deadline was checked
                // above.
                JobPtr job = std::move(queued[i]);
                queued.erase(queued.begin() + i);
                if (!job->started) {
                    job->started = true;
                    job->start_time = Clock::now();
                }
                // Fresh watchdog lease on (re)activation: queue time is
                // not a stall.
                job->watchdog_mark = Clock::now();
                job->watchdog_epoch = job->progress_epoch;
                job->status = JobStatus::kRunning;
                ++tenant_load[job->tenant].active;
                if (job->run_sequential) {
                    sequential.push_back(job);
                } else {
                    this->AddRunnableLocked(*job);
                }
                active.push_back(std::move(job));
                stats.max_active_observed =
                    std::max(stats.max_active_observed,
                             static_cast<uint32_t>(active.size()));
                this->work_cv.notify_all();
            }
        }

        /**
         * Earliest instant time alone could change a queued job's fate —
         * a retry backoff elapsing (job becomes admittable) or a deadline
         * expiring (job must fail) — for the worker idle wait.
         * time_point::max() when neither applies (a plain cv wait
         * suffices — any state change notifies). Tenant-quota-blocked
         * jobs contribute only their deadline: time does not unblock
         * them, the finishing job's notify_all does.
         */
        Clock::time_point NextEligibleLocked() const {
            Clock::time_point next = Clock::time_point::max();
            // Queued deadlines bound the idle wait even when no active
            // slot is free: a job whose deadline expires while parked
            // (backoff, full service, tenant quota) must fail at the
            // deadline, not whenever a slot happens to open.
            for (const JobPtr& job : queued)
                next = std::min(next, job->control.deadline);
            if (active.size() >= opts.max_active_jobs) return next;
            for (const JobPtr& job : queued) {
                if (!TenantMayActivateLocked(job->tenant)) continue;
                next = std::min(next, job->eligible_at);
            }
            return next;
        }

        /** A job's attempt drained on the engine: resolve it. */
        void OnDrainedLocked(GateJob& gate_job) override {
            Job& job = static_cast<Job&>(gate_job);
            const JobStatus status = this->OutcomeOf(job);
            if (status == JobStatus::kFailed) {
                ResolveFailureLocked(job);
            } else {
                FinishActiveLocked(job, status);
            }
        }

        /**
         * Terminal resolution of a job whose attempt failed: retry
         * (possibly resuming from checkpoint), quarantine, or fail. A
         * watchdog preemption without a latched gate error counts as
         * transient — the next attempt may well progress. Quarantine
         * fires when resumed attempts keep dying: at that point the
         * checkpoint is not helping and the job is deterministically
         * burning pool time.
         */
        void ResolveFailureLocked(Job& job) {
            const bool stalled = job.stalled_attempt && !job.failure;
            const bool transient =
                (job.failure && job.failure->transient()) || stalled;
            const bool poisoned =
                opts.max_resume_failures > 0 && job.resumed_attempt &&
                job.resume_failures + 1 >= opts.max_resume_failures;
            if (job.resumed_attempt) ++job.resume_failures;
            if (transient && !poisoned && !this->shutdown &&
                job.fault.attempt + 1 < opts.retry.max_attempts) {
                RequeueForRetryLocked(job);
                return;
            }
            if (poisoned) {
                job.quarantined = true;
                ++stats.jobs_quarantined;
                job.terminal_error = std::make_exception_ptr(
                    JobQuarantinedError(job.fault.job, job.resume_failures));
            } else if (stalled) {
                job.terminal_error = std::make_exception_ptr(StalledError(
                    job.fault.job, opts.stall_timeout_seconds));
            }
            FinishActiveLocked(job, JobStatus::kFailed);
        }

        /**
         * Re-queues a failed job for another attempt: moves it out of
         * `active`, restarts it on the engine from the retained inputs
         * (resuming from the last valid checkpoint when there is one, so
         * only the gates past the cut re-execute), and stamps the backoff
         * eligibility time. On the last permitted attempt the job is
         * flagged run_sequential instead — the degradation ladder's
         * isolated clean shot.
         */
        void RequeueForRetryLocked(Job& job) {
            JobPtr self = TakeActiveLocked(job);
            ++stats.job_retries;
            ++job.fault.attempt;
            job.abort_hint.store(false, std::memory_order_relaxed);
            job.failure.reset();
            job.stalled_attempt = false;
            job.resumed_attempt = false;
            job.status = JobStatus::kQueued;
            if (job.fault.attempt + 1 >= opts.retry.max_attempts) {
                job.run_sequential = true;
                ++stats.jobs_degraded;
            } else {
                // The plane keeps its slab, so a retry re-seeds the inputs
                // without reallocating. No gate of this job is in flight
                // (it drained under the lock), so the resets are ordered
                // before any future reader.
                this->StartAttempt(job, job.inputs);
            }
            const double backoff =
                opts.retry.BackoffSeconds(job.fault.job, job.fault.attempt);
            job.eligible_at =
                backoff > 0.0
                    ? Clock::now() +
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(backoff))
                    : Clock::time_point::min();
            queued.push_back(std::move(self));
            AdmitLocked();
            this->work_cv.notify_all();
        }

        /** Removes `job` from `active` and from its tenant's active count. */
        JobPtr TakeActiveLocked(Job& job) {
            TenantReleaseLocked(job.tenant, &TenantLoad::active);
            auto it = std::find_if(
                active.begin(), active.end(),
                [&](const JobPtr& a) { return a.get() == &job; });
            JobPtr self = std::move(*it);
            active.erase(it);
            return self;
        }

        /** Finishes an active job and admits successors. */
        void FinishActiveLocked(Job& job, JobStatus status) {
            const JobPtr self = TakeActiveLocked(job);
            FinishLocked(job, status);
            AdmitLocked();
        }

        static double Seconds(Clock::time_point a, Clock::time_point b) {
            return std::chrono::duration<double>(b - a).count();
        }

        /**
         * The stall watchdog (its own thread, started only when
         * stall_timeout_seconds > 0): compares each active job's progress
         * heartbeat — bumped once per retired gate — against the last
         * observation. A job whose heartbeat has not moved for the
         * timeout is flagged stalled and preempted like a transient
         * failure: fail_requested drains its remaining gates, the abort
         * hint interrupts injected stalls cooperatively (the stalled
         * worker sheds its sleep at the next 1 ms slice), and terminal
         * resolution retries from the last checkpoint. run_sequential
         * jobs are exempt — the isolated final attempt emits no gate
         * heartbeats and must be left to finish.
         */
        void WatchdogLoop() {
            const double timeout = opts.stall_timeout_seconds;
            double poll = opts.stall_poll_seconds;
            if (poll <= 0.0)
                poll = std::min(0.250, std::max(0.001, timeout / 4.0));
            const auto poll_for = std::chrono::duration_cast<
                Clock::duration>(std::chrono::duration<double>(poll));
            std::unique_lock<std::mutex> lock(this->mu);
            while (!this->shutdown) {
                watchdog_cv.wait_for(lock, poll_for);
                if (this->shutdown) return;
                const Clock::time_point now = Clock::now();
                for (const JobPtr& jp : active) {
                    Job& job = *jp;
                    if (job.run_sequential) continue;
                    if (job.progress_epoch != job.watchdog_epoch) {
                        job.watchdog_epoch = job.progress_epoch;
                        job.watchdog_mark = now;
                        continue;
                    }
                    if (Seconds(job.watchdog_mark, now) < timeout)
                        continue;
                    job.stalled_attempt = true;
                    ++job.stall_count;
                    ++stats.jobs_stalled;
                    job.fail_requested.store(true,
                                             std::memory_order_relaxed);
                    job.abort_hint.store(true, std::memory_order_relaxed);
                    job.watchdog_mark = now;
                    this->ReleaseBarrierLocked(job);
                    this->work_cv.notify_all();
                }
            }
        }

        /**
         * One worker of the shared pool: admit, run a degraded attempt if
         * one waits, else claim gates from the engine and run them.
         */
        void WorkerLoop() {
            typename Engine<Evaluator>::Worker w;
            std::unique_lock<std::mutex> lock(this->mu);
            while (true) {
                // Backoff expiries do not generate notifications, so idle
                // workers re-scan the queue and sleep only until the next
                // job becomes eligible.
                if (!queued.empty()) AdmitLocked();
                if (!sequential.empty()) {
                    JobPtr job = std::move(sequential.front());
                    sequential.pop_front();
                    RunSequentialJob(*job, lock);
                    continue;
                }
                if (this->ClaimLocked(w)) {
                    this->RunClaimLocked(w, lock);
                    continue;
                }
                if (this->shutdown && active.empty() && queued.empty())
                    return;
                const Clock::time_point next = NextEligibleLocked();
                if (next == Clock::time_point::max()) {
                    this->work_cv.wait(lock);
                } else {
                    this->work_cv.wait_until(lock, next);
                }
            }
        }

        /**
         * Degraded final attempt: the whole program on the isolated
         * sequential interpreter, from the retained inputs. Cooperative
         * cancel/deadline still apply (RunControl); a throw here is final
         * — by construction this is the last permitted attempt.
         */
        void RunSequentialJob(Job& job, std::unique_lock<std::mutex>& lock) {
            lock.unlock();
            JobStatus status = JobStatus::kDone;
            std::optional<GateExecutionError> caught;
            std::vector<Ciphertext> outs;
            CheckpointRunStats cstats;
            try {
                // Touching job.checkpoint unlocked is safe: a degraded
                // attempt is claimed whole, so this worker is the only
                // actor on the job until it re-locks.
                outs = RunProgramCheckpointed(
                    *job.program, *job.eval, job.inputs, opts.checkpoint,
                    &job.checkpoint, job.control, job.fault, &cstats);
            } catch (const CancelledError&) {
                status = JobStatus::kCancelled;
            } catch (const DeadlineExceededError&) {
                status = JobStatus::kDeadlineExceeded;
            } catch (const GateExecutionError& e) {
                status = JobStatus::kFailed;
                caught = e;
            }
            lock.lock();
            this->NoteCheckpointLocked(job, cstats);
            if (cstats.resumes > 0) job.resumed_attempt = true;
            if (status == JobStatus::kDone) {
                job.gates_executed +=
                    job.program->NumGates() - cstats.gates_resumed;
                const uint64_t first = job.deps.first_gate;
                for (uint64_t idx = first;
                     idx < first + job.program->NumGates(); ++idx)
                    if (circuit::IsLinearGate(job.program->GateAt(idx).type))
                        ++job.linear_executed;
                job.outputs = std::move(outs);
            } else {
                job.gates_skipped += job.program->NumGates();
                if (caught) {
                    ++job.gate_failures;
                    job.failure = std::move(caught);
                }
            }
            FinishActiveLocked(job, status);
        }
    };

  public:
    /**
     * A future-like handle to one submitted job. Copies of the shared_ptr
     * returned by Submit stay valid after the ServingExecutor is gone
     * (every job is terminal by then — Stop cancels stragglers).
     */
    class Job : private EngineJob<Evaluator> {
      public:
        /** Blocks until the job is terminal; returns the terminal status. */
        JobStatus Wait() {
            std::unique_lock<std::mutex> lock(core_->mu);
            done_cv.wait(lock, [&] { return IsTerminal(status); });
            return status;
        }

        /** Non-blocking: terminal status, or nullopt while in progress. */
        std::optional<JobStatus> TryGet() const {
            std::lock_guard<std::mutex> lock(core_->mu);
            if (!IsTerminal(status)) return std::nullopt;
            return status;
        }

        /**
         * Requests cancellation. Returns true if the request landed before
         * the job finished (the job will terminate kCancelled — instantly
         * when still queued, after its in-flight gates drain when
         * running); false if the job was already terminal.
         */
        bool Cancel() {
            std::lock_guard<std::mutex> lock(core_->mu);
            if (IsTerminal(status)) return false;
            cancel_requested.store(true, std::memory_order_relaxed);
            if (status == JobStatus::kQueued) {
                for (size_t i = 0; i < core_->queued.size(); ++i) {
                    if (core_->queued[i].get() == this) {
                        JobPtr self = std::move(core_->queued[i]);
                        core_->queued.erase(core_->queued.begin() + i);
                        core_->FinishLocked(*self, JobStatus::kCancelled);
                        break;
                    }
                }
            } else {
                // Shed injected stalls and release held-back gates so the
                // cancelled job drains promptly.
                abort_hint.store(true, std::memory_order_relaxed);
                core_->ReleaseBarrierLocked(*this);
                core_->work_cv.notify_all();
            }
            return true;
        }

        /**
         * Result ciphertexts, one per program output. Blocks like Wait;
         * throws CancelledError / DeadlineExceededError /
         * GateExecutionError if the job ended without producing outputs.
         */
        const std::vector<Ciphertext>& Outputs() {
            switch (Wait()) {
                case JobStatus::kCancelled: throw CancelledError();
                case JobStatus::kDeadlineExceeded:
                    throw DeadlineExceededError();
                case JobStatus::kFailed: {
                    std::lock_guard<std::mutex> lock(core_->mu);
                    // A typed terminal cause (StalledError,
                    // JobQuarantinedError) outranks the latched gate
                    // error: it names why retrying stopped.
                    if (terminal_error)
                        std::rethrow_exception(terminal_error);
                    throw this->failure ? *this->failure
                                        : GateExecutionError(
                                              0, 0, "job failed", false);
                }
                default: break;
            }
            return outputs;
        }

        /**
         * The latched gate error of a kFailed job; nullopt for every other
         * terminal status. Blocks until the job is terminal.
         */
        std::optional<GateExecutionError> Error() {
            (void)Wait();
            std::lock_guard<std::mutex> lock(core_->mu);
            return this->failure;
        }

        /** Final accounting; blocks until the job is terminal. */
        JobMetrics Metrics() {
            (void)Wait();
            std::lock_guard<std::mutex> lock(core_->mu);
            return metrics;
        }

      private:
        friend class ServingExecutor;
        friend struct Core;

        Job(std::shared_ptr<Core> core,
            std::shared_ptr<const pasm::Program> p, Evaluator* e,
            const SubmitOptions& so)
            : EngineJob<Evaluator>(*p, *e, &checkpoint, core->policy),
              core_(std::move(core)),
              owned_program(std::move(p)),
              submit_time(Clock::now()),
              tenant(so.tenant),
              pin(so.pin) {
            this->control.cancel = &cancel_requested;
            this->control.deadline = so.deadline;
            // Injected stalls shed early once the job is being abandoned
            // (cancel, watchdog preemption, Stop) or its deadline passes.
            stall_control.cancel = &abort_hint;
            stall_control.deadline = so.deadline;
            // The fault identity's job id is the submission ordinal, set
            // at Submit; it also keys the retry jitter.
            this->fault =
                FaultHook{core_->opts.fault_injector, 0, 0, &stall_control};
            this->inflight_cap = core_->opts.per_job_inflight_cap *
                                 std::max<uint32_t>(so.weight, 1);
        }

        const std::shared_ptr<Core> core_;

        // Immutable after construction.
        const std::shared_ptr<const pasm::Program> owned_program;
        const Clock::time_point submit_time;
        const uint64_t tenant;  ///< Quota bucket (0 = anonymous pool).
        /** Opaque lifetime token (SubmitOptions::pin): keeps the
         *  evaluator's owning entry alive for the job's whole life. */
        const std::shared_ptr<void> pin;

        std::atomic<bool> cancel_requested{false};
        /**
         * Union interrupt hint for cooperative injected-stall sleeps:
         * raised by Cancel(), the watchdog's stall preemption, and Stop;
         * cleared when the job is requeued for another attempt. Never
         * causes a typed abort by itself — it only shortens sleeps.
         */
        std::atomic<bool> abort_hint{false};
        RunControl stall_control;

        // Guarded by core_->mu.
        JobStatus status = JobStatus::kQueued;
        bool started = false;
        Clock::time_point start_time{};
        std::vector<Ciphertext> outputs;
        JobMetrics metrics;
        std::condition_variable done_cv;
        // Fault-tolerance state (guarded by core_->mu).
        /** Retained submission inputs when retries are enabled. */
        std::vector<Ciphertext> inputs;
        /** Backoff gate: AdmitLocked skips the job until this instant. */
        Clock::time_point eligible_at = Clock::time_point::min();
        bool run_sequential = false;  ///< Final attempt, isolated path.
        JobCheckpoint checkpoint;      ///< Last captured framed record.
        uint32_t resume_failures = 0;  ///< Failed resumed attempts.
        bool quarantined = false;

        // Watchdog state (guarded by core_->mu).
        uint64_t watchdog_epoch = 0;   ///< Last epoch the watchdog saw.
        Clock::time_point watchdog_mark{};  ///< When it saw it.
        bool stalled_attempt = false;  ///< Current attempt was preempted.
        uint64_t stall_count = 0;      ///< Watchdog flags, all attempts.

        /** Typed terminal cause for kFailed beyond the latched gate
         *  error: StalledError or JobQuarantinedError. */
        std::exception_ptr terminal_error;
    };

    /**
     * Starts the serving workers on `executor`'s pool. The pool is held
     * for this object's entire lifetime (one RunOnWorkers region that ends
     * at Stop), so the executor cannot run other programs meanwhile.
     */
    ServingExecutor(Executor& executor, const ServingOptions& options)
        : core_(std::make_shared<Core>(Validated(options))) {
        std::shared_ptr<Core> core = core_;
        dispatcher_ = std::thread([core, &executor] {
            executor.pool().RunOnWorkers(core->opts.num_workers - 1,
                                         [&core] { core->WorkerLoop(); });
        });
        if (core_->opts.stall_timeout_seconds > 0.0)
            watchdog_ = std::thread([core] { core->WatchdogLoop(); });
    }

    ~ServingExecutor() { Stop(); }
    ServingExecutor(const ServingExecutor&) = delete;
    ServingExecutor& operator=(const ServingExecutor&) = delete;

    /**
     * Submits one job: the program (shared, not copied), the evaluator to
     * run it on (per-tenant key material), and the input ciphertexts, one
     * per program input. Returns the job handle immediately.
     *
     * Throws std::invalid_argument on a null program or input-count
     * mismatch, OverloadedError when the pending bound is hit, and
     * std::runtime_error after Stop.
     */
    JobPtr Submit(std::shared_ptr<const pasm::Program> program,
                  Evaluator& eval, std::vector<Ciphertext> inputs,
                  const SubmitOptions& options = {}) {
        if (!program)
            throw std::invalid_argument("ServingExecutor: null program");
        detail::ValidateRunArgs(*program, inputs.size(), 1);
        if (core_->opts.max_job_arena_bytes > 0) {
            // Admission control before any job state is allocated: the
            // plane size is a pure function of the program's memory plan
            // and the ciphertext dimension.
            const size_t need =
                ValuePlane<Evaluator>::RequiredBytes(*program, inputs);
            if (need > core_->opts.max_job_arena_bytes)
                throw ArenaBudgetError(need,
                                       core_->opts.max_job_arena_bytes);
        }
        JobPtr job(new Job(core_, std::move(program), &eval, options));
        // Not yet published and its store is empty: no lock needed.
        core_->StartAttempt(*job, inputs);
        if (core_->opts.retry.max_attempts > 1) {
            // Retain the submission inputs so a retry can re-seed the
            // value plane (and the degraded sequential attempt can run
            // straight from them).
            job->inputs = std::move(inputs);
        }

        std::lock_guard<std::mutex> lock(core_->mu);
        if (core_->shutdown)
            throw std::runtime_error("ServingExecutor: stopped");
        if (core_->queued.size() + core_->active.size() >=
            core_->opts.max_pending_jobs) {
            ++core_->stats.jobs_rejected;
            const uint32_t depth = static_cast<uint32_t>(
                core_->queued.size() + core_->active.size());
            throw OverloadedError(depth, DrainEstimateLocked(depth));
        }
        if (core_->opts.max_pending_jobs_per_tenant > 0) {
            auto it = core_->tenant_load.find(job->tenant);
            const uint32_t tenant_pending =
                it != core_->tenant_load.end() ? it->second.pending : 0;
            if (tenant_pending >=
                core_->opts.max_pending_jobs_per_tenant) {
                ++core_->stats.jobs_rejected_tenant_quota;
                throw OverloadedError(tenant_pending,
                                      DrainEstimateLocked(tenant_pending));
            }
        }
        ++core_->tenant_load[job->tenant].pending;
        job->fault.job = core_->stats.jobs_submitted;
        ++core_->stats.jobs_submitted;
        if (job->program->NumGates() == 0) {
            // Pass-through program: outputs reference inputs directly.
            job->started = true;
            job->start_time = Clock::now();
            core_->FinishLocked(*job, JobStatus::kDone);
            return job;
        }
        core_->queued.push_back(job);
        core_->AdmitLocked();
        return job;
    }

    /** Consistent snapshot of the serving counters. */
    ServingStats stats() const {
        std::lock_guard<std::mutex> lock(core_->mu);
        ServingStats s = core_->stats;
        const CheckpointRunStats& c = core_->ckpt_totals;
        s.checkpoints_taken = c.checkpoints_taken;
        s.checkpoint_bytes = core_->ckpt_bytes_total;
        s.checkpoint_resumes = c.resumes;
        s.checkpoints_corrupt_discarded = c.corrupt_discarded;
        s.gates_resumed = c.gates_resumed;
        return s;
    }

    /**
     * Cancels queued jobs, requests cancellation of active ones, drains
     * the workers, and releases the executor pool. Idempotent; called by
     * the destructor. Wait for jobs you care about before stopping.
     */
    void Stop() {
        {
            std::lock_guard<std::mutex> lock(core_->mu);
            if (!core_->shutdown) {
                core_->shutdown = true;
                while (!core_->queued.empty()) {
                    JobPtr job = std::move(core_->queued.front());
                    core_->queued.pop_front();
                    core_->FinishLocked(*job, JobStatus::kCancelled);
                }
                for (const JobPtr& job : core_->active) {
                    job->cancel_requested.store(true,
                                                std::memory_order_relaxed);
                    job->abort_hint.store(true, std::memory_order_relaxed);
                    // Held-back gates must flow for the drain to finish.
                    core_->ReleaseBarrierLocked(*job);
                }
            }
            core_->work_cv.notify_all();
            core_->watchdog_cv.notify_all();
        }
        if (dispatcher_.joinable()) dispatcher_.join();
        if (watchdog_.joinable()) watchdog_.join();
    }

    const ServingOptions& options() const { return core_->opts; }

  private:
    /** Retry-after hint: seconds for `depth` jobs to drain (core_->mu held). */
    double DrainEstimateLocked(uint32_t depth) const {
        return core_->stats.jobs_completed > 0
                   ? (core_->stats.total_run_seconds /
                      static_cast<double>(core_->stats.jobs_completed)) *
                         static_cast<double>(depth) /
                         static_cast<double>(core_->opts.max_active_jobs)
                   : 0.0;
    }

    static ServingOptions Validated(const ServingOptions& o) {
        if (o.num_workers < 1 || o.max_active_jobs < 1 ||
            o.max_pending_jobs < 1 || o.per_job_inflight_cap < 1 ||
            o.batch_size < 1)
            throw std::invalid_argument(
                "ServingOptions: all knobs must be >= 1");
        if (o.stall_timeout_seconds < 0.0 || o.stall_poll_seconds < 0.0)
            throw std::invalid_argument(
                "ServingOptions: watchdog timeouts must be >= 0");
        return o;
    }

    std::shared_ptr<Core> core_;
    std::thread dispatcher_;
    std::thread watchdog_;
};

}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_SERVING_H
