/**
 * @file
 * The execution engine: dependency-counted gate dispatch for one or many
 * jobs on a shared set of workers. Every threaded run goes through here —
 * Executor::Run (executor.h) runs one job on a private pool,
 * ServingExecutor (serving.h) runs every admitted job of a service.
 *
 * Per job the engine owns the remaining-predecessor counters (built with
 * the memory plan's anti-dependency edges, so any valid plan is safe and
 * hazardous pairs are never ready together), the ValuePlane, the ready
 * list, the fault-hook and RunControl checks, and the checkpoint barrier.
 * Workers loop over ClaimLocked and RunClaimLocked, one routine for every
 * batch size: claim ready gates, execute them unlocked, retire them and
 * publish the successors that became ready.
 *
 * A claim is up to batch_size ready gates, picked round-robin across jobs
 * under each job's in-flight cap, all of one evaluator (a batched blind
 * rotation uses one bootstrapping key). batch_size 1 pops LIFO, the
 * cache-friendly order; larger claims pop FIFO, so gates that became
 * ready together share one ApplyBatch call. A bootstrap the evaluator
 * cannot fuse (a LUT gate, or any bootstrap of an evaluator without
 * ApplyBatch) is claimed alone, so such gates spread over the workers. A
 * one-gate claim chains depth-first into one newly ready successor,
 * keeping its in-flight slot, unless that successor could join a fused
 * batch.
 *
 * A job that must stop (gate failure, cancel, deadline) skips evaluation
 * but still drains its counts, so it terminates promptly; the owner learns
 * the outcome in OnDrainedLocked.
 *
 * Checkpoints (checkpoint.h): with a policy and a store, a job quiesces
 * every Nth wave level — newly ready gates at or beyond the armed boundary
 * are held back until every gate below it has retired — and its live set
 * is captured as a level-cut record. An attempt resumes from either cut
 * kind through LoadCheckpoint; after an ordinal-cut resume no barrier is
 * armed, since the done set is not level-aligned.
 */
#ifndef PYTFHE_BACKEND_ENGINE_H
#define PYTFHE_BACKEND_ENGINE_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "backend/arena.h"
#include "backend/checkpoint.h"
#include "backend/fault.h"
#include "backend/run_control.h"
#include "circuit/gate_type.h"
#include "pasm/memory_plan.h"
#include "pasm/program.h"

namespace pytfhe::backend {

/** Lifecycle of one job; the engine reports the terminal ones. */
enum class JobStatus {
    kQueued,    ///< Admitted to the service, waiting for an active slot.
    kRunning,   ///< Gates executing (or draining after cancel/expiry).
    kDone,      ///< All gates executed; outputs available.
    kCancelled, ///< Cancel() landed before completion; no outputs.
    kDeadlineExceeded,  ///< Deadline passed before completion; no outputs.
    kFailed,    ///< A gate evaluation threw and retries ran out; no outputs.
};

inline bool IsTerminal(JobStatus s) {
    return s == JobStatus::kDone || s == JobStatus::kCancelled ||
           s == JobStatus::kDeadlineExceeded || s == JobStatus::kFailed;
}

/**
 * The ready gates of one job. Single-gate claims pop the newest (LIFO,
 * the cache-friendly order), batch claims the oldest (FIFO, so gates
 * that became ready together stay adjacent); both are O(1). Not
 * synchronized: the engine guards it with its mutex.
 */
class ReadyList {
  public:
    void Assign(const std::vector<uint64_t>& gates) {
        items_.assign(gates.begin(), gates.end());
    }
    void Push(uint64_t gate) { items_.push_back(gate); }
    bool Empty() const { return items_.empty(); }
    uint64_t Front() const { return items_.front(); }
    uint64_t PopLifo() {
        const uint64_t gate = items_.back();
        items_.pop_back();
        return gate;
    }
    uint64_t PopFifo() {
        const uint64_t gate = items_.front();
        items_.pop_front();
        return gate;
    }
    /** Removes every gate, oldest first. */
    std::vector<uint64_t> TakeAll() {
        std::vector<uint64_t> out(items_.begin(), items_.end());
        items_.clear();
        return out;
    }

  private:
    std::deque<uint64_t> items_;
};

/**
 * The gate-level state of one job. The owner fills `control`, `fault` and
 * `inflight_cap` before the job is published; everything below them is
 * the engine's. Counters are cumulative across attempts.
 */
template <typename Evaluator>
struct EngineJob {
    /**
     * `store` (may be null) is where level-cut records are written and
     * where StartAttempt looks for one to resume from. Capture is enabled
     * when `policy` is, a store exists, the program has gates, its plan
     * admits level cuts, and the ciphertext type has a codec.
     */
    EngineJob(const pasm::Program& p, Evaluator& e, JobCheckpoint* store,
              const CheckpointPolicy& policy)
        : program(&p),
          eval(&e),
          deps(p.BuildGateDependencies(p.Plan())),
          store(store),
          pending(p.NumGates()) {
        if constexpr (CiphertextCodec<
                          typename Evaluator::Ciphertext>::kSupported) {
            if (policy.Enabled() && store != nullptr && p.NumGates() > 0 &&
                CutValidForProgram(CheckpointCut::kLevel, p)) {
                ckpt_enabled = true;
                liveness = pasm::ComputeValueLiveness(p);
                const auto levels =
                    std::span(liveness.level).subspan(p.FirstGateIndex());
                max_level = *std::max_element(levels.begin(), levels.end());
                cum_gates.assign(max_level + 2, 0);
                for (uint64_t l : levels) ++cum_gates[l + 1];
                for (uint64_t l = 1; l <= max_level + 1; ++l)
                    cum_gates[l] += cum_gates[l - 1];
            }
        }
    }

    const pasm::Program* const program;
    Evaluator* const eval;
    const pasm::GateDependencies deps;
    JobCheckpoint* const store;

    // Set by the owner before the job runs.
    RunControl control;  ///< Cancel/deadline, checked before every gate.
    FaultHook fault;     ///< Fault identity (job, attempt) and injector.
    uint32_t inflight_cap = ~UINT32_C(0);  ///< Gates claimed at once.

    // Lock-free gate state: plane slots are race-free by construction
    // (one writer per slot; anti-dependency edges serialize slot reuse)
    // and the counters are atomic. StartAttempt resets them only while no
    // gate of the job is in flight.
    ValuePlane<Evaluator> values;
    std::vector<std::atomic<uint32_t>> pending;
    std::atomic<bool> fail_requested{false};
    std::atomic<RunControl::Abort> abort{RunControl::Abort::kNone};

    // Guarded by Engine::mu.
    ReadyList ready;
    std::vector<uint64_t> held;  ///< Ready gates the barrier holds back.
    uint32_t in_flight = 0;
    uint64_t remaining = 0;  ///< Gates of this attempt not yet retired.
    uint64_t gates_executed = 0;
    uint64_t gates_skipped = 0;
    uint64_t linear_executed = 0;  ///< Executed kLin* (elided) gates.
    uint64_t gate_failures = 0;
    std::optional<GateExecutionError> failure;  ///< First gate error.
    uint64_t progress_epoch = 0;  ///< Bumped per retired gate.
    bool resumed_attempt = false;  ///< This attempt restored a record.
    CheckpointRunStats ckpt;

    // Checkpoint barrier (guarded by Engine::mu).
    bool ckpt_enabled = false;
    pasm::ValueLiveness liveness;
    uint64_t max_level = 0;           ///< Deepest gate wave level.
    std::vector<uint64_t> cum_gates;  ///< [L] = gates at level < L.
    /** Armed quiesce boundary (wave level); 0 = no barrier. */
    uint64_t ckpt_boundary = 0;
    /** Unretired gates below the armed boundary. */
    uint64_t below_remaining = 0;
    uint64_t gates_since_ckpt = 0;  ///< For min_gates_between.
};

/**
 * The engine. Owners derive from it, implement OnDrainedLocked, and run
 * ClaimLocked/RunClaimLocked in their worker loops with `mu` held.
 */
template <typename Evaluator>
class Engine {
  public:
    using C = typename Evaluator::Ciphertext;
    using Job = EngineJob<Evaluator>;

    Engine(int32_t batch_size, const CheckpointPolicy& policy)
        : batch_size(detail::kSupportsApplyBatch<Evaluator> ? batch_size : 1),
          policy(policy) {}
    virtual ~Engine() = default;
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /** One claimed gate. */
    struct Claimed {
        Job* job = nullptr;
        uint64_t gate = 0;
    };

    /** Per-worker state, reused across claims: scratch and staging. */
    struct Worker {
        typename detail::WorkerScratchOf<Evaluator>::type scratch{};
        typename detail::BatchScratchOf<Evaluator>::type batch_scratch{};
        std::vector<Claimed> claim;
        std::vector<uint8_t> outcome;  ///< Per claimed gate: a GateOutcome.
        std::vector<std::optional<GateExecutionError>> errors;
        std::vector<size_t> kernel;  ///< Claim positions fused into a batch.
        std::vector<typename ValuePlane<Evaluator>::BatchItem> items;
        std::vector<Claimed> newly_ready;
    };

    /** Gates per claim; 1 for an evaluator without ApplyBatch, which has
     *  nothing to fuse. */
    const int32_t batch_size;
    const CheckpointPolicy policy;

    std::mutex mu;
    std::condition_variable work_cv;  ///< Workers wait for ready gates.
    /** Set when the owner stops: armed barriers drop, nothing captures. */
    bool shutdown = false;
    /** Checkpoint counters over every job (guarded by mu). */
    CheckpointRunStats ckpt_totals;
    uint64_t ckpt_bytes_total = 0;  ///< Sum of every captured record.

    /**
     * Resets `job` for an attempt from `inputs`: re-seeds the plane,
     * resumes from the record in job.store when one verifies (either cut
     * kind), sets the dependency counters and ready list, and arms the
     * first checkpoint barrier. Call with `mu` held, or before the job is
     * published; no gate of the job may be in flight.
     */
    void StartAttempt(Job& job, const std::vector<C>& inputs) {
        job.values.Reset(*job.program, inputs);
        job.fail_requested.store(false, std::memory_order_relaxed);
        job.abort.store(RunControl::Abort::kNone, std::memory_order_relaxed);
        job.held.clear();
        job.ckpt_boundary = 0;
        job.gates_since_ckpt = 0;
        CheckpointRunStats d;
        const std::optional<DecodedCheckpoint<C>> resume =
            LoadCheckpoint<C>(*job.program, job.store, &d);
        if (d.resumes != 0 || d.corrupt_discarded != 0)
            NoteCheckpointLocked(job, d);
        job.resumed_attempt = resume.has_value();
        const uint32_t* counts = job.deps.pred_count.data();
        ResumeState state;
        if (resume) {
            RestoreCheckpoint(job.values, *resume);
            state = BuildResumeState(*job.program, job.deps, resume->cut,
                                     resume->boundary);
            counts = state.pending.data();
            job.ready.Assign(state.ready);
            job.remaining = state.remaining;
        } else {
            job.ready.Assign(job.deps.RootGates());
            job.remaining = job.program->NumGates();
        }
        for (uint64_t g = 0; g < job.program->NumGates(); ++g)
            job.pending[g].store(counts[g], std::memory_order_relaxed);
        if (!resume) {
            ArmBarrierLocked(job, 0);
        } else if (resume->cut == CheckpointCut::kLevel) {
            ArmBarrierLocked(job, resume->boundary - 1);
        }
    }

    /** Makes `job` claimable (the caller wakes the workers); it leaves
     *  the set when it drains. */
    void AddRunnableLocked(Job& job) { runnable_.push_back(&job); }

    /**
     * Claims up to batch_size ready gates into `w.claim` (see the file
     * comment for the order). Counts each claimed gate in flight. Returns
     * false when no runnable job has a claimable gate.
     */
    bool ClaimLocked(Worker& w) {
        w.claim.clear();
        const size_t n = runnable_.size();
        const size_t want = static_cast<size_t>(batch_size);
        const Evaluator* anchor = nullptr;
        size_t last = 0;
        bool closed = false;
        for (size_t i = 0; i < n && !closed && w.claim.size() < want; ++i) {
            const size_t j = (rr_ + i) % n;
            Job& job = *runnable_[j];
            if (anchor != nullptr && job.eval != anchor) continue;
            while (w.claim.size() < want && !job.ready.Empty() &&
                   job.in_flight < job.inflight_cap) {
                uint64_t gate;
                if (want == 1) {
                    gate = job.ready.PopLifo();
                } else {
                    const bool alone = ClaimsAlone(job, job.ready.Front());
                    if (alone && !w.claim.empty()) {
                        closed = true;
                        break;
                    }
                    gate = job.ready.PopFifo();
                    closed = alone;
                }
                w.claim.push_back(Claimed{&job, gate});
                ++job.in_flight;
                anchor = job.eval;
                last = j;
                if (closed) break;
            }
        }
        if (w.claim.empty()) return false;
        rr_ = (last + 1) % n;
        return true;
    }

    /**
     * Executes the claim in `w`, then retires its gates: successor
     * counters are decremented, newly ready gates published (or held
     * behind an armed barrier), counters and the barrier updated, and
     * drained jobs handed to OnDrainedLocked. A one-gate claim continues
     * with one newly ready successor of its job that cannot join a fused
     * batch. Enter and leave with `lock` (on `mu`) held.
     */
    void RunClaimLocked(Worker& w, std::unique_lock<std::mutex>& lock) {
        while (true) {
            lock.unlock();
            ExecuteClaim(w);
            // The only place pending counters are decremented. The final
            // decrement hands the successor's inputs to this thread, hence
            // acq_rel.
            w.newly_ready.clear();
            for (const Claimed& c : w.claim) {
                Job& job = *c.job;
                const auto [s, e] = job.deps.SuccessorsOf(c.gate);
                for (const uint64_t* p = s; p != e; ++p)
                    if (job.pending[*p - job.deps.first_gate].fetch_sub(
                            1, std::memory_order_acq_rel) == 1)
                        w.newly_ready.push_back(Claimed{&job, *p});
            }
            lock.lock();

            Claimed next;
            size_t published = 0;
            for (const Claimed& r : w.newly_ready) {
                Job& job = *r.job;
                if (job.ckpt_boundary != 0 &&
                    job.liveness.level[r.gate] >= job.ckpt_boundary) {
                    job.held.push_back(r.gate);
                } else if (w.claim.size() == 1 && next.job == nullptr &&
                           (batch_size == 1 || !Fusable(job, r.gate))) {
                    // A gate that could join a fused batch goes to the
                    // ready list instead, where the next claim gathers it.
                    next = r;
                } else {
                    job.ready.Push(r.gate);
                    ++published;
                }
            }
            // Wake one waiter per published gate, not the whole pool.
            for (size_t k = 0; k < published; ++k) work_cv.notify_one();

            for (size_t i = 0; i < w.claim.size(); ++i) {
                Job& job = *w.claim[i].job;
                const uint8_t o = w.outcome[i];
                if (o == kFailed) {
                    ++job.gate_failures;
                    if (!job.failure) job.failure = std::move(w.errors[i]);
                } else if (o == kSkipped) {
                    ++job.gates_skipped;
                } else {
                    ++job.gates_executed;
                    ++job.gates_since_ckpt;
                    job.linear_executed += o == kLinear;
                }
                ++job.progress_epoch;
                if (job.ckpt_boundary != 0 &&
                    job.liveness.level[w.claim[i].gate] < job.ckpt_boundary)
                    --job.below_remaining;
                --job.remaining;
                // The chained successor keeps this gate's in-flight slot.
                if (next.job == &job) continue;
                --job.in_flight;
                if (job.remaining == 0) {
                    runnable_.erase(
                        std::find(runnable_.begin(), runnable_.end(), &job));
                    OnDrainedLocked(job);
                    continue;
                }
                MaybeCaptureLocked(job);
                if (!job.ready.Empty()) work_cv.notify_one();
            }
            if (next.job == nullptr) return;
            w.claim.assign(1, next);
        }
    }

    /** Drops the barrier and publishes every held gate. */
    void ReleaseBarrierLocked(Job& job) {
        job.ckpt_boundary = 0;
        if (job.held.empty()) return;
        for (uint64_t g : job.held) job.ready.Push(g);
        job.held.clear();
        work_cv.notify_all();
    }

    /** Terminal status of a drained job. */
    static JobStatus OutcomeOf(const Job& job) {
        const RunControl::Abort a = job.abort.load(std::memory_order_relaxed);
        if (a == RunControl::Abort::kCancelled || CancelRaised(job))
            return JobStatus::kCancelled;
        if (a == RunControl::Abort::kDeadline)
            return JobStatus::kDeadlineExceeded;
        if (job.fail_requested.load(std::memory_order_relaxed))
            return JobStatus::kFailed;
        return JobStatus::kDone;
    }

    /** Adds checkpoint counters to the job's and the engine's totals. */
    void NoteCheckpointLocked(Job& job, const CheckpointRunStats& d) {
        job.ckpt.Add(d);
        ckpt_totals.Add(d);
        ckpt_bytes_total += d.checkpoint_bytes;
    }

  protected:
    /**
     * Called with `mu` held once every gate of the job's attempt is
     * retired and none is in flight; the job has left the runnable set.
     * OutcomeOf says how the attempt ended.
     */
    virtual void OnDrainedLocked(Job& job) = 0;

  private:
    enum GateOutcome : uint8_t { kSkipped, kExecuted, kLinear, kFailed };

    static bool CancelRaised(const Job& job) {
        return job.control.cancel != nullptr &&
               job.control.cancel->load(std::memory_order_relaxed);
    }

    /** A gate failed or an abort was seen: the job only drains now. */
    static bool Draining(const Job& job) {
        return job.fail_requested.load(std::memory_order_relaxed) ||
               job.abort.load(std::memory_order_relaxed) !=
                   RunControl::Abort::kNone;
    }

    /** Fits an ApplyBatch call; GateAt reports a LUT gate as kLut. */
    static bool Fusable(const Job& job, uint64_t gate) {
        if constexpr (detail::kSupportsApplyBatch<Evaluator>)
            return Evaluator::Batchable(job.program->GateAt(gate).type);
        return false;
    }

    /** A bootstrap that cannot join an ApplyBatch call. */
    static bool ClaimsAlone(const Job& job, uint64_t gate) {
        return !Fusable(job, gate) &&
               circuit::NeedsBootstrap(job.program->GateAt(gate).type);
    }

    /** True when the job must skip evaluation: failed, cancelled or past
     *  its deadline. The first abort seen is latched for OutcomeOf. */
    static bool Stopping(Job& job) {
        if (Draining(job)) return true;
        if (!job.control.Engaged()) return false;
        const RunControl::Abort a = job.control.Check();
        if (a == RunControl::Abort::kNone) return false;
        job.abort.store(a, std::memory_order_relaxed);
        return true;
    }

    void RunScalar(Worker& w, size_t i) {
        const Claimed& c = w.claim[i];
        c.job->values.Apply(*c.job->eval, *c.job->program, c.gate, w.scratch);
        const circuit::GateType t = c.job->program->GateAt(c.gate).type;
        w.outcome[i] = circuit::IsLinearGate(t) ? kLinear : kExecuted;
    }

    /** Records the in-flight exception as gate i's error; its job stops. */
    static void Latch(Worker& w, size_t i) {
        Job& job = *w.claim[i].job;
        try {
            RethrowAsGateError(w.claim[i].gate - job.deps.first_gate,
                               job.fault.attempt);
        } catch (const GateExecutionError& e) {
            w.errors[i] = e;
        }
        w.outcome[i] = kFailed;
        job.fail_requested.store(true, std::memory_order_relaxed);
    }

    /**
     * Evaluates the claim: per gate the stop checks and the fault hook,
     * then the scalar path or, for two or more fusable bootstraps, one
     * ApplyBatch call. A throwing kernel is replayed gate by gate so the
     * error names the gate — and only the job — that fails.
     */
    void ExecuteClaim(Worker& w) {
        const size_t n = w.claim.size();
        w.outcome.assign(n, kSkipped);
        w.errors.assign(n, std::nullopt);
        w.kernel.clear();
        for (size_t i = 0; i < n; ++i) {
            Job& job = *w.claim[i].job;
            if (Stopping(job)) continue;
            try {
                job.fault.OnGate(w.claim[i].gate - job.deps.first_gate);
                if (n > 1 && Fusable(job, w.claim[i].gate)) {
                    w.kernel.push_back(i);
                } else {
                    RunScalar(w, i);
                }
            } catch (...) {
                Latch(w, i);
            }
        }
        if constexpr (detail::kSupportsApplyBatch<Evaluator>) {
            if (w.kernel.size() > 1) {
                w.items.resize(w.kernel.size());
                for (size_t k = 0; k < w.kernel.size(); ++k) {
                    const Claimed& c = w.claim[w.kernel[k]];
                    w.items[k] =
                        c.job->values.BatchItemFor(*c.job->program, c.gate);
                }
                try {
                    w.claim[w.kernel[0]].job->eval->ApplyBatch(
                        w.items.data(), static_cast<int32_t>(w.items.size()),
                        w.batch_scratch);
                    for (size_t i : w.kernel) w.outcome[i] = kExecuted;
                    return;
                } catch (...) {
                }
            }
            for (size_t i : w.kernel) {
                try {
                    RunScalar(w, i);
                } catch (...) {
                    Latch(w, i);
                }
            }
        }
    }

    /**
     * Arms the next barrier, given that every gate at wave level <=
     * done_level is retired and none above it has started (true at the
     * start of an attempt, after a capture at done_level + 1, and after a
     * level-cut resume at done_level + 1). Gate levels run contiguously
     * from 1, so some unretired gate sits below every armed boundary and
     * the capture cannot starve. Past the last level the barrier drops.
     */
    void ArmBarrierLocked(Job& job, uint64_t done_level) {
        const uint64_t boundary = done_level + policy.every_n_levels + 1;
        if (!job.ckpt_enabled || boundary > job.max_level) {
            ReleaseBarrierLocked(job);
            return;
        }
        job.ckpt_boundary = boundary;
        job.below_remaining =
            job.cum_gates[boundary] - job.cum_gates[done_level + 1];
        std::vector<uint64_t> gates = job.ready.TakeAll();
        gates.insert(gates.end(), job.held.begin(), job.held.end());
        job.held.clear();
        for (uint64_t g : gates) {
            if (job.liveness.level[g] < boundary) {
                job.ready.Push(g);
            } else {
                job.held.push_back(g);
            }
        }
    }

    /**
     * Captures once the job is quiescent at its armed boundary: every
     * gate below it retired and none in flight. A stopping job drops its
     * barrier instead — held gates must flow for the drain to finish, and
     * a snapshot of a dying attempt has no value.
     */
    void MaybeCaptureLocked(Job& job) {
        if (job.ckpt_boundary == 0) return;
        if (shutdown || Draining(job) || CancelRaised(job)) {
            ReleaseBarrierLocked(job);
            return;
        }
        if (job.below_remaining != 0 || job.in_flight != 0) return;
        const uint64_t boundary = job.ckpt_boundary;
        if constexpr (CiphertextCodec<C>::kSupported) {
            if (policy.min_gates_between == 0 ||
                job.gates_since_ckpt >= policy.min_gates_between ||
                job.store->Empty()) {
                // Encoding under the lock keeps the quiesce invariant
                // trivially true; the record is the live set at a wave
                // boundary, not the whole plane.
                const std::vector<uint64_t> live =
                    pasm::LiveValuesAtLevelCut(job.liveness, boundary);
                std::string record = EncodeCheckpoint(
                    *job.program, job.values, live, CheckpointCut::kLevel,
                    boundary, job.cum_gates[boundary]);
                if (policy.max_bytes == 0 ||
                    record.size() <= policy.max_bytes) {
                    CheckpointRunStats d;
                    d.checkpoints_taken = 1;
                    d.checkpoint_bytes = record.size();
                    job.store->gates_completed = job.cum_gates[boundary];
                    job.store->record = std::move(record);
                    job.gates_since_ckpt = 0;
                    NoteCheckpointLocked(job, d);
                }
            }
        }
        ArmBarrierLocked(job, boundary - 1);
        work_cv.notify_all();
    }

    std::vector<Job*> runnable_;
    size_t rr_ = 0;  ///< Round-robin cursor into runnable_.
};

}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_ENGINE_H
