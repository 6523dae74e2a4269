/**
 * @file
 * The sequential interpreters: run a PyTFHE binary against any evaluator
 * in instruction order (indices are topological by construction).
 *
 * RunProgram is the reference oracle every other path is tested against.
 * RunProgramCheckpointed adds ordinal-cut checkpoint capture and resume.
 * Threaded execution is the engine (engine.h), reached through
 * Executor::Run (executor.h) for one program and ServingExecutor
 * (serving.h) for many. Wall-clock modeling of clusters and GPUs lives in
 * cluster_sim.h and gpu_sim.h.
 *
 * Prefer the dispatcher backend::Execute (execute.h). Its ExecOptions
 * select the path:
 *   - num_threads == 1 and batch_size == 1
 *       -> RunProgramCheckpointed: in-order interpretation, RunControl
 *          honored per gate, ordinal-cut checkpoints captured and resumed.
 *   - otherwise
 *       -> Executor::Run: the engine on a persistent pool (the caller's
 *          ExecOptions::executor, else a transient one), RunControl
 *          honored per gate, checkpoints captured and resumed.
 */
#ifndef PYTFHE_BACKEND_INTERPRETER_H
#define PYTFHE_BACKEND_INTERPRETER_H

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/arena.h"
#include "backend/checkpoint.h"
#include "backend/evaluator.h"
#include "backend/fault.h"
#include "backend/run_control.h"
#include "pasm/memory_plan.h"
#include "pasm/program.h"

namespace pytfhe::backend {

namespace detail {

/**
 * Rejects malformed run requests. A plain assert would vanish in release
 * builds and let the interpreter silently read default-constructed
 * ciphertexts, so misuse throws instead.
 */
inline void ValidateRunArgs(const pasm::Program& program, size_t num_inputs,
                            int32_t num_threads) {
    if (num_inputs != program.NumInputs())
        throw std::invalid_argument(
            "RunProgram: program expects " +
            std::to_string(program.NumInputs()) + " inputs, got " +
            std::to_string(num_inputs));
    if (num_threads < 1)
        throw std::invalid_argument("RunProgram: num_threads must be >= 1, "
                                    "got " +
                                    std::to_string(num_threads));
}

}  // namespace detail

/**
 * Checkpoint-aware sequential interpreter: executes `program` on `inputs`
 * (one ciphertext per input instruction) in instruction order and returns
 * one ciphertext per output instruction. Throws std::invalid_argument if
 * inputs.size() != program.NumInputs(); CancelledError /
 * DeadlineExceededError when `control` triggers mid-run;
 * GateExecutionError when a gate evaluation throws (including faults
 * injected by `fault` — a disengaged hook costs one branch per gate).
 *
 *  - If `store` holds a record, it is decoded (CRC + fingerprint
 *    verified); on success the run restores the snapshotted live set and
 *    skips every gate at or below the cut. A corrupt or mismatched
 *    record is cleared from the store, counted in
 *    `stats->corrupt_discarded`, and the run falls back to executing
 *    from gate zero — a bad checkpoint can cost time, never correctness.
 *  - When `policy` is enabled, a fresh ordinal-cut record is written
 *    into `store` at wave boundaries (all levels <= L complete) selected
 *    by the policy knobs. A fault that aborts the run (thrown
 *    GateExecutionError, cancel, deadline) leaves the last record in the
 *    store for the caller's retry.
 *
 * The checkpoint cadence is level-based even though the cut is ordinal:
 * a boundary is considered each time every gate of some wave level has
 * retired, which is when the live set is at its narrowest.
 */
template <typename Evaluator>
std::vector<typename Evaluator::Ciphertext> RunProgramCheckpointed(
    const pasm::Program& program, Evaluator& eval,
    const std::vector<typename Evaluator::Ciphertext>& inputs,
    const CheckpointPolicy& policy, JobCheckpoint* store,
    const RunControl& control = {}, const FaultHook& fault = {},
    CheckpointRunStats* stats = nullptr) {
    using C = typename Evaluator::Ciphertext;
    detail::ValidateRunArgs(program, inputs.size(), 1);
    const bool guarded = control.Engaged();
    const uint64_t first_gate = program.FirstGateIndex();
    const uint64_t end_gate = first_gate + program.NumGates();
    bool capture = false;
    if constexpr (CiphertextCodec<C>::kSupported)
        capture = policy.Enabled() && store != nullptr;

    // In-order execution tolerates any memory plan (a value's slot is not
    // overwritten before its last in-order reader by plan validity).
    ValuePlane<Evaluator> plane;
    plane.Reset(program, inputs);

    const std::optional<DecodedCheckpoint<C>> resume =
        LoadCheckpoint<C>(program, store, stats);

    std::vector<uint64_t> level;
    std::vector<uint64_t> suffmin;  // Min level over instrs >= idx.
    pasm::ValueLiveness liveness;
    if (capture) {
        level = program.ValueLevels();
        liveness = pasm::ComputeValueLiveness(program);
        suffmin.assign(end_gate + 1, ~UINT64_C(0));
        for (uint64_t idx = end_gate; idx > first_gate; --idx)
            suffmin[idx - 1] = std::min(suffmin[idx], level[idx - 1]);
    }

    uint64_t done_count = 0;
    uint64_t last_ckpt_level = 0;
    std::vector<uint8_t> done;  // Per gate ordinal; empty = none resumed.
    if (resume) {
        RestoreCheckpoint(plane, *resume);
        done_count = resume->gates_completed;
        done = BuildResumeState(program, program.BuildGateDependencies(),
                                resume->cut, resume->boundary)
                   .done;
        if (capture)
            last_ckpt_level =
                resume->cut == CheckpointCut::kLevel
                    ? resume->boundary - 1
                    : suffmin[std::min(resume->boundary + 1, end_gate)] - 1;
    }

    typename detail::WorkerScratchOf<Evaluator>::type scratch{};
    // Injected stalls respect this run's cancel/deadline token.
    FaultHook hook = fault;
    if (hook.control == nullptr) hook.control = &control;
    uint64_t gates_since_ckpt = 0;
    for (uint64_t idx = first_gate; idx < end_gate; ++idx) {
        if (!done.empty() && done[idx - first_gate]) continue;
        if (guarded) {
            const RunControl::Abort abort = control.Check();
            if (abort != RunControl::Abort::kNone) RunControl::Raise(abort);
        }
        try {
            hook.OnGate(idx - first_gate);
            plane.Apply(eval, program, idx, scratch);
        } catch (...) {
            RethrowAsGateError(idx - first_gate, fault.attempt);
        }
        ++done_count;
        ++gates_since_ckpt;
        // A checkpoint is worthwhile only strictly mid-run: after the last
        // gate the outputs are about to be harvested anyway.
        if constexpr (CiphertextCodec<C>::kSupported) {
            if (!capture || idx + 1 >= end_gate) continue;
            const uint64_t completed = suffmin[idx + 1] - 1;
            if (completed < last_ckpt_level + policy.every_n_levels ||
                gates_since_ckpt < policy.min_gates_between)
                continue;
            std::string record = EncodeCheckpoint(
                program, plane, pasm::LiveValuesAtOrdinalCut(liveness, idx),
                CheckpointCut::kOrdinal, idx, done_count);
            if (policy.max_bytes != 0 && record.size() > policy.max_bytes)
                continue;
            store->gates_completed = done_count;
            store->record = std::move(record);
            last_ckpt_level = completed;
            gates_since_ckpt = 0;
            if (stats) {
                ++stats->checkpoints_taken;
                stats->checkpoint_bytes = store->record.size();
            }
        }
    }
    return plane.Harvest(program);
}

/**
 * The reference oracle: RunProgramCheckpointed with no checkpoint store,
 * i.e. every gate in instruction order.
 */
template <typename Evaluator>
std::vector<typename Evaluator::Ciphertext> RunProgram(
    const pasm::Program& program, Evaluator& eval,
    const std::vector<typename Evaluator::Ciphertext>& inputs,
    const RunControl& control = {}, const FaultHook& fault = {}) {
    return RunProgramCheckpointed(program, eval, inputs, {}, nullptr,
                                  control, fault);
}

}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_INTERPRETER_H
