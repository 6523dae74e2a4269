/**
 * @file
 * backend::Execute — the single documented entry point for functional
 * program execution.
 *
 * There are two paths: the sequential interpreter (interpreter.h), which
 * is the reference oracle, and the engine (engine.h) through
 * Executor::Run. Execute picks one from its options; interpreter.h holds
 * the path table. Tests and benchmarks may call either entry point
 * directly, but application code should go through Execute.
 */
#ifndef PYTFHE_BACKEND_EXECUTE_H
#define PYTFHE_BACKEND_EXECUTE_H

#include <vector>

#include "backend/executor.h"
#include "backend/interpreter.h"

namespace pytfhe::backend {

/**
 * Options for one Execute call. `executor` optionally names a caller-owned
 * persistent Executor whose worker pool the run reuses (recommended for
 * repeated runs — a null executor makes a threaded run spin up and tear
 * down a transient pool per call). `control` carries the cooperative
 * deadline/cancel token. `fault` optionally names a FaultInjector
 * (fault.h) plus the (job, attempt) identity of this execution; every path
 * honors it, and a disengaged hook costs one branch per gate.
 */
struct ExecOptions {
    int32_t num_threads = 1;
    Executor* executor = nullptr;
    RunControl control;
    FaultHook fault;
    /**
     * Maximum simultaneously ready gates fused into one batched bootstrap
     * kernel call (engine.h; evaluators opt in via ApplyBatch — others
     * claim one gate at a time). 1 disables batching. batch_size > 1
     * runs on the engine even single-threaded, since only its ready set
     * exposes batchable groups; outputs stay bit-identical to the
     * sequential path.
     */
    int32_t batch_size = 1;
    /**
     * Checkpoint/resume (checkpoint.h). With a non-null caller-owned
     * `checkpoint_store`, a run that finds a valid record there restores
     * the snapshot and executes only the gates past the cut; a corrupt or
     * mismatched record is cleared, counted, and the run re-executes from
     * scratch. With the `checkpoint` policy enabled, every path captures:
     * the sequential path writes ordinal cuts, the engine writes level
     * cuts when the program's plan admits them (no plan, or a level-safe
     * one). The store is left intact after a successful run; clearing it
     * is the caller's retry-loop decision.
     */
    CheckpointPolicy checkpoint;
    JobCheckpoint* checkpoint_store = nullptr;
    CheckpointRunStats* checkpoint_stats = nullptr;
};

/**
 * Executes `program` over `inputs` with `eval`, dispatching per `options`
 * (see the path table in interpreter.h). Every path produces bit-identical
 * outputs. Throws std::invalid_argument on malformed arguments,
 * CancelledError / DeadlineExceededError on control aborts, and
 * GateExecutionError when a gate evaluation throws (the run fails
 * cleanly — workers are joined, pools stay reusable).
 */
template <typename Evaluator>
std::vector<typename Evaluator::Ciphertext> Execute(
    const pasm::Program& program, Evaluator& eval,
    const std::vector<typename Evaluator::Ciphertext>& inputs,
    const ExecOptions& options = {}) {
    if (options.num_threads == 1 && options.batch_size == 1)
        return RunProgramCheckpointed(
            program, eval, inputs, options.checkpoint,
            options.checkpoint_store, options.control, options.fault,
            options.checkpoint_stats);
    Executor transient;
    Executor& executor =
        options.executor != nullptr ? *options.executor : transient;
    return executor.Run(program, eval, inputs, options.num_threads,
                        options.control, options.fault, options.batch_size,
                        options.checkpoint, options.checkpoint_store,
                        options.checkpoint_stats);
}

}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_EXECUTE_H
