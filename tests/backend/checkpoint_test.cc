/**
 * @file
 * Checkpoint/resume correctness: wire-record roundtrip and fingerprint
 * guard, a per-byte corruption + truncation sweep over the framed record
 * (a damaged checkpoint is always discarded, never restored), resume
 * bookkeeping (BuildResumeState), policy knobs, level-cut capture on
 * threaded (engine) runs, and the acceptance matrix — a run killed
 * mid-flight resumes bit-exactly on every thread count x batch size x
 * memory-plan combination. Labeled
 * `concurrency` + `robustness`: run under -DPYTFHE_SANITIZE=thread.
 */
#include "backend/checkpoint.h"

#include <gtest/gtest.h>

#include <random>

#include "backend/execute.h"
#include "backend/executor.h"
#include "backend/fault.h"
#include "backend/interpreter.h"
#include "pasm/assembler.h"
#include "pasm/memory_plan.h"

namespace pytfhe::backend {
namespace {

using circuit::GateType;
using circuit::Netlist;
using circuit::NodeId;

Netlist RandomNetlist(uint64_t seed, int32_t inputs, int32_t gates) {
    std::mt19937_64 rng(seed);
    Netlist n;
    std::vector<NodeId> pool;
    for (int32_t i = 0; i < inputs; ++i) pool.push_back(n.AddInput());
    for (int32_t i = 0; i < gates; ++i) {
        GateType t =
            static_cast<GateType>(rng() % circuit::kNumFrontendGateTypes);
        pool.push_back(n.AddGate(t, pool[rng() % pool.size()],
                                 pool[rng() % pool.size()]));
    }
    for (int i = 0; i < 4; ++i) n.AddOutput(pool[pool.size() - 1 - i]);
    return n;
}

pasm::Program ChainProgram(int32_t length) {
    Netlist n;
    const NodeId a = n.AddInput();
    NodeId cur = a;
    for (int32_t i = 0; i < length; ++i)
        cur = n.AddGate(GateType::kNand, cur, a);
    n.AddOutput(cur);
    auto p = pasm::Assemble(n);
    EXPECT_TRUE(p.has_value());
    return std::move(*p);
}

std::vector<bool> RandomBits(uint64_t seed, size_t count) {
    std::mt19937_64 rng(seed);
    std::vector<bool> bits(count);
    for (size_t i = 0; i < count; ++i) bits[i] = rng() & 1;
    return bits;
}

/**
 * Runs `program` sequentially with checkpointing on and a transient
 * fault injected at gate `fault_ordinal` of attempt 0, leaving the last
 * pre-fault snapshot in `store`. The throw is part of the contract.
 */
void CaptureViaFaultedRun(const pasm::Program& program,
                          const std::vector<bool>& inputs,
                          uint64_t fault_ordinal, JobCheckpoint* store,
                          CheckpointRunStats* stats = nullptr) {
    PlainEvaluator eval;
    FaultPlan plan;
    plan.fault_every_nth_job = 1;
    plan.fault_gate_ordinal = fault_ordinal;
    plan.transient_clears_after = 1;
    FaultInjector injector(plan);
    CheckpointPolicy policy;
    policy.every_n_levels = 1;
    FaultHook hook;
    hook.injector = &injector;
    EXPECT_THROW(RunProgramCheckpointed(program, eval, inputs, policy,
                                        store, {}, hook, stats),
                 GateExecutionError);
}

// ------------------------------------------------------------- wire record

TEST(CheckpointRecord, FaultedRunLeavesResumableSnapshot) {
    const pasm::Program program = ChainProgram(32);
    const auto inputs = RandomBits(1, program.NumInputs());
    PlainEvaluator eval;
    const auto want = RunProgram(program, eval, inputs);

    JobCheckpoint store;
    CheckpointRunStats capture_stats;
    CaptureViaFaultedRun(program, inputs, /*fault_ordinal=*/24, &store,
                         &capture_stats);
    ASSERT_FALSE(store.Empty());
    EXPECT_GT(capture_stats.checkpoints_taken, 0u);
    EXPECT_GT(store.gates_completed, 0u);
    EXPECT_LE(store.gates_completed, 24u);

    // The record decodes: ordinal cut, mirrored progress counter, live
    // values named by in-range instruction indices.
    const uint64_t fp = ProgramFingerprint(program);
    const uint64_t end =
        program.FirstGateIndex() + program.NumGates();
    std::string error;
    auto decoded = DecodeCheckpoint<bool>(store.record, fp, end, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(decoded->cut, CheckpointCut::kOrdinal);
    EXPECT_EQ(decoded->gates_completed, store.gates_completed);
    EXPECT_FALSE(decoded->values.empty());
    for (const auto& [idx, value] : decoded->values) {
        EXPECT_GE(idx, 1u);
        EXPECT_LT(idx, end);
    }

    // Resuming finishes the job bit-exactly, skipping the done prefix.
    CheckpointRunStats resume_stats;
    CheckpointPolicy off;
    EXPECT_EQ(RunProgramCheckpointed(program, eval, inputs, off, &store,
                                     {}, {}, &resume_stats),
              want);
    EXPECT_EQ(resume_stats.resumes, 1u);
    EXPECT_EQ(resume_stats.gates_resumed, decoded->gates_completed);
    EXPECT_EQ(resume_stats.corrupt_discarded, 0u);
}

TEST(CheckpointRecord, FingerprintGuardRejectsForeignProgram) {
    const pasm::Program program = ChainProgram(16);
    const pasm::Program other = ChainProgram(17);
    const auto inputs = RandomBits(2, program.NumInputs());
    JobCheckpoint store;
    CaptureViaFaultedRun(program, inputs, /*fault_ordinal=*/12, &store);
    ASSERT_FALSE(store.Empty());

    EXPECT_NE(ProgramFingerprint(program), ProgramFingerprint(other));
    const uint64_t end = other.FirstGateIndex() + other.NumGates();
    std::string error;
    EXPECT_FALSE(DecodeCheckpoint<bool>(store.record,
                                        ProgramFingerprint(other), end,
                                        &error)
                     .has_value());
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST(CheckpointRecord, EveryByteCorruptionAndTruncationIsDetected) {
    const pasm::Program program = ChainProgram(12);
    const auto inputs = RandomBits(3, program.NumInputs());
    JobCheckpoint store;
    CaptureViaFaultedRun(program, inputs, /*fault_ordinal=*/10, &store);
    ASSERT_FALSE(store.Empty());

    const uint64_t fp = ProgramFingerprint(program);
    const uint64_t end = program.FirstGateIndex() + program.NumGates();
    std::string base_error;
    ASSERT_TRUE(
        DecodeCheckpoint<bool>(store.record, fp, end, &base_error)
            .has_value())
        << base_error;

    // Flip one bit of every byte: body flips are caught by the CRC32C,
    // header flips by frame validation, and a v3->v2 version flip (which
    // drops the CRC) by the in-body fingerprint. Never a wrong resume.
    for (size_t pos = 0; pos < store.record.size(); ++pos) {
        for (unsigned char mask : {0x01, 0xFF}) {
            std::string mutated = store.record;
            mutated[pos] = static_cast<char>(
                static_cast<unsigned char>(mutated[pos]) ^ mask);
            std::string error;
            EXPECT_FALSE(
                DecodeCheckpoint<bool>(mutated, fp, end, &error)
                    .has_value())
                << "byte " << pos << " mask " << int(mask);
            EXPECT_FALSE(error.empty())
                << "byte " << pos << " mask " << int(mask);
        }
    }
    // Every strict prefix fails too.
    for (size_t cut = 0; cut < store.record.size(); ++cut) {
        std::string error;
        EXPECT_FALSE(DecodeCheckpoint<bool>(store.record.substr(0, cut),
                                            fp, end, &error)
                         .has_value())
            << "cut " << cut;
    }
}

TEST(CheckpointRecord, CorruptStoreFallsBackToFullRunOnEveryPath) {
    const pasm::Program program = ChainProgram(20);
    const auto inputs = RandomBits(4, program.NumInputs());
    PlainEvaluator eval;
    const auto want = RunProgram(program, eval, inputs);
    JobCheckpoint pristine;
    CaptureViaFaultedRun(program, inputs, /*fault_ordinal=*/16, &pristine);
    ASSERT_FALSE(pristine.Empty());

    for (const int32_t threads : {1, 4}) {
        JobCheckpoint corrupt = pristine;
        corrupt.record[corrupt.record.size() / 2] ^= 0x20;
        CheckpointRunStats stats;
        ExecOptions o;
        o.num_threads = threads;
        o.checkpoint_store = &corrupt;
        o.checkpoint_stats = &stats;
        EXPECT_EQ(Execute(program, eval, inputs, o), want);
        EXPECT_EQ(stats.resumes, 0u);
        EXPECT_EQ(stats.corrupt_discarded, 1u);
        EXPECT_TRUE(corrupt.Empty());  // Discarded, not retried.
    }
}

// ---------------------------------------------------------- resume state

TEST(ResumeStateTest, LevelCutBoundariesBracketTheSchedule) {
    auto p = pasm::Assemble(RandomNetlist(7, 5, 40));
    ASSERT_TRUE(p.has_value());
    const auto deps = p->BuildGateDependencies();

    // Boundary 1: no level is below the cut, so nothing is done and the
    // ready set is exactly the root gates.
    const ResumeState fresh =
        BuildResumeState(*p, deps, CheckpointCut::kLevel, 1);
    EXPECT_EQ(fresh.gates_done, 0u);
    EXPECT_EQ(fresh.remaining, p->NumGates());
    EXPECT_EQ(fresh.ready, deps.RootGates());

    const std::vector<uint64_t> levels = p->ValueLevels();
    uint64_t max_level = 0;
    for (uint64_t l : levels) max_level = std::max(max_level, l);
    for (uint64_t boundary = 1; boundary <= max_level + 1; ++boundary) {
        const ResumeState s =
            BuildResumeState(*p, deps, CheckpointCut::kLevel, boundary);
        EXPECT_EQ(s.gates_done + s.remaining, p->NumGates()) << boundary;
        // Done gates are exactly those below the boundary.
        uint64_t below = 0;
        for (uint64_t g = 0; g < p->NumGates(); ++g)
            if (levels[deps.first_gate + g] < boundary) ++below;
        EXPECT_EQ(s.gates_done, below) << boundary;
        // Every ready gate sits past the cut with no unfinished preds.
        for (uint64_t idx : s.ready) {
            EXPECT_GE(levels[idx], boundary) << boundary;
            EXPECT_EQ(s.pending[idx - deps.first_gate], 0u) << boundary;
            EXPECT_FALSE(s.done[idx - deps.first_gate]) << boundary;
        }
    }
    // Past the deepest level everything is done.
    const ResumeState all =
        BuildResumeState(*p, deps, CheckpointCut::kLevel, max_level + 1);
    EXPECT_EQ(all.remaining, 0u);
}

TEST(ResumeStateTest, OrdinalCutMatchesSequentialPrefix) {
    auto p = pasm::Assemble(RandomNetlist(8, 4, 30));
    ASSERT_TRUE(p.has_value());
    const auto deps = p->BuildGateDependencies();
    const uint64_t end = p->FirstGateIndex() + p->NumGates();
    for (uint64_t last_done = p->FirstGateIndex() - 1; last_done < end;
         ++last_done) {
        const ResumeState s =
            BuildResumeState(*p, deps, CheckpointCut::kOrdinal, last_done);
        const uint64_t done =
            last_done < p->FirstGateIndex()
                ? 0
                : last_done - p->FirstGateIndex() + 1;
        EXPECT_EQ(s.gates_done, done) << last_done;
        EXPECT_EQ(s.remaining, p->NumGates() - done) << last_done;
        for (uint64_t idx : s.ready) EXPECT_GT(idx, last_done);
    }
}

// ------------------------------------------------------------ policy knobs

TEST(CheckpointPolicyTest, MaxBytesVetoesOversizedRecords) {
    const pasm::Program program = ChainProgram(16);
    const auto inputs = RandomBits(5, program.NumInputs());
    PlainEvaluator eval;
    JobCheckpoint store;
    CheckpointRunStats stats;
    CheckpointPolicy policy;
    policy.every_n_levels = 1;
    policy.max_bytes = 1;  // Every record is bigger than this.
    RunProgramCheckpointed(program, eval, inputs, policy, &store, {}, {},
                           &stats);
    EXPECT_EQ(stats.checkpoints_taken, 0u);
    EXPECT_TRUE(store.Empty());
}

TEST(CheckpointPolicyTest, MinGatesBetweenThrottlesCadence) {
    const pasm::Program program = ChainProgram(32);
    const auto inputs = RandomBits(6, program.NumInputs());
    PlainEvaluator eval;
    JobCheckpoint dense_store, sparse_store;
    CheckpointRunStats dense, sparse;
    CheckpointPolicy policy;
    policy.every_n_levels = 1;
    RunProgramCheckpointed(program, eval, inputs, policy, &dense_store, {},
                           {}, &dense);
    policy.min_gates_between = 8;
    RunProgramCheckpointed(program, eval, inputs, policy, &sparse_store,
                           {}, {}, &sparse);
    EXPECT_GT(dense.checkpoints_taken, sparse.checkpoints_taken);
    EXPECT_GT(sparse.checkpoints_taken, 0u);
}

// ------------------------------------------- capture on threaded runs

TEST(ThreadedCheckpoint, EngineCapturesAndAKilledRunResumesBitExact) {
    // Threaded runs go through the engine, which captures level cuts at
    // its quiesce barrier; a run killed by a fault resumes from the last
    // one and finishes bit-exact.
    auto unplanned = pasm::Assemble(RandomNetlist(11, 5, 200));
    ASSERT_TRUE(unplanned.has_value());
    auto level_safe =
        unplanned->WithPlan(pasm::ComputeMemoryPlan(*unplanned));
    ASSERT_TRUE(level_safe.has_value());
    ASSERT_TRUE(level_safe->Plan()->level_safe);
    const pasm::Program& program = *level_safe;
    PlainEvaluator eval;
    const auto inputs = RandomBits(12, program.NumInputs());
    const auto want = RunProgram(program, eval, inputs);

    // Kill at the deepest gate, so at least one capture precedes it.
    const std::vector<uint64_t> levels = program.ValueLevels();
    uint64_t deepest = program.FirstGateIndex();
    for (uint64_t idx = deepest;
         idx < program.FirstGateIndex() + program.NumGates(); ++idx)
        if (levels[idx] > levels[deepest]) deepest = idx;
    ASSERT_GT(levels[deepest], 4u);

    CheckpointPolicy policy;
    policy.every_n_levels = 2;
    for (const int32_t batch : {1, 4}) {
        ExecOptions o;
        o.num_threads = 4;
        o.batch_size = batch;
        o.checkpoint = policy;

        JobCheckpoint store;
        CheckpointRunStats stats;
        o.checkpoint_store = &store;
        o.checkpoint_stats = &stats;
        EXPECT_EQ(Execute(program, eval, inputs, o), want) << batch;
        EXPECT_GE(stats.checkpoints_taken, 1u) << batch;
        ASSERT_FALSE(store.Empty()) << batch;
        const auto decoded = DecodeCheckpoint<bool>(
            store.record, ProgramFingerprint(program),
            program.FirstGateIndex() + program.NumGates());
        ASSERT_TRUE(decoded.has_value()) << batch;
        EXPECT_EQ(decoded->cut, CheckpointCut::kLevel) << batch;

        FaultPlan plan;
        plan.fault_every_nth_job = 1;
        plan.fault_gate_ordinal = deepest - program.FirstGateIndex();
        FaultInjector injector(plan);
        JobCheckpoint killed;
        CheckpointRunStats kill_stats;
        o.checkpoint_store = &killed;
        o.checkpoint_stats = &kill_stats;
        o.fault = FaultHook{&injector, 0, 0};
        EXPECT_THROW(Execute(program, eval, inputs, o), GateExecutionError)
            << batch;
        ASSERT_FALSE(killed.Empty()) << batch;
        EXPECT_GE(kill_stats.checkpoints_taken, 1u) << batch;

        // The transient fault clears on attempt 1, which resumes.
        o.fault = FaultHook{&injector, 0, 1};
        EXPECT_EQ(Execute(program, eval, inputs, o), want) << batch;
        EXPECT_EQ(kill_stats.resumes, 1u) << batch;
        EXPECT_GT(kill_stats.gates_resumed, 0u) << batch;
        EXPECT_EQ(kill_stats.corrupt_discarded, 0u) << batch;
    }
}

// ------------------------------------------------- acceptance: the matrix

/** Resume configurations: threads x batch through Execute. */
std::vector<ExecOptions> ResumeConfigs() {
    std::vector<ExecOptions> configs;
    for (const int32_t threads : {1, 4}) {
        for (const int32_t batch : {1, 4}) {
            ExecOptions o;
            o.num_threads = threads;
            o.batch_size = batch;
            configs.push_back(o);
        }
    }
    return configs;
}

class KillAndResumeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KillAndResumeTest, EveryBackendThreadsBatchPlanIsBitExact) {
    const Netlist n = RandomNetlist(GetParam(), 5, 60);
    auto unplanned = pasm::Assemble(n);
    ASSERT_TRUE(unplanned.has_value());
    pasm::MemoryPlanOptions tight_opts;
    tight_opts.level_safe = false;
    auto level_safe =
        unplanned->WithPlan(pasm::ComputeMemoryPlan(*unplanned));
    auto tight = unplanned->WithPlan(
        pasm::ComputeMemoryPlan(*unplanned, tight_opts));
    ASSERT_TRUE(level_safe.has_value());
    ASSERT_TRUE(tight.has_value());

    PlainEvaluator eval;
    const auto inputs = RandomBits(900 + GetParam(),
                                   unplanned->NumInputs());
    const auto want = RunProgram(*unplanned, eval, inputs);

    const pasm::Program* variants[] = {&*unplanned, &*level_safe, &*tight};
    const char* names[] = {"unplanned", "level-safe", "tight"};
    for (int v = 0; v < 3; ++v) {
        const pasm::Program& program = *variants[v];
        // Simulate a kill at the three-quarter mark of the sequential
        // order: execute exactly that prefix and snapshot the live set at
        // the ordinal cut (the cut kind valid to resume on every backend
        // and plan). Faulted-run capture is exercised elsewhere; cutting
        // by hand pins the boundary for every seed and variant.
        const uint64_t cut_idx =
            program.FirstGateIndex() + program.NumGates() * 3 / 4;
        PlainEvaluator capture_eval;
        ValuePlane<PlainEvaluator> plane;
        plane.Reset(program, inputs);
        typename detail::WorkerScratchOf<PlainEvaluator>::type scratch{};
        for (uint64_t idx = program.FirstGateIndex(); idx <= cut_idx; ++idx)
            plane.Apply(capture_eval, program, idx, scratch);
        const pasm::ValueLiveness liveness =
            pasm::ComputeValueLiveness(program);
        JobCheckpoint store;
        store.record = EncodeCheckpoint(
            program, plane, pasm::LiveValuesAtOrdinalCut(liveness, cut_idx),
            CheckpointCut::kOrdinal, cut_idx,
            cut_idx - program.FirstGateIndex() + 1);
        store.gates_completed = cut_idx - program.FirstGateIndex() + 1;
        ASSERT_FALSE(store.Empty()) << names[v];
        for (const ExecOptions& config : ResumeConfigs()) {
            JobCheckpoint copy = store;
            CheckpointRunStats stats;
            ExecOptions o = config;
            o.checkpoint_store = &copy;
            o.checkpoint_stats = &stats;
            EXPECT_EQ(Execute(program, eval, inputs, o), want)
                << names[v] << " threads=" << o.num_threads
                << " batch=" << o.batch_size;
            EXPECT_EQ(stats.resumes, 1u)
                << names[v] << " threads=" << o.num_threads
                << " batch=" << o.batch_size;
            EXPECT_GT(stats.gates_resumed, 0u) << names[v];
            EXPECT_EQ(stats.corrupt_discarded, 0u) << names[v];
        }
        // One thread, one gate per claim, on the engine itself (Execute
        // sends that configuration to the sequential interpreter).
        JobCheckpoint copy = store;
        CheckpointRunStats stats;
        Executor executor;
        EXPECT_EQ(executor.Run(program, eval, inputs, 1, {}, {}, 1, {},
                               &copy, &stats),
                  want)
            << names[v] << " engine at one thread";
        EXPECT_EQ(stats.resumes, 1u) << names[v];
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KillAndResumeTest,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace pytfhe::backend
