/**
 * @file
 * Batch-aware dispatch tests: ReadyList pop order, unfusable bootstraps
 * claimed alone, executor batch-vs-scalar equivalence (plain and encrypted, with exact profile
 * accounting), Execute batch_size plumbing and validation, serving-layer
 * batched scheduling, and fault isolation inside a fused batch (a faulted
 * gate fails only its own job). Labeled `concurrency` + `robustness`:
 * run under -DPYTFHE_SANITIZE=thread to prove race freedom.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "backend/execute.h"
#include "backend/executor.h"
#include "backend/fault.h"
#include "backend/serving.h"
#include "hdl/word_ops.h"
#include "pasm/assembler.h"

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

/** An 8-bit ripple-carry adder over two encrypted operands. */
pasm::Program AdderProgram() {
    hdl::Builder b;
    const hdl::Bits x = hdl::InputBits(b, 8, "x");
    const hdl::Bits y = hdl::InputBits(b, 8, "y");
    hdl::OutputBits(b, hdl::Add(b, x, y), "sum");
    auto p = pasm::Assemble(b.netlist());
    EXPECT_TRUE(p.has_value());
    return *p;
}

/** `width` independent AND gates XOR-reduced to one output: the ANDs all
 *  become ready simultaneously, so batch dispatch fuses them. */
std::shared_ptr<const pasm::Program> WideProgram(int32_t width) {
    Netlist n;
    std::vector<NodeId> gates;
    for (int32_t i = 0; i < width; ++i) {
        const NodeId a = n.AddInput();
        const NodeId b = n.AddInput();
        gates.push_back(n.AddGate(GateType::kAnd, a, b));
    }
    NodeId acc = gates[0];
    for (size_t i = 1; i < gates.size(); ++i)
        acc = n.AddGate(GateType::kXor, acc, gates[i]);
    n.AddOutput(acc);
    auto p = pasm::Assemble(n);
    EXPECT_TRUE(p.has_value());
    return std::make_shared<const pasm::Program>(std::move(*p));
}

/** A serial NAND chain: at most one gate ready at a time, so batched
 *  picks from this job always degenerate to singletons. */
std::shared_ptr<const pasm::Program> ChainForServing() {
    Netlist n;
    const NodeId a = n.AddInput();
    NodeId cur = a;
    for (int32_t i = 0; i < 20; ++i)
        cur = n.AddGate(GateType::kNand, cur, a);
    n.AddOutput(cur);
    auto p = pasm::Assemble(n);
    EXPECT_TRUE(p.has_value());
    return std::make_shared<const pasm::Program>(std::move(*p));
}

std::vector<bool> RandomBits(uint64_t seed, size_t count) {
    std::mt19937_64 rng(seed);
    std::vector<bool> bits(count);
    for (size_t i = 0; i < count; ++i) bits[i] = rng() & 1;
    return bits;
}

TEST(ReadyList, BatchPopsServeFifoWhileSinglePopsServeLifo) {
    ReadyList q;
    q.Assign({1, 2, 3, 4, 5});
    // A batch claim takes the oldest gates first.
    EXPECT_EQ(q.PopFifo(), 1u);
    EXPECT_EQ(q.PopFifo(), 2u);
    EXPECT_EQ(q.PopFifo(), 3u);
    // A single-gate claim keeps stack discipline on the remainder.
    EXPECT_EQ(q.PopLifo(), 5u);
    EXPECT_EQ(q.PopFifo(), 4u);
    EXPECT_TRUE(q.Empty());
    // Pushes after a drain start a fresh queue.
    q.Push(9);
    EXPECT_EQ(q.Front(), 9u);
    EXPECT_EQ(q.PopLifo(), 9u);
    EXPECT_TRUE(q.Empty());
}

TEST(ReadyList, FifoPopsKeepQueueOrderWhilePushesInterleave) {
    // Interleaved pushes and FIFO pops keep exact queue order, and
    // TakeAll hands back the remainder oldest first.
    ReadyList q;
    uint64_t next_in = 0, next_out = 0;
    for (int round = 0; round < 1000; ++round) {
        q.Push(next_in++);
        q.Push(next_in++);
        EXPECT_EQ(q.PopFifo(), next_out++);
    }
    const std::vector<uint64_t> rest = q.TakeAll();
    ASSERT_EQ(rest.size(), 1000u);
    for (uint64_t g : rest) EXPECT_EQ(g, next_out++);
    EXPECT_TRUE(q.Empty());
}

/**
 * A plain evaluator that records the peak number of concurrent Apply
 * calls. It has no ApplyBatch, so every bootstrap gate is unfusable.
 */
struct ConcurrencyProbe {
    using Ciphertext = bool;
    mutable std::atomic<int32_t> active{0};
    mutable std::atomic<int32_t> peak{0};

    bool Apply(GateType t, bool a, bool b) const {
        const int32_t now = active.fetch_add(1) + 1;
        int32_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        if (circuit::NeedsBootstrap(t))
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        active.fetch_sub(1);
        return circuit::EvalGate(t, a, b);
    }
};

TEST(ExecutorBatch, UnfusableBootstrapsSpreadAcrossWorkers) {
    // A batch claim holding gates the evaluator cannot fuse would run them
    // one after another on one worker; each is claimed alone instead.
    const auto program = WideProgram(16);
    const auto in = RandomBits(3, program->NumInputs());
    PlainEvaluator plain;
    const auto want = RunProgram(*program, plain, in);

    ConcurrencyProbe direct;
    Executor executor;
    EXPECT_EQ(executor.Run(*program, direct, in, 4, {}, {}, 4), want);
    EXPECT_GE(direct.peak.load(), 2);

    // One job on the serving engine, under the per-job in-flight cap.
    ConcurrencyProbe served;
    Executor pool;
    ServingOptions options;
    options.num_workers = 4;
    options.batch_size = 4;
    ServingExecutor<ConcurrencyProbe> serving(pool, options);
    auto job = serving.Submit(program, served, in);
    EXPECT_EQ(job->Outputs(), want);
    EXPECT_GE(served.peak.load(), 2);
}

class BatchExecutorPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchExecutorPropertyTest, BatchedRunsMatchSequentialOnPlainBits) {
    // PlainEvaluator has no ApplyBatch: the batch worker must fall back to
    // gate-by-gate execution with identical results and bookkeeping.
    const Netlist n = RandomNetlist(GetParam() ^ 0xBA7C, 8, 300);
    const auto p = pasm::Assemble(n);
    ASSERT_TRUE(p.has_value());
    PlainEvaluator eval;
    Executor executor;
    std::mt19937_64 rng(GetParam());
    std::vector<bool> in(8);
    for (size_t i = 0; i < in.size(); ++i) in[i] = rng() & 1;
    const auto want = RunProgram(*p, eval, in);
    for (int32_t threads : {1, 2, 8}) {
        for (int32_t batch : {2, 4, 8}) {
            EXPECT_EQ(executor.Run(*p, eval, in, threads, {}, {}, batch),
                      want)
                << "threads=" << threads << " batch=" << batch;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchExecutorPropertyTest,
                         ::testing::Range<uint64_t>(1, 6));

TEST(ExecuteBatch, ValidatesAndRoutesBatchSize) {
    const auto p = AdderProgram();
    PlainEvaluator eval;
    const std::vector<bool> in(16, true);
    const auto want = RunProgram(p, eval, in);

    ExecOptions options;
    options.batch_size = 0;
    EXPECT_THROW((void)Execute(p, eval, in, options), std::invalid_argument);
    options.batch_size = -3;
    EXPECT_THROW((void)Execute(p, eval, in, options), std::invalid_argument);

    // batch_size > 1 runs on the engine even single-threaded, and stays
    // equivalent.
    options.batch_size = 4;
    options.num_threads = 1;
    EXPECT_EQ(Execute(p, eval, in, options), want);
    options.num_threads = 4;
    EXPECT_EQ(Execute(p, eval, in, options), want);
}

TEST(ExecutorBatch, FaultInsideBatchFailsRunWithPreciseGateAttribution) {
    // A permanent fault at gate 0 inside a fused batch must surface as a
    // GateExecutionError naming gate 0, not the whole batch.
    const auto program = WideProgram(8);
    PlainEvaluator eval;
    Executor executor;
    FaultPlan plan;
    plan.fault_every_nth_job = 1;  // Every job faults at gate 0.
    plan.permanent_fraction = 1.0;
    FaultInjector inj(plan);
    const auto in = RandomBits(5, program->NumInputs());
    try {
        (void)executor.Run(*program, eval, in, 2, {}, FaultHook{&inj, 0, 0},
                           /*batch_size=*/4);
        FAIL() << "expected GateExecutionError";
    } catch (const GateExecutionError& e) {
        EXPECT_EQ(e.gate_ordinal(), 0u);
        EXPECT_FALSE(e.transient());
    }
    // The pool survives and the next batched run (no faults) completes.
    EXPECT_EQ(executor.Run(*program, eval, in, 2, {}, {}, 4),
              RunProgram(*program, eval, in));
}

/** Encrypted batched execution must be bit-identical to sequential. */
class EncryptedBatchTest : public ::testing::Test {
  protected:
    EncryptedBatchTest()
        : rng_(2025),
          secret_(tfhe::ToyParams(), rng_),
          gates_(secret_, rng_),
          eval_(gates_) {}

    std::vector<tfhe::LweSample> Encrypt(const std::vector<bool>& bits) {
        std::vector<tfhe::LweSample> out;
        for (bool b : bits) out.push_back(secret_.Encrypt(b, rng_));
        return out;
    }

    tfhe::Rng rng_;
    tfhe::SecretKeySet secret_;
    tfhe::GateEvaluator gates_;
    TfheEvaluator eval_;
};

TEST_F(EncryptedBatchTest, BatchedAdderBitIdenticalWithExactProfile) {
    const auto p = AdderProgram();
    std::vector<bool> bits;
    for (uint64_t v : {203u, 77u})
        for (int i = 0; i < 8; ++i) bits.push_back((v >> i) & 1);
    const auto inputs = Encrypt(bits);

    gates_.profile().Reset();
    const auto want = RunProgram(p, eval_, inputs);
    const uint64_t expected_bootstraps = gates_.profile().bootstrap_count();
    ASSERT_GT(expected_bootstraps, 0u);

    Executor executor;
    for (int32_t threads : {1, 2}) {
        for (int32_t batch : {2, 4, 8}) {
            gates_.profile().Reset();
            const auto got =
                executor.Run(p, eval_, inputs, threads, {}, {}, batch);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].a, want[i].a)
                    << "i=" << i << " threads=" << threads
                    << " batch=" << batch;
                EXPECT_EQ(got[i].b, want[i].b) << i;
            }
            // Fused kernel calls account every gate exactly once.
            EXPECT_EQ(gates_.profile().bootstrap_count(),
                      expected_bootstraps)
                << "threads=" << threads << " batch=" << batch;
        }
    }
}

TEST(ServingBatch, BatchedJobsCompleteBitExact) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 3;
    options.batch_size = 4;
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto wide = WideProgram(16);
    const auto chain = ChainForServing();
    std::vector<std::shared_ptr<ServingExecutor<PlainEvaluator>::Job>> jobs;
    std::vector<std::vector<bool>> inputs;
    for (uint64_t j = 0; j < 12; ++j) {
        const auto& program = (j % 2 == 0) ? wide : chain;
        inputs.push_back(RandomBits(100 + j, program->NumInputs()));
        jobs.push_back(serving.Submit(program, eval, inputs.back()));
    }
    for (uint64_t j = 0; j < jobs.size(); ++j) {
        EXPECT_EQ(jobs[j]->Wait(), JobStatus::kDone) << j;
        const auto& program = (j % 2 == 0) ? wide : chain;
        EXPECT_EQ(jobs[j]->Outputs(), RunProgram(*program, eval, inputs[j]))
            << j;
    }
    EXPECT_EQ(serving.stats().jobs_completed, jobs.size());
    EXPECT_EQ(serving.stats().jobs_failed, 0u);
}

TEST(ServingBatch, FaultInsideBatchFailsOnlyItsJob) {
    // Two jobs share the worker pool with batch_size 4: the injected
    // permanent fault at gate 0 of job 1 must fail job 1 alone while the
    // other gates picked into the same batch window complete their jobs.
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 2;
    options.batch_size = 4;
    FaultPlan plan;
    plan.fault_every_nth_job = 2;  // Jobs 1, 3, 5, ... fault at gate 0.
    plan.permanent_fraction = 1.0;
    FaultInjector inj(plan);
    options.fault_injector = &inj;
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = WideProgram(12);
    const auto in0 = RandomBits(20, program->NumInputs());
    const auto in1 = RandomBits(21, program->NumInputs());
    const auto in2 = RandomBits(22, program->NumInputs());
    auto job0 = serving.Submit(program, eval, in0);
    auto job1 = serving.Submit(program, eval, in1);
    auto job2 = serving.Submit(program, eval, in2);

    EXPECT_EQ(job0->Wait(), JobStatus::kDone);
    EXPECT_EQ(job1->Wait(), JobStatus::kFailed);
    EXPECT_EQ(job2->Wait(), JobStatus::kDone);
    EXPECT_EQ(job0->Outputs(), RunProgram(*program, eval, in0));
    EXPECT_EQ(job2->Outputs(), RunProgram(*program, eval, in2));
    const auto error = job1->Error();
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->gate_ordinal(), 0u);
    EXPECT_FALSE(error->transient());
    EXPECT_EQ(serving.stats().jobs_failed, 1u);
    EXPECT_EQ(serving.stats().jobs_completed, 2u);
}

TEST(ServingBatch, TransientFaultInsideBatchRetriesToBitExactCompletion) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 2;
    options.batch_size = 4;
    options.retry.max_attempts = 3;
    FaultPlan plan;
    plan.fault_every_nth_job = 2;  // Transient by default: retry succeeds.
    FaultInjector inj(plan);
    options.fault_injector = &inj;
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const auto program = WideProgram(10);
    std::vector<std::shared_ptr<ServingExecutor<PlainEvaluator>::Job>> jobs;
    std::vector<std::vector<bool>> inputs;
    for (uint64_t j = 0; j < 8; ++j) {
        inputs.push_back(RandomBits(40 + j, program->NumInputs()));
        jobs.push_back(serving.Submit(program, eval, inputs[j]));
    }
    for (uint64_t j = 0; j < jobs.size(); ++j) {
        EXPECT_EQ(jobs[j]->Wait(), JobStatus::kDone) << j;
        EXPECT_EQ(jobs[j]->Outputs(), RunProgram(*program, eval, inputs[j]))
            << j;
    }
    EXPECT_EQ(serving.stats().jobs_failed, 0u);
    EXPECT_GT(serving.stats().job_retries, 0u);
    EXPECT_GT(inj.counters().transient_faults, 0u);
}

}  // namespace
}  // namespace pytfhe::backend
