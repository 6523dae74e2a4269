/**
 * @file
 * Executor tests (the engine running one job): equivalence against the
 * sequential interpreter and the benchmarks' wave-barrier baseline on
 * plaintext and encrypted circuits, exact profile accounting under concurrency, argument
 * validation, and pool persistence across runs. Run under
 * -DPYTFHE_SANITIZE=thread (ctest -L concurrency) to prove race freedom.
 */
#include "backend/executor.h"

#include <gtest/gtest.h>
#include <random>

#include "backend/execute.h"
#include "bench_util.h"
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
        GateType t = static_cast<GateType>(rng() % circuit::kNumFrontendGateTypes);
        pool.push_back(
            n.AddGate(t, pool[rng() % pool.size()], pool[rng() % pool.size()]));
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

/** Bootstrapped (two-input) gates in a program; NOT/COPY are noiseless. */
uint64_t CountBootstrappedGates(const pasm::Program& p) {
    uint64_t n = 0;
    const uint64_t first = p.FirstGateIndex();
    for (uint64_t idx = first; idx < first + p.NumGates(); ++idx)
        if (p.GateAt(idx).type != GateType::kNot) ++n;
    return n;
}

class ExecutorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorPropertyTest, MatchesSequentialAndWavePathOnPlainBits) {
    const Netlist n = RandomNetlist(GetParam() ^ 0xD06, 8, 300);
    const auto p = pasm::Assemble(n);
    ASSERT_TRUE(p.has_value());
    PlainEvaluator eval;
    Executor executor;
    std::mt19937_64 rng(GetParam());
    for (int32_t threads : {1, 2, 8}) {
        std::vector<bool> in(8);
        for (size_t i = 0; i < in.size(); ++i) in[i] = rng() & 1;
        const auto want = RunProgram(*p, eval, in);
        EXPECT_EQ(executor.Run(*p, eval, in, threads), want)
            << "threads=" << threads;
        EXPECT_EQ(bench::RunProgramThreaded(*p, eval, in, threads), want)
            << "threads=" << threads;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(Executor, DeepNarrowChainExecutesInDependencyOrder) {
    // A serial 400-gate NAND chain: exactly one gate is ever ready, so any
    // scheduling mistake (missed decrement, early start) corrupts the
    // result.
    Netlist n;
    NodeId a = n.AddInput();
    NodeId cur = a;
    for (int i = 0; i < 400; ++i) cur = n.AddGate(GateType::kNand, cur, a);
    n.AddOutput(cur);
    const auto p = pasm::Assemble(n);
    ASSERT_TRUE(p.has_value());
    PlainEvaluator eval;
    Executor executor;
    for (bool in : {false, true}) {
        const std::vector<bool> bits{in};
        const auto want = n.EvaluatePlain(bits);
        for (int32_t threads : {2, 8})
            EXPECT_EQ(executor.Run(*p, eval, bits, threads), want)
                << "in=" << in << " threads=" << threads;
    }
}

TEST(Executor, PoolPersistsAcrossProgramsAndRuns) {
    PlainEvaluator eval;
    Executor executor;
    const auto adder = AdderProgram();
    const auto random_p = pasm::Assemble(RandomNetlist(3, 6, 120));
    ASSERT_TRUE(random_p.has_value());
    std::mt19937_64 rng(17);
    for (int run = 0; run < 4; ++run) {
        std::vector<bool> a(16), b(6);
        for (size_t i = 0; i < a.size(); ++i) a[i] = rng() & 1;
        for (size_t i = 0; i < b.size(); ++i) b[i] = rng() & 1;
        EXPECT_EQ(executor.Run(adder, eval, a, 4),
                  RunProgram(adder, eval, a));
        EXPECT_EQ(executor.Run(*random_p, eval, b, 4),
                  RunProgram(*random_p, eval, b));
    }
    // Workers were created once and reused, never torn down between runs.
    EXPECT_EQ(executor.pool().NumWorkers(), 3);
}

TEST(Executor, RejectsBadArguments) {
    const auto p = AdderProgram();
    PlainEvaluator eval;
    Executor executor;
    const std::vector<bool> too_few(3, false);
    const std::vector<bool> right(16, false);
    EXPECT_THROW((void)executor.Run(p, eval, too_few, 2),
                 std::invalid_argument);
    EXPECT_THROW((void)executor.Run(p, eval, right, 0),
                 std::invalid_argument);
    EXPECT_THROW((void)executor.Run(p, eval, right, -4),
                 std::invalid_argument);
    EXPECT_THROW((void)RunProgram(p, eval, too_few), std::invalid_argument);
    EXPECT_THROW((void)executor.Run(p, eval, right, 2, {}, {}, 0),
                 std::invalid_argument);
}

TEST(Executor, RunControlCancelAbortsAllPaths) {
    const auto p = AdderProgram();
    PlainEvaluator eval;
    Executor executor;
    const std::vector<bool> in(16, true);
    std::atomic<bool> cancel{true};  // Pre-raised: aborts at the first gate.
    RunControl control;
    control.cancel = &cancel;
    EXPECT_THROW((void)RunProgram(p, eval, in, control), CancelledError);
    EXPECT_THROW((void)executor.Run(p, eval, in, 1, control),
                 CancelledError);
    EXPECT_THROW((void)executor.Run(p, eval, in, 4, control),
                 CancelledError);
    // The pool survives an aborted run and executes the next one.
    cancel.store(false);
    EXPECT_EQ(executor.Run(p, eval, in, 4, control),
              RunProgram(p, eval, in));
}

TEST(Executor, RunControlDeadlineAbortsAllPaths) {
    const auto p = AdderProgram();
    PlainEvaluator eval;
    Executor executor;
    const std::vector<bool> in(16, false);
    RunControl control;
    control.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);
    EXPECT_THROW((void)RunProgram(p, eval, in, control),
                 DeadlineExceededError);
    EXPECT_THROW((void)executor.Run(p, eval, in, 4, control),
                 DeadlineExceededError);
    control.deadline = std::chrono::steady_clock::now() +
                       std::chrono::hours(1);
    EXPECT_EQ(executor.Run(p, eval, in, 4, control),
              RunProgram(p, eval, in));
}

TEST(Execute, DispatcherSelectsEquivalentPaths) {
    const auto p = AdderProgram();
    PlainEvaluator eval;
    Executor executor;
    std::mt19937_64 rng(31);
    std::vector<bool> in(16);
    for (size_t i = 0; i < in.size(); ++i) in[i] = rng() & 1;
    const auto want = RunProgram(p, eval, in);

    for (int32_t threads : {1, 4}) {
        for (int32_t batch : {1, 4}) {
            ExecOptions options;
            options.num_threads = threads;
            options.batch_size = batch;
            EXPECT_EQ(Execute(p, eval, in, options), want)
                << "threads=" << threads << " batch=" << batch;
            // And again through a caller-owned persistent executor.
            options.executor = &executor;
            EXPECT_EQ(Execute(p, eval, in, options), want)
                << "persistent, threads=" << threads << " batch=" << batch;
        }
    }
}

/** Encrypted equivalence across the sequential, engine and wave paths. */
class EncryptedExecutorTest : public ::testing::Test {
  protected:
    EncryptedExecutorTest()
        : rng_(2024),
          secret_(tfhe::ToyParams(), rng_),
          gates_(secret_, rng_),
          eval_(gates_) {}

    std::vector<tfhe::LweSample> Encrypt(const std::vector<bool>& bits) {
        std::vector<tfhe::LweSample> out;
        for (bool b : bits) out.push_back(secret_.Encrypt(b, rng_));
        return out;
    }

    std::vector<bool> Decrypt(const std::vector<tfhe::LweSample>& samples) {
        std::vector<bool> out;
        for (const auto& s : samples) out.push_back(secret_.Decrypt(s));
        return out;
    }

    tfhe::Rng rng_;
    tfhe::SecretKeySet secret_;
    tfhe::GateEvaluator gates_;
    TfheEvaluator eval_;
};

TEST_F(EncryptedExecutorTest, AdderEquivalentAcrossAllPathsWithExactProfile) {
    const auto p = AdderProgram();
    const uint64_t expected_bootstraps = CountBootstrappedGates(p);
    ASSERT_GT(expected_bootstraps, 0u);

    // 161 + 94 = 255, little-endian bits.
    std::vector<bool> bits;
    for (uint64_t v : {161u, 94u})
        for (int i = 0; i < 8; ++i) bits.push_back((v >> i) & 1);
    const auto inputs = Encrypt(bits);

    gates_.profile().Reset();
    const auto want = Decrypt(RunProgram(p, eval_, inputs));
    ASSERT_EQ(gates_.profile().bootstrap_count(), expected_bootstraps);

    Executor executor;
    for (int32_t threads : {1, 2, 8}) {
        gates_.profile().Reset();
        EXPECT_EQ(Decrypt(executor.Run(p, eval_, inputs, threads)), want)
            << "executor threads=" << threads;
        // Concurrent accounting is exact, not approximate: every path
        // reports the same bootstrap total.
        EXPECT_EQ(gates_.profile().bootstrap_count(), expected_bootstraps)
            << "executor threads=" << threads;

        gates_.profile().Reset();
        EXPECT_EQ(
            Decrypt(bench::RunProgramThreaded(p, eval_, inputs, threads)),
            want)
            << "wave threads=" << threads;
        EXPECT_EQ(gates_.profile().bootstrap_count(), expected_bootstraps)
            << "wave threads=" << threads;
    }

    uint64_t decoded = 0;
    for (size_t i = 0; i < 8; ++i)
        if (want[i]) decoded |= UINT64_C(1) << i;
    EXPECT_EQ(decoded, (161u + 94u) % 256);
}

TEST_F(EncryptedExecutorTest, SingleThreadBypassIsBitIdentical) {
    // num_threads == 1 must skip scheduling and produce the exact same
    // ciphertexts as the sequential interpreter, not just the same
    // decryptions.
    const auto p = AdderProgram();
    std::vector<bool> bits(16);
    for (size_t i = 0; i < bits.size(); ++i) bits[i] = (i * 7) % 3 == 0;
    const auto inputs = Encrypt(bits);

    const auto sequential = RunProgram(p, eval_, inputs);
    Executor executor;
    const auto bypass = executor.Run(p, eval_, inputs, 1);
    ASSERT_EQ(bypass.size(), sequential.size());
    for (size_t i = 0; i < bypass.size(); ++i) {
        EXPECT_EQ(bypass[i].a, sequential[i].a) << i;
        EXPECT_EQ(bypass[i].b, sequential[i].b) << i;
    }
}

}  // namespace
}  // namespace pytfhe::backend
