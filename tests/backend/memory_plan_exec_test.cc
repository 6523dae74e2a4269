/**
 * @file
 * Memory-planned execution equivalence: a planned program is bit-exact
 * with its unplanned form on every backend — sequential, the engine (1
 * and 4 threads), batched claims (B=4/8), and
 * the serving runtime under fault-injected retries — for both the
 * plaintext plane and the arena-backed TFHE plane. Plus the serving-side
 * arena contracts: the per-job byte budget (ArenaBudgetError at Submit)
 * and retry reuse of the job's arena (no reallocation, stable slab).
 * Labeled `opt` + `concurrency`: runs in the TSan job too.
 */
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "backend/arena.h"
#include "backend/execute.h"
#include "backend/fault.h"
#include "backend/serving.h"
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

/** The program plus its two planned forms (level-safe and tight). */
struct Variants {
    pasm::Program unplanned;
    pasm::Program level_safe;
    pasm::Program tight;
};

Variants Plan(const Netlist& n) {
    auto p = pasm::Assemble(n);
    EXPECT_TRUE(p.has_value());
    pasm::MemoryPlanOptions tight_opts;
    tight_opts.level_safe = false;
    auto level_safe = p->WithPlan(pasm::ComputeMemoryPlan(*p));
    auto tight = p->WithPlan(pasm::ComputeMemoryPlan(*p, tight_opts));
    EXPECT_TRUE(level_safe.has_value());
    EXPECT_TRUE(tight.has_value());
    return Variants{std::move(*p), std::move(*level_safe),
                    std::move(*tight)};
}

/** Every dispatcher configuration a plan must survive. */
std::vector<ExecOptions> AllConfigs() {
    std::vector<ExecOptions> configs;
    for (const int32_t threads : {1, 4}) {
        for (const int32_t batch : {1, 4, 8}) {
            ExecOptions dep;
            dep.num_threads = threads;
            dep.batch_size = batch;
            configs.push_back(dep);
        }
    }
    return configs;
}

class PlannedEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannedEquivalenceTest, AllBackendsMatchUnplannedExhaustively) {
    const Netlist n = RandomNetlist(GetParam(), 5, 80);
    const Variants v = Plan(n);
    PlainEvaluator eval;
    // Exhaustive over all 32 input vectors: planned forms must reproduce
    // the unplanned sequential reference bit for bit, on every path.
    for (uint32_t bits = 0; bits < 32; ++bits) {
        std::vector<bool> in(5);
        for (size_t i = 0; i < in.size(); ++i) in[i] = (bits >> i) & 1;
        const auto want = RunProgram(v.unplanned, eval, in);
        ASSERT_EQ(want, n.EvaluatePlain(in));
        for (const ExecOptions& o : AllConfigs()) {
            EXPECT_EQ(Execute(v.level_safe, eval, in, o), want)
                << "level-safe plan, threads=" << o.num_threads
                << " batch=" << o.batch_size << " bits=" << bits;
            EXPECT_EQ(Execute(v.tight, eval, in, o), want)
                << "tight plan, threads=" << o.num_threads
                << " batch=" << o.batch_size << " bits=" << bits;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannedEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 7));

TEST(PlannedServing, FaultInjectedRetriesStayBitExact) {
    PlainEvaluator eval;
    Executor executor;
    ServingOptions options;
    options.num_workers = 4;
    options.max_active_jobs = 4;
    FaultPlan fplan;
    fplan.fault_every_nth_job = 3;    // A third of jobs fault...
    fplan.transient_clears_after = 1; // ...transiently, attempt 0 only.
    FaultInjector inj(fplan);
    options.fault_injector = &inj;
    options.retry.max_attempts = 3;
    ServingExecutor<PlainEvaluator> serving(executor, options);

    const Netlist n = RandomNetlist(0xC0FFEE, 6, 120);
    const Variants v = Plan(n);
    const auto program =
        std::make_shared<const pasm::Program>(v.level_safe);

    std::mt19937_64 rng(5);
    constexpr int kJobs = 12;
    std::vector<std::vector<bool>> inputs;
    std::vector<std::shared_ptr<ServingExecutor<PlainEvaluator>::Job>> jobs;
    for (int i = 0; i < kJobs; ++i) {
        std::vector<bool> in(program->NumInputs());
        for (size_t j = 0; j < in.size(); ++j) in[j] = rng() & 1;
        inputs.push_back(in);
        jobs.push_back(serving.Submit(program, eval, in));
    }
    for (int i = 0; i < kJobs; ++i) {
        EXPECT_EQ(jobs[i]->Wait(), JobStatus::kDone) << i;
        EXPECT_EQ(jobs[i]->Outputs(),
                  RunProgram(v.unplanned, eval, inputs[i]))
            << i;
    }
    EXPECT_GE(serving.stats().job_retries,
              static_cast<uint64_t>(kJobs / 3));
    EXPECT_EQ(serving.stats().jobs_failed, 0u);
}

TEST(PlannedServing, ArenaBudgetAdmitsPlannedRejectsUnplanned) {
    // Chain: unplanned plane needs one slot per value, planned a handful.
    Netlist n;
    const NodeId a = n.AddInput();
    NodeId cur = a;
    for (int i = 0; i < 64; ++i) cur = n.AddGate(GateType::kNand, cur, a);
    n.AddOutput(cur);
    const Variants v = Plan(n);

    PlainEvaluator eval;
    const std::vector<bool> in{true};
    const size_t planned_need =
        ValuePlane<PlainEvaluator>::RequiredBytes(v.level_safe, in);
    const size_t unplanned_need =
        ValuePlane<PlainEvaluator>::RequiredBytes(v.unplanned, in);
    ASSERT_LT(planned_need * 4, unplanned_need);

    Executor executor;
    ServingOptions options;
    options.num_workers = 2;
    options.max_job_arena_bytes = planned_need;  // Tightest passing budget.
    ServingExecutor<PlainEvaluator> serving(executor, options);

    auto ok = serving.Submit(
        std::make_shared<const pasm::Program>(v.level_safe), eval, in);
    EXPECT_EQ(ok->Wait(), JobStatus::kDone);

    try {
        serving.Submit(std::make_shared<const pasm::Program>(v.unplanned),
                       eval, in);
        FAIL() << "expected ArenaBudgetError";
    } catch (const ArenaBudgetError& e) {
        EXPECT_EQ(e.required_bytes(), unplanned_need);
        EXPECT_EQ(e.budget_bytes(), planned_need);
    }
    // The rejected submission left no job behind.
    EXPECT_EQ(serving.stats().jobs_completed, 1u);
}

/** Full encrypted execution fixture (toy parameters). */
class PlannedTfheTest : public ::testing::Test {
  protected:
    PlannedTfheTest()
        : rng_(91),
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

TEST_F(PlannedTfheTest, ArenaPlaneMatchesPlainOnEveryBackend) {
    const Netlist n = RandomNetlist(4242, 4, 36);
    const Variants v = Plan(n);
    std::mt19937_64 prng(17);
    std::vector<bool> in(4);
    for (size_t i = 0; i < in.size(); ++i) in[i] = prng() & 1;
    const auto want = n.EvaluatePlain(in);

    for (const ExecOptions& o : AllConfigs()) {
        EXPECT_EQ(Decrypt(Execute(v.level_safe, eval_, Encrypt(in), o)),
                  want)
            << "level-safe plan, threads=" << o.num_threads
            << " batch=" << o.batch_size;
    }
    // The tight plan permits in-place gates; the sequential path and the
    // engine (anti-dependency edges) both honor it.
    ExecOptions seq;
    EXPECT_EQ(Decrypt(Execute(v.tight, eval_, Encrypt(in), seq)), want);
    ExecOptions dep;
    dep.num_threads = 4;
    dep.batch_size = 4;
    EXPECT_EQ(Decrypt(Execute(v.tight, eval_, Encrypt(in), dep)), want);
}

TEST_F(PlannedTfheTest, PlaneResetReusesTheSlabAcrossRetries) {
    // The serving retry contract: Reset on a warm plane must keep the
    // arena slab (same base address, same capacity) — a retry allocates
    // nothing and runs in the memory the job already owns.
    const Netlist n = RandomNetlist(77, 3, 20);
    const Variants v = Plan(n);
    const auto inputs = Encrypt({true, false, true});

    ValuePlane<TfheEvaluator> plane;
    plane.Reset(v.level_safe, inputs);
    const uint64_t first_gate = v.level_safe.FirstGateIndex();
    const tfhe::Torus32* slab0 = plane.BatchItemFor(v.level_safe,
                                                    first_gate).out.a;
    const size_t bytes0 = plane.PlaneBytes();
    EXPECT_EQ(bytes0, ValuePlane<TfheEvaluator>::RequiredBytes(
                          v.level_safe, inputs));

    tfhe::BootstrapScratch scratch;
    for (uint64_t idx = first_gate;
         idx < first_gate + v.level_safe.NumGates(); ++idx)
        plane.Apply(eval_, v.level_safe, idx, scratch);
    const auto run1 = Decrypt(plane.Harvest(v.level_safe));

    plane.Reset(v.level_safe, inputs);  // The retry path.
    EXPECT_EQ(plane.BatchItemFor(v.level_safe, first_gate).out.a, slab0);
    EXPECT_EQ(plane.PlaneBytes(), bytes0);
    for (uint64_t idx = first_gate;
         idx < first_gate + v.level_safe.NumGates(); ++idx)
        plane.Apply(eval_, v.level_safe, idx, scratch);
    EXPECT_EQ(Decrypt(plane.Harvest(v.level_safe)), run1);
    EXPECT_EQ(run1, n.EvaluatePlain({true, false, true}));
}

TEST_F(PlannedTfheTest, ServingRetriesPlannedEncryptedJobBitExact) {
    Executor executor;
    ServingOptions options;
    options.num_workers = 2;
    FaultPlan fplan;
    fplan.fault_every_nth_job = 1;    // Every job faults at gate 0...
    fplan.transient_clears_after = 1; // ...on attempt 0 only.
    FaultInjector inj(fplan);
    options.fault_injector = &inj;
    options.retry.max_attempts = 2;
    options.retry.initial_backoff_seconds = 0.0;
    ServingExecutor<TfheEvaluator> serving(executor, options);

    const Netlist n = RandomNetlist(31337, 3, 16);
    const Variants v = Plan(n);
    const std::vector<bool> in{true, true, false};
    auto job = serving.Submit(
        std::make_shared<const pasm::Program>(v.level_safe), eval_,
        Encrypt(in));
    EXPECT_EQ(job->Wait(), JobStatus::kDone);
    EXPECT_EQ(job->Metrics().attempts, 2u);
    EXPECT_EQ(Decrypt(job->Outputs()), n.EvaluatePlain(in));
}

}  // namespace
}  // namespace pytfhe::backend
