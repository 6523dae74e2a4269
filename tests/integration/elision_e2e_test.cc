/**
 * @file
 * End-to-end acceptance for bootstrap elision: the same HDL netlist
 * compiled with and without the pass, executed under real encryption on
 * every backend path (sequential interpreter, the engine with and without
 * batched claims), must decrypt to identical results on
 * randomized encrypted inputs.
 */
#include <gtest/gtest.h>

#include <random>

#include "backend/executor.h"
#include "circuit/builder.h"
#include "core/compiler.h"
#include "hdl/word_ops.h"

namespace pytfhe {
namespace {

class ElisionE2eTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() {
        rng_ = new tfhe::Rng(42);
        secret_ = new tfhe::SecretKeySet(tfhe::ToyParams(), *rng_);
        gates_ = new tfhe::GateEvaluator(*secret_, *rng_);
    }
    static void TearDownTestSuite() {
        delete gates_;
        delete secret_;
        delete rng_;
    }

    std::vector<tfhe::LweSample> Encrypt(const std::vector<bool>& bits) {
        std::vector<tfhe::LweSample> out;
        out.reserve(bits.size());
        for (bool b : bits) out.push_back(secret_->Encrypt(b, *rng_));
        return out;
    }

    std::vector<bool> Decrypt(const std::vector<tfhe::LweSample>& samples) {
        std::vector<bool> bits;
        bits.reserve(samples.size());
        for (const auto& s : samples) bits.push_back(secret_->Decrypt(s));
        return bits;
    }

    /**
     * Compiles `netlist` twice — elided against the execution parameter
     * set, and all-bootstrapped — then checks both against the plain
     * evaluation on `trials` random encrypted inputs through every
     * backend execution path.
     */
    void ExpectElidedEquivalence(const circuit::Netlist& netlist,
                                 uint64_t seed, int trials,
                                 bool expect_elision = true) {
        core::CompileOptions with;
        with.params = tfhe::ToyParams();
        std::string error;
        auto elided = core::Compile(netlist, with, &error);
        ASSERT_TRUE(elided.has_value()) << error;
        // Toy noise is tiny, so the pass must actually fire on netlists
        // with absorbable XORs — otherwise this test is vacuous. (The
        // comparator is the counterexample: all its XNORs feed ANDs,
        // which can never absorb a linear operand.)
        if (expect_elision) {
            ASSERT_LT(elided->elision_stats.bootstraps_after,
                      elided->elision_stats.bootstraps_before);
        }

        auto plain = core::Compile(netlist, {}, &error);
        ASSERT_TRUE(plain.has_value()) << error;
        ASSERT_EQ(plain->elision_stats.bootstraps_after,
                  plain->elision_stats.bootstraps_before);

        backend::TfheEvaluator eval(*gates_);
        backend::Executor executor;
        std::mt19937_64 prng(seed);
        for (int t = 0; t < trials; ++t) {
            std::vector<bool> in(netlist.Inputs().size());
            for (size_t i = 0; i < in.size(); ++i) in[i] = prng() & 1;
            const std::vector<bool> want = netlist.EvaluatePlain(in);

            const auto enc = Encrypt(in);
            EXPECT_EQ(Decrypt(backend::RunProgram(elided->program, eval, enc)),
                      want)
                << "elided sequential, trial " << t;
            EXPECT_EQ(Decrypt(executor.Run(elided->program, eval, enc, 4,
                                           {}, {}, /*batch_size=*/4)),
                      want)
                << "elided batched executor, trial " << t;
            EXPECT_EQ(Decrypt(executor.Run(elided->program, eval, enc, 4)),
                      want)
                << "elided executor, trial " << t;
            EXPECT_EQ(Decrypt(backend::RunProgram(plain->program, eval, enc)),
                      want)
                << "bootstrapped sequential, trial " << t;
        }
    }

    static tfhe::Rng* rng_;
    static tfhe::SecretKeySet* secret_;
    static tfhe::GateEvaluator* gates_;
};

tfhe::Rng* ElisionE2eTest::rng_ = nullptr;
tfhe::SecretKeySet* ElisionE2eTest::secret_ = nullptr;
tfhe::GateEvaluator* ElisionE2eTest::gates_ = nullptr;

TEST_F(ElisionE2eTest, RippleAdderUnderEncryption) {
    hdl::Builder b;
    const hdl::Bits x = hdl::InputBits(b, 8, "x");
    const hdl::Bits y = hdl::InputBits(b, 8, "y");
    hdl::OutputBits(b, hdl::Add(b, x, y), "sum");
    ExpectElidedEquivalence(b.netlist(), 11, 3);
}

TEST_F(ElisionE2eTest, MultiplierUnderEncryption) {
    hdl::Builder b;
    const hdl::Bits x = hdl::InputBits(b, 4, "x");
    const hdl::Bits y = hdl::InputBits(b, 4, "y");
    hdl::OutputBits(b, hdl::UMul(b, x, y, 8), "prod");
    ExpectElidedEquivalence(b.netlist(), 13, 2);
}

TEST_F(ElisionE2eTest, ComparatorUnderEncryption) {
    hdl::Builder b;
    const hdl::Bits x = hdl::InputBits(b, 8, "x");
    const hdl::Bits y = hdl::InputBits(b, 8, "y");
    b.AddOutput(hdl::Ult(b, x, y), "lt");
    b.AddOutput(hdl::Eq(b, x, y), "eq");
    ExpectElidedEquivalence(b.netlist(), 17, 3, /*expect_elision=*/false);
}

TEST_F(ElisionE2eTest, ParityTreeUnderEncryption) {
    // The elision showcase: a 16-leaf XOR reduction compiles to zero
    // bootstraps under toy noise.
    hdl::Builder b;
    const hdl::Bits x = hdl::InputBits(b, 16, "x");
    circuit::NodeId acc = x[0];
    for (int32_t i = 1; i < x.Width(); ++i)
        acc = b.MakeGate(circuit::GateType::kXor, acc, x[i]);
    b.AddOutput(acc, "parity");
    ExpectElidedEquivalence(b.netlist(), 19, 4);
}

}  // namespace
}  // namespace pytfhe
