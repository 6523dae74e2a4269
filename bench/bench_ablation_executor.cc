/**
 * @file
 * Ablation: the wave-barrier interpreter (Algorithm 1, bench_util.h) vs
 * the dependency-counting engine behind Executor::Run.
 *
 * The adversarial shape for wave barriers is a deep, narrow circuit: every
 * wave is tiny, so the wave path pays thread spawn/join per level and
 * leaves workers idle while the slowest gate of each level finishes. The
 * dependency-counting executor keeps one pool alive and starts a gate the
 * moment its inputs exist. Two sections:
 *
 *   1. Plaintext gates (scheduling overhead isolated — gate cost ~ns, so
 *      the numbers are almost pure scheduler cost).
 *   2. Toy-parameter TFHE gates (real bootstraps, realistic gate cost).
 */
#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "backend/executor.h"
#include "bench_util.h"
#include "pasm/assembler.h"
#include "tfhe/gates.h"

using namespace pytfhe;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** `width` independent NAND chains of length `depth`: waves of size
 * `width`, `depth` levels. */
circuit::Netlist DeepNarrow(int32_t width, int32_t depth) {
    circuit::Netlist n;
    std::vector<circuit::NodeId> chain;
    for (int32_t w = 0; w < width; ++w) chain.push_back(n.AddInput());
    const circuit::NodeId seed = chain[0];
    for (int32_t d = 0; d < depth; ++d)
        for (auto& c : chain)
            c = n.AddGate(circuit::GateType::kNand, c, seed);
    for (auto c : chain) n.AddOutput(c);
    return n;
}

struct Rates {
    double wave;
    double dep;
};

template <typename Evaluator>
Rates Measure(const pasm::Program& p, Evaluator& eval,
              const std::vector<typename Evaluator::Ciphertext>& in,
              int32_t threads, int32_t reps, backend::Executor& executor) {
    const double gates = static_cast<double>(p.NumGates()) * reps;
    auto t0 = Clock::now();
    for (int32_t r = 0; r < reps; ++r)
        (void)bench::RunProgramThreaded(p, eval, in, threads);
    const double wave_s = SecondsSince(t0);
    t0 = Clock::now();
    for (int32_t r = 0; r < reps; ++r)
        (void)executor.Run(p, eval, in, threads);
    const double dep_s = SecondsSince(t0);
    return {gates / wave_s, gates / dep_s};
}

void PrintRow(const char* label, int32_t threads, const Rates& r) {
    std::printf("%-24s %7d %14.0f %14.0f %9.2fx\n", label, threads, r.wave,
                r.dep, r.dep / r.wave);
}

}  // namespace

int main() {
    std::printf("=== Ablation: wave-barrier vs dependency-counting executor "
                "===\n\n");
    std::printf("%-24s %7s %14s %14s %9s\n", "circuit", "threads",
                "wave gates/s", "dep gates/s", "speedup");

    // Section 1: plaintext gates, deep narrow circuit (depth 2000 x width
    // 8 = 16000 gates; the wave path spawns 8 threads 2000 times).
    {
        const auto p = pasm::Assemble(DeepNarrow(8, 2000));
        backend::PlainEvaluator eval;
        backend::Executor executor;
        std::vector<bool> in(8, true);
        for (int32_t threads : {2, 8}) {
            const auto r = Measure(*p, eval, in, threads, 3, executor);
            PrintRow("plain deep-narrow", threads, r);
        }
    }

    // Section 2: toy-parameter TFHE bootstraps on a smaller instance of
    // the same shape (depth 24 x width 8 = 192 bootstrapped gates).
    {
        tfhe::Rng rng(42);
        tfhe::SecretKeySet secret(tfhe::ToyParams(), rng);
        tfhe::GateEvaluator gates(secret, rng);
        backend::TfheEvaluator eval(gates);
        backend::Executor executor;
        const auto p = pasm::Assemble(DeepNarrow(8, 24));
        std::vector<tfhe::LweSample> in;
        for (int i = 0; i < 8; ++i) in.push_back(secret.Encrypt(i & 1, rng));
        for (int32_t threads : {2, 8}) {
            const auto r = Measure(*p, eval, in, threads, 2, executor);
            PrintRow("tfhe-toy deep-narrow", threads, r);
        }
    }

    std::printf("\nThe executor keeps one worker pool alive and starts each "
                "gate as soon as its\ninputs exist; the wave path re-spawns "
                "threads every level and barriers on the\nslowest gate per "
                "level.\n");
    return 0;
}
