/**
 * @file
 * Fig. 10: PyTFHE distributed CPU vs single-threaded CPU on VIP-Bench.
 *
 * Every workload (18 VIP-Bench kernels + MNIST_S/M/L + Attention_S/L) is
 * compiled and executed through the Algorithm-1 cluster simulator on one
 * node (18 workers) and four nodes (72 workers). Rows are sorted by gate
 * count ascending, exactly like the figure. The dummy independent-program
 * throughput gives the ideal ceiling.
 *
 * Paper reference points: 17.4x of ideal 18 on one node and 60.5x of
 * ideal 72 on four nodes for the MNIST networks; small and serial
 * benchmarks (Hamming, Euler, NRSolver) scale poorly.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>

#include "backend/execute.h"
#include "bench_util.h"

using namespace pytfhe;

namespace {

/**
 * Real threaded execution of the compiled binary on the functional
 * (plaintext) backend: wave-barrier interpreter vs the persistent
 * dependency-counting executor at 8 threads. Gate cost is ~ns here, so
 * this measures scheduling overhead — the part Algorithm 1's barriers and
 * per-wave thread churn add on top of the cluster model above.
 */
void ExerciseLocalExecutor(const char* name, const pasm::Program& p,
                           backend::Executor& executor) {
    using Clock = std::chrono::steady_clock;
    backend::PlainEvaluator eval;
    std::mt19937_64 rng(1);
    std::vector<bool> in(p.NumInputs());
    for (size_t i = 0; i < in.size(); ++i) in[i] = rng() & 1;

    backend::ExecOptions dep;
    dep.num_threads = 8;
    dep.executor = &executor;

    auto t0 = Clock::now();
    const auto wave_out = bench::RunProgramThreaded(p, eval, in, 8);
    const double wave_s = std::chrono::duration<double>(Clock::now() - t0)
                              .count();
    t0 = Clock::now();
    const auto dep_out = backend::Execute(p, eval, in, dep);
    const double dep_s = std::chrono::duration<double>(Clock::now() - t0)
                             .count();
    if (wave_out != dep_out)
        std::printf("!! %s: executor output mismatch\n", name);
    const double g = static_cast<double>(p.NumGates());
    std::printf("%-16s %12.0f %12.0f %9.2fx\n", name, g / wave_s, g / dep_s,
                wave_s / dep_s);
}

}  // namespace

int main() {
    backend::ClusterConfig one_node;
    backend::ClusterConfig four_nodes;
    four_nodes.nodes = 4;

    struct Row {
        std::string name;
        uint64_t gates;
        uint64_t waves;
        double single;
        double s1, s4;
    };
    std::vector<Row> rows;
    // Programs small enough to also execute for real on local threads.
    std::vector<std::pair<std::string, pasm::Program>> local_programs;

    const vip::BenchScale scale;
    for (const auto& w : vip::AllWorkloads(scale)) {
        const core::Compiled c = bench::CompileWorkload(w);
        if (c.program.NumGates() < 100000)
            local_programs.emplace_back(w.name, c.program);
        Row r;
        r.name = w.name;
        r.gates = c.program.NumGates();
        const auto r1 = backend::SimulateCluster(c.program, one_node);
        const auto r4 = backend::SimulateCluster(c.program, four_nodes);
        r.waves = r1.waves;
        r.single = r1.single_core_seconds;
        r.s1 = r1.Speedup();
        r.s4 = r4.Speedup();
        rows.push_back(r);
        std::fflush(stdout);
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.gates < b.gates; });

    std::printf("=== Fig. 10: distributed CPU speedup over single-threaded "
                "CPU (simulated cluster, Table II platform) ===\n");
    std::printf("ideal: 1 node = %.1fx, 4 nodes = %.1fx "
                "(dummy independent-gate throughput)\n\n",
                backend::IdealThroughput(one_node) *
                    one_node.cpu.bootstrap_gate_seconds,
                backend::IdealThroughput(four_nodes) *
                    four_nodes.cpu.bootstrap_gate_seconds);
    std::printf("%-16s %12s %8s %12s %10s %10s\n", "benchmark", "gates",
                "waves", "1-core (s)", "1 node", "4 nodes");
    bench::PrintRule(76);
    for (const auto& r : rows) {
        std::printf("%-16s %12llu %8llu %12.2f %9.1fx %9.1fx\n",
                    r.name.c_str(), static_cast<unsigned long long>(r.gates),
                    static_cast<unsigned long long>(r.waves), r.single, r.s1,
                    r.s4);
    }
    std::printf("\npaper: MNIST networks reach 17.4x (ideal 18) and 60.5x "
                "(ideal 72); serial kernels stay near 1x.\n");

    std::printf("\n=== Local functional execution at 8 threads: wave-barrier "
                "vs dependency-counting executor ===\n");
    std::printf("%-16s %12s %12s %9s\n", "benchmark", "wave g/s", "dep g/s",
                "speedup");
    bench::PrintRule(52);
    backend::Executor executor;  // One pool shared across every program.
    for (const auto& [name, program] : local_programs)
        ExerciseLocalExecutor(name.c_str(), program, executor);
    return 0;
}
