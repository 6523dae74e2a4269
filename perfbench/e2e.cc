/**
 * @file
 * pytfhe_e2e — the end-to-end PyTFHE benchmark binary.
 *
 * Drives the public API the way users do — core::Compile, then
 * core::Client -> core::Server::Run / core::Service -> decrypt — and checks
 * every job bit-exact against circuit::Netlist::EvaluatePlain of the
 * unoptimized frontend netlist, a reference independent of the passes under
 * test. Workloads, one per layer later changes target:
 *
 *   fig1_tfhe128    Fig. 1 flow at tfhe-128: closed loop, one client, VIP
 *                   Hamming on Server::Run. Gate bootstrapping dominates.
 *   serve_toy       Multi-tenant serving on toy parameters through
 *                   core::Service: 8 Zipf-skewed tenants behind a 4-key
 *                   cache, open loops at two rates plus a saturation step.
 *                   Admission, queueing, batching and key reloads dominate.
 *   compile_mnist_s The developer's compile step on MNIST_S plus a
 *                   plaintext execute. Frontend, circuit/opt and pasm
 *                   dominate; tfhe does nothing.
 *
 * Usage:
 *   pytfhe_e2e --workload NAME --seed N --seconds S --trace 0|1
 *              [--workdir DIR] [--trace-out FILE] [--inject-flip JOB]
 *
 * With --trace 0 the final stdout line reports the end-to-end metrics;
 * with --trace 1 it reports the per-layer metrics, derived from spans
 * recorded around each public call plus GateProfile deltas, and the spans
 * are written as Chrome trace-event JSON to --trace-out. --inject-flip
 * flips one output bit of job JOB before the check (a self-test of the
 * checker: the run must then report a failure). Exit status is 0 only when
 * every output was correct.
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backend/cluster_sim.h"
#include "backend/cost_model.h"
#include "backend/execute.h"
#include "circuit/opt/lut_lower.h"
#include "circuit/opt/passes.h"
#include "core/compiler.h"
#include "core/key_cache.h"
#include "core/runtime.h"
#include "core/service.h"
#include "hdl/word_ops.h"
#include "pasm/assembler.h"
#include "pasm/memory_plan.h"
#include "tfhe/fft_batch_kernels.h"
#include "tfhe/noise.h"
#include "tfhe/params.h"
#include "tfhe/serialization.h"
#include "trace.h"
#include "vip/registry.h"

using namespace pytfhe;
using perfbench::Clock;
using perfbench::Seconds;
using perfbench::SpanRecord;
using perfbench::Tracer;

namespace {

// ------------------------------------------------------------ metric names

struct MetricDef {
    const char* name;
    const char* unit;
};

/** Reported with --trace 0; every workload reports every one, never 0. */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"jobs_per_s", "jobs/s"},
    {"peak_rss_mb", "MB"},    {"bootstraps", "count"},
    {"program_bytes", "bytes"},
};

/** Reported with --trace 1; 0 where a workload does not use the layer. */
constexpr MetricDef kPerLayer[] = {
    {"tfhe.bootstraps", "count"},
    {"tfhe.blind_rotate_s", "s"},
    {"tfhe.key_switch_s", "s"},
    {"tfhe.linear_s", "s"},
    {"tfhe.us_per_bootstrap", "us"},
    {"tfhe.keygen_s", "s"},
    {"tfhe.ekey_bytes", "bytes"},
    {"tfhe.ekey_save_s", "s"},
    {"tfhe.ekey_load_s", "s"},
    {"tfhe.encrypt_s", "s"},
    {"tfhe.decrypt_s", "s"},
    {"tfhe.ct_serde_s", "s"},
    {"backend.execute_s", "s"},
    {"backend.kernel_util", "ratio"},
    {"backend.idle_s", "s"},
    {"backend.plain_exec_s", "s"},
    {"backend.plain_exec_1t_s", "s"},
    {"backend.dispatch_ns_per_gate", "ns"},
    {"serving.queue_wait_p50_s", "s"},
    {"serving.queue_wait_p99_s", "s"},
    {"serving.run_p50_s", "s"},
    {"serving.max_active", "count"},
    {"serving.rejected", "count"},
    {"serving.retries", "count"},
    {"core.submit_s", "s"},
    {"core.key_cache.hit_rate", "ratio"},
    {"core.key_cache.reloads", "count"},
    {"core.key_cache.reload_s", "s"},
    {"core.key_cache.evictions", "count"},
    {"core.key_cache.peak_bytes", "bytes"},
    {"frontend.build_s", "s"},
    {"frontend.gates", "count"},
    {"circuit.optimize_s", "s"},
    {"circuit.gates_after_opt", "count"},
    {"circuit.elide_s", "s"},
    {"circuit.bootstraps_elided", "count"},
    {"circuit.lut_lower_s", "s"},
    {"circuit.luts", "count"},
    {"pasm.assemble_s", "s"},
    {"pasm.plan_s", "s"},
    {"pasm.plan_slots", "count"},
    {"pasm.serialize_s", "s"},
    {"pasm.load_s", "s"},
    {"loadgen.late_p99_s", "s"},
    {"loadgen.sent", "count"},
    {"loadgen.ok", "count"},
    {"loadgen.failed", "count"},
    {"loadgen.lo_p50_s", "s"},
    {"loadgen.lo_p99_s", "s"},
    {"loadgen.hi_p50_s", "s"},
    {"loadgen.hi_p99_s", "s"},
    {"loadgen.max_rate_jobs_s", "jobs/s"},
    {"loadgen.job_p50_s", "s"},
    {"model.cpu_err", "ratio"},
    {"model.cluster_err", "ratio"},
    {"trace.unaccounted_frac", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.self_tfhe_s", "s"},
    {"trace.self_backend_s", "s"},
    {"trace.self_core_s", "s"},
    {"trace.self_serving_s", "s"},
    {"trace.self_frontend_s", "s"},
    {"trace.self_circuit_s", "s"},
    {"trace.self_pasm_s", "s"},
    {"trace.self_check_s", "s"},
};

/** Layers whose per-job self time the traced run reports. */
constexpr const char* kSelfLayers[] = {"tfhe",     "backend", "core",
                                       "serving",  "frontend", "circuit",
                                       "pasm",     "check"};

/** Setup repetitions per run; setup_s is their median. */
constexpr int kSetups = 3;
/** serve_toy's toy-key setup takes ~40 ms: more repetitions steady it. */
constexpr int kServeSetups = 15;

/** Span job ids outside the 1..n range of measured jobs. */
constexpr uint64_t kSetupJob = uint64_t{1} << 40;
constexpr uint64_t kReplayJob = uint64_t{1} << 41;

/** Seed proven steady on but never used while tuning the benchmark. */
constexpr uint64_t kHeldOutSeed = 7919;

// ---------------------------------------------------------------- helpers

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/work";
    std::string trace_out;
    int64_t inject_flip = -1;
};

int Nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0) return n;
    }
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<int>(hc) : 1;
}

double PeakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0;  // Linux reports kilobytes.
}

/** Linear-interpolated quantile (q in [0,1]); 0 for an empty sample. */
double Quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * (v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/** A clock duration of `seconds`. */
Clock::duration FromSeconds(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

std::vector<bool> RandomBits(std::mt19937_64& rng, size_t n) {
    std::vector<bool> bits(n);
    for (size_t i = 0; i < n; ++i) bits[i] = (rng() >> 17) & 1;
    return bits;
}

std::string CpuModel() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::string s = line.substr(colon + 1);
                s.erase(0, s.find_first_not_of(' '));
                return s;
            }
        }
    }
    return "unknown";
}

std::string SimdTier() {
    if (tfhe::batch_detail::Simd512Available()) return "avx512f";
    if (tfhe::batch_detail::SimdAvailable()) return "avx2";
    return "portable";
}

std::string JsonEscape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
}

/** Host fingerprint plus the run's inputs, as one JSON object. */
std::string HostJson(const Args& args, int threads) {
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"cpu_model\":\"%s\",\"simd_tier\":\"%s\",\"nproc\":%d,"
        "\"build_type\":\"%s\",\"pytfhe_native\":%s,\"workload\":\"%s\","
        "\"seed\":%llu,\"held_out_seed\":%llu,\"seconds\":%.3f,"
        "\"trace\":%d,\"threads\":%d}",
        JsonEscape(CpuModel()).c_str(), SimdTier().c_str(), Nproc(),
        PERFBENCH_BUILD_TYPE, PERFBENCH_NATIVE ? "true" : "false",
        JsonEscape(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed),
        static_cast<unsigned long long>(kHeldOutSeed), args.seconds,
        args.trace ? 1 : 0, threads);
    return buf;
}

/** Per-run accounting shared by every workload. */
struct Report {
    std::map<std::string, double> metrics;
    /** Human-readable extras: printed, not gated. */
    std::vector<std::pair<std::string, std::string>> extras;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;

    void Extra(const std::string& name, double value, const char* unit) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g %s", value, unit);
        extras.emplace_back(name, buf);
    }
};

/**
 * Compares one job's outputs against the plaintext reference. A mismatch
 * makes the job failed and the run incorrect.
 */
bool CheckOutputs(std::vector<bool> got, const std::vector<bool>& want,
                  uint64_t job, const Args& args, Report& report) {
    if (args.inject_flip >= 0 && job == static_cast<uint64_t>(args.inject_flip)
        && !got.empty())
        got[0] = !got[0];
    if (got == want) return true;
    report.correct = false;
    std::fprintf(stderr, "perfbench: job %llu output mismatch vs "
                         "EvaluatePlain\n",
                 static_cast<unsigned long long>(job));
    return false;
}

std::string ProgramBytes(const pasm::Program& program) {
    std::ostringstream os;
    program.Serialize(os);
    return os.str();
}

/** Per-job sums of spans (layer, name); median over the jobs that have any. */
double MedianPerJob(const std::vector<SpanRecord>& spans, const char* layer,
                    const char* name) {
    std::map<uint64_t, double> per_job;
    for (const SpanRecord& s : spans)
        if (s.layer == layer && s.name == name) per_job[s.job] += s.Duration();
    std::vector<double> v;
    for (const auto& [job, d] : per_job) v.push_back(d);
    return Median(v);
}

/** Kernel time and bootstraps: a GateProfile delta. */
tfhe::GateProfileSnapshot Delta(const tfhe::GateProfileSnapshot& a,
                                const tfhe::GateProfileSnapshot& b) {
    return {b.linear_seconds - a.linear_seconds,
            b.blind_rotate_seconds - a.blind_rotate_seconds,
            b.key_switch_seconds - a.key_switch_seconds,
            b.bootstrap_count - a.bootstrap_count};
}

void Accumulate(tfhe::GateProfileSnapshot& acc,
                const tfhe::GateProfileSnapshot& d) {
    acc.linear_seconds += d.linear_seconds;
    acc.blind_rotate_seconds += d.blind_rotate_seconds;
    acc.key_switch_seconds += d.key_switch_seconds;
    acc.bootstrap_count += d.bootstrap_count;
}

/**
 * Kernel-split metrics over `jobs` executions: `kernel` is their summed
 * GateProfile delta, `execute_wall` their summed execute wall on
 * `workers` workers, `gates` the gates they executed in total.
 */
void ReportKernel(const tfhe::GateProfileSnapshot& kernel, double execute_wall,
                  uint64_t gates, int workers, uint64_t jobs, Report& r) {
    if (jobs == 0) return;
    const double busy = kernel.TotalSeconds();
    r.metrics["tfhe.bootstraps"] =
        static_cast<double>(kernel.bootstrap_count) / jobs;
    r.metrics["tfhe.blind_rotate_s"] = kernel.blind_rotate_seconds / jobs;
    r.metrics["tfhe.key_switch_s"] = kernel.key_switch_seconds / jobs;
    r.metrics["tfhe.linear_s"] = kernel.linear_seconds / jobs;
    if (kernel.bootstrap_count > 0)
        r.metrics["tfhe.us_per_bootstrap"] =
            1e6 * (kernel.blind_rotate_seconds + kernel.key_switch_seconds) /
            kernel.bootstrap_count;
    if (execute_wall <= 0.0) return;
    const double capacity = workers * execute_wall;
    r.metrics["backend.kernel_util"] = busy / capacity;
    r.metrics["backend.idle_s"] = (capacity - busy) / jobs;
    if (gates > 0)
        r.metrics["backend.dispatch_ns_per_gate"] =
            1e9 * (capacity - busy) / workers / gates;
}

/** Self time per layer and unaccounted job wall, from the traced spans. */
void ReportTrace(const Tracer& tracer, uint64_t traced_jobs, Report& r) {
    const std::vector<SpanRecord> spans = tracer.Spans();
    const auto self = Tracer::SelfSecondsByLayer(spans, 1, kSetupJob);
    for (const char* layer : kSelfLayers) {
        const auto it = self.find(layer);
        r.metrics[std::string("trace.self_") + layer + "_s"] =
            it == self.end() || traced_jobs == 0 ? 0.0
                                                 : it->second / traced_jobs;
    }
    r.metrics["trace.unaccounted_frac"] = Tracer::UnaccountedFraction(spans);
}

/** trace.overhead: traced against untraced median job time. */
void ReportOverhead(const std::vector<double>& traced,
                    const std::vector<double>& untraced, Report& r) {
    const double u = Median(untraced);
    if (u > 0.0 && !traced.empty())
        r.metrics["trace.overhead"] = Median(traced) / u - 1.0;
}

// ------------------------------------------------------ compile + replay

/** One program of a workload: its frontend netlist and compiled binary. */
struct Built {
    circuit::Netlist netlist;  ///< Unoptimized: the plaintext reference.
    core::Compiled compiled;
    std::string bytes;          ///< Serialized compiled program.
};

Built BuildAndCompile(const std::function<circuit::Netlist()>& frontend,
                      const core::CompileOptions& options, Tracer* tracer,
                      uint64_t job, int64_t parent) {
    std::optional<circuit::Netlist> netlist;
    {
        Tracer::Scope s(tracer, "frontend", "build", job, parent);
        netlist = frontend();
    }
    std::string error;
    std::optional<core::Compiled> compiled;
    {
        Tracer::Scope s(tracer, "core", "compile", job, parent);
        compiled = core::Compile(*netlist, options, &error);
    }
    if (!compiled) throw std::runtime_error("compile failed: " + error);
    std::string bytes;
    {
        Tracer::Scope s(tracer, "pasm", "serialize", job, parent);
        bytes = ProgramBytes(compiled->program);
    }
    return Built{std::move(*netlist), std::move(*compiled), std::move(bytes)};
}

/** Counts the replay reports for one program. */
struct ReplayCounts {
    uint64_t gates_after_opt = 0;
    uint64_t bootstraps_elided = 0;
    uint64_t luts = 0;
    uint64_t plan_slots = 0;
};

/**
 * Re-runs core::Compile's public passes in its order — Optimize,
 * LowerToLuts, ElideBootstraps, Assemble, ComputeMemoryPlan/WithPlan —
 * with a span around each, then a serialize/deserialize round trip.
 * Returns nullopt (and reports why) unless the result is byte-identical to
 * `expected`, the binary core::Compile produced: only then do the per-pass
 * times describe the program that was benchmarked.
 */
std::optional<ReplayCounts> ReplayCompile(const circuit::Netlist& netlist,
                                          const core::CompileOptions& options,
                                          const std::string& expected,
                                          Tracer* tracer) {
    ReplayCounts counts;
    std::optional<circuit::OptResult> opt;
    {
        Tracer::Scope s(tracer, "circuit", "optimize", kReplayJob, -1);
        opt = circuit::Optimize(netlist, options.opt);
    }
    counts.gates_after_opt = opt->netlist.ComputeStats().num_gates;
    const bool source_multibit = netlist.MessageModulus() != 0;
    if (options.multibit != 0 && !source_multibit && options.params) {
        const int64_t budget =
            tfhe::MaxMultibitWeightBudget(*options.params, options.multibit);
        if (budget >= 5) {
            circuit::LutLowerOptions lower;
            lower.message_modulus = options.multibit;
            lower.weight_budget = budget;
            Tracer::Scope s(tracer, "circuit", "lut_lower", kReplayJob, -1);
            circuit::LutLowerResult lowered =
                circuit::LowerToLuts(opt->netlist, lower);
            opt->netlist = std::move(lowered.netlist);
        }
    }
    counts.luts = opt->netlist.ComputeStats().num_lut_gates;
    if (options.params && options.elision.enabled &&
        opt->netlist.MessageModulus() == 0) {
        Tracer::Scope s(tracer, "circuit", "elide", kReplayJob, -1);
        circuit::ElisionResult elided = circuit::ElideBootstraps(
            opt->netlist, *options.params, options.elision);
        counts.bootstraps_elided =
            elided.stats.bootstraps_before - elided.stats.bootstraps_after;
        opt->netlist = std::move(elided.netlist);
    }
    std::string error;
    std::optional<pasm::Program> program;
    {
        Tracer::Scope s(tracer, "pasm", "assemble", kReplayJob, -1);
        program = pasm::Assemble(opt->netlist, &error);
    }
    if (program && options.plan_memory) {
        Tracer::Scope s(tracer, "pasm", "plan", kReplayJob, -1);
        pasm::MemoryPlan plan = pasm::ComputeMemoryPlan(*program);
        counts.plan_slots = plan.num_slots;
        program = program->WithPlan(std::move(plan), &error);
    }
    if (!program) {
        std::fprintf(stderr, "perfbench: replay failed: %s\n", error.c_str());
        return std::nullopt;
    }
    std::string bytes;
    {
        Tracer::Scope s(tracer, "pasm", "serialize", kReplayJob, -1);
        bytes = ProgramBytes(*program);
    }
    {
        Tracer::Scope s(tracer, "pasm", "load", kReplayJob, -1);
        std::istringstream is(bytes);
        if (!pasm::Program::Deserialize(is, &error)) {
            std::fprintf(stderr, "perfbench: replayed binary does not load: "
                                 "%s\n", error.c_str());
            return std::nullopt;
        }
    }
    if (bytes != expected) {
        std::fprintf(stderr, "perfbench: replayed passes are not "
                             "byte-identical to core::Compile's binary\n");
        return std::nullopt;
    }
    return counts;
}

/** Replays every program of a workload and reports the pass metrics. */
void ReportReplay(const std::vector<const Built*>& programs,
                  const std::vector<core::CompileOptions>& options,
                  Tracer& tracer, Report& r) {
    ReplayCounts total;
    for (size_t i = 0; i < programs.size(); ++i) {
        const auto counts = ReplayCompile(programs[i]->netlist, options[i],
                                          programs[i]->bytes, &tracer);
        ++r.attempted;
        if (!counts) {
            ++r.failed;
            r.correct = false;
            continue;
        }
        total.gates_after_opt += counts->gates_after_opt;
        total.bootstraps_elided += counts->bootstraps_elided;
        total.luts += counts->luts;
        total.plan_slots += counts->plan_slots;
    }
    const std::vector<SpanRecord> spans = tracer.Spans();
    auto replay_sum = [&](const char* layer, const char* name) {
        double sum = 0.0;
        for (const SpanRecord& s : spans)
            if (s.job == kReplayJob && s.layer == layer && s.name == name)
                sum += s.Duration();
        return sum;
    };
    r.metrics["circuit.optimize_s"] = replay_sum("circuit", "optimize");
    r.metrics["circuit.lut_lower_s"] = replay_sum("circuit", "lut_lower");
    r.metrics["circuit.elide_s"] = replay_sum("circuit", "elide");
    r.metrics["pasm.assemble_s"] = replay_sum("pasm", "assemble");
    r.metrics["pasm.plan_s"] = replay_sum("pasm", "plan");
    r.metrics["circuit.gates_after_opt"] =
        static_cast<double>(total.gates_after_opt);
    r.metrics["circuit.bootstraps_elided"] =
        static_cast<double>(total.bootstraps_elided);
    r.metrics["circuit.luts"] = static_cast<double>(total.luts);
    r.metrics["pasm.plan_slots"] = static_cast<double>(total.plan_slots);
}

/** Static program metrics shared by all workloads (summed over programs). */
void ReportPrograms(const std::vector<const Built*>& programs, Report& r) {
    double bootstraps = 0.0, bytes = 0.0, gates = 0.0;
    for (const Built* b : programs) {
        bootstraps +=
            backend::ComputeGateMix(b->compiled.program).bootstrap_gates;
        bytes += static_cast<double>(b->bytes.size());
        gates += static_cast<double>(b->netlist.ComputeStats().num_gates);
    }
    r.metrics["bootstraps"] = bootstraps;
    r.metrics["program_bytes"] = bytes;
    r.metrics["frontend.gates"] = gates;
}

/** Setup-span medians shared by the encrypted workloads. */
void ReportSetupSpans(const std::vector<SpanRecord>& spans, Report& r) {
    auto median_of = [&](const char* layer, const char* name) {
        std::vector<SpanRecord> setup;
        for (const SpanRecord& s : spans)
            if (s.job >= kSetupJob && s.job < kReplayJob) setup.push_back(s);
        return MedianPerJob(setup, layer, name);
    };
    r.metrics["tfhe.keygen_s"] = median_of("tfhe", "keygen");
    r.metrics["tfhe.ekey_save_s"] = median_of("tfhe", "ekey_save");
    r.metrics["tfhe.ekey_load_s"] = median_of("tfhe", "ekey_load");
    r.metrics["frontend.build_s"] = median_of("frontend", "build");
    r.metrics["pasm.serialize_s"] = MedianPerJob(spans, "pasm", "serialize");
    r.metrics["pasm.load_s"] = MedianPerJob(spans, "pasm", "load");
}

// ------------------------------------------------------- key provisioning

/** Writes `gates`' evaluation-key artifact to `path`; returns its size. */
uint64_t SaveKey(const tfhe::GateEvaluator& gates, const std::string& path) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    tfhe::SaveEvaluationKey(os, gates.key(), gates.key_id());
    os.flush();
    if (!os) throw std::runtime_error("cannot write " + path);
    return static_cast<uint64_t>(os.tellp());
}

std::unique_ptr<tfhe::GateEvaluator> LoadKey(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) throw std::runtime_error("cannot open " + path);
    tfhe::EvaluationKeyArtifact artifact = tfhe::LoadEvaluationKeyOrThrow(is);
    return std::make_unique<tfhe::GateEvaluator>(
        std::make_shared<tfhe::BootstrappingKey>(std::move(artifact.key)),
        artifact.key_id);
}

/**
 * The client half of provisioning: keygen (secret key, bootstrapping key
 * incl. its FFT conversion, key-switching key), then the .ekey artifact
 * round trip a real deployment uploads. Returns the loaded server-side key.
 */
std::unique_ptr<tfhe::GateEvaluator> Provision(core::Client& client,
                                               const std::string& path,
                                               Tracer* tracer, uint64_t job,
                                               uint64_t* ekey_bytes) {
    std::shared_ptr<tfhe::GateEvaluator> generated;
    {
        Tracer::Scope s(tracer, "tfhe", "keygen", job, -1);
        generated = client.MakeEvaluationKey();
    }
    {
        Tracer::Scope s(tracer, "tfhe", "ekey_save", job, -1);
        *ekey_bytes = SaveKey(*generated, path);
    }
    generated.reset();
    Tracer::Scope s(tracer, "tfhe", "ekey_load", job, -1);
    return LoadKey(path);
}

// ------------------------------------------------ closed-loop client (fig1)

/** Per-job timings the closed loop keeps besides the spans. */
struct ClosedLoop {
    std::vector<double> job_seconds;     ///< Every job.
    std::vector<double> traced_seconds;    ///< Jobs the tracer recorded.
    std::vector<double> untraced_seconds;  ///< The other jobs.
    double traced_execute_wall = 0.0;
    tfhe::GateProfileSnapshot traced_kernel;
    uint64_t traced_jobs = 0;
};

/**
 * Runs client jobs back to back — encrypt, ciphertext upload serde,
 * execute, download serde, decrypt, check — until `deadline` has passed
 * and at least `min_jobs` jobs ran. In a traced run every other job is
 * traced, so traced and untraced job times come from the same window.
 */
ClosedLoop RunClosedLoop(core::Client& client, const Built& built,
                         core::Server& server,
                         const core::RunOptions& run,
                         Clock::time_point deadline, int min_jobs,
                         std::mt19937_64& rng, Tracer* tracer,
                         const Args& args, Report& report) {
    ClosedLoop loop;
    const pasm::Program& program = built.compiled.program;
    for (uint64_t job = 1;
         static_cast<int>(job) <= min_jobs || Clock::now() < deadline; ++job) {
        Tracer* t = tracer && tracer->enabled() && job % 2 == 1 ? tracer
                                                                : nullptr;
        const std::vector<bool> in = RandomBits(rng, program.NumInputs());
        const tfhe::GateProfileSnapshot before = server.profile().Snapshot();
        const Clock::time_point t0 = Clock::now();
        const int64_t root = t ? t->Open("job", "job", t0, job) : -1;
        core::Ciphertexts cts;
        {
            Tracer::Scope s(t, "tfhe", "encrypt", job, root);
            cts = client.EncryptBitsFor(program, in);
        }
        {
            Tracer::Scope s(t, "tfhe", "ct_serde", job, root);
            std::stringstream wire;
            tfhe::SaveLweSamples(wire, cts);
            cts = tfhe::LoadLweSamplesOrThrow(wire);
        }
        const Clock::time_point e0 = Clock::now();
        core::Ciphertexts out;
        {
            Tracer::Scope s(t, "backend", "execute", job, root);
            out = server.Run(program, cts, run);
        }
        const double execute_wall = Seconds(e0, Clock::now());
        {
            Tracer::Scope s(t, "tfhe", "ct_serde", job, root);
            std::stringstream wire;
            tfhe::SaveLweSamples(wire, out);
            out = tfhe::LoadLweSamplesOrThrow(wire);
        }
        std::vector<bool> got;
        {
            Tracer::Scope s(t, "tfhe", "decrypt", job, root);
            got = client.DecryptBitsFor(program, out);
        }
        bool ok;
        {
            Tracer::Scope s(t, "check", "check", job, root);
            ok = CheckOutputs(got, built.netlist.EvaluatePlain(in), job, args,
                              report);
        }
        const Clock::time_point t1 = Clock::now();
        if (t) t->Close(root, t1);
        ++report.attempted;
        if (!ok) ++report.failed;
        loop.job_seconds.push_back(Seconds(t0, t1));
        if (t) {
            loop.traced_seconds.push_back(Seconds(t0, t1));
            loop.traced_execute_wall += execute_wall;
            Accumulate(loop.traced_kernel,
                       Delta(before, server.profile().Snapshot()));
            ++loop.traced_jobs;
        } else {
            loop.untraced_seconds.push_back(Seconds(t0, t1));
        }
    }
    return loop;
}

/** Metrics the closed loop reports. */
void ReportClosedLoop(const ClosedLoop& loop, const Built& built, int workers,
                      const Tracer& tracer, Report& r) {
    double total = 0.0;
    for (double s : loop.job_seconds) total += s;
    r.metrics["jobs_per_s"] = loop.job_seconds.size() / total;
    r.metrics["loadgen.job_p50_s"] = Median(loop.job_seconds);
    r.Extra("job_p50_s", Median(loop.job_seconds), "s");
    if (!tracer.enabled()) return;
    const std::vector<SpanRecord> spans = tracer.Spans();
    r.metrics["tfhe.encrypt_s"] = MedianPerJob(spans, "tfhe", "encrypt");
    r.metrics["tfhe.decrypt_s"] = MedianPerJob(spans, "tfhe", "decrypt");
    r.metrics["tfhe.ct_serde_s"] = MedianPerJob(spans, "tfhe", "ct_serde");
    r.metrics["backend.execute_s"] =
        loop.traced_jobs ? loop.traced_execute_wall / loop.traced_jobs : 0.0;
    ReportKernel(loop.traced_kernel, loop.traced_execute_wall,
                 built.compiled.program.NumGates() * loop.traced_jobs, workers,
                 loop.traced_jobs, r);
    ReportOverhead(loop.traced_seconds, loop.untraced_seconds, r);
    ReportTrace(tracer, loop.traced_jobs, r);

    // Model error (ROADMAP 1(d)): predicted execute seconds at `workers`
    // threads against the measured traced execute wall. Reported only.
    const double measured = r.metrics["backend.execute_s"];
    if (measured > 0.0) {
        const pasm::Program& program = built.compiled.program;
        const backend::CpuCostModel cpu;
        const double cpu_pred =
            backend::SingleCoreSeconds(backend::ComputeGateMix(program), cpu) /
            workers;
        backend::ClusterConfig cluster;
        cluster.nodes = 1;
        cluster.workers_per_node = workers;
        const double cluster_pred =
            backend::SimulateCluster(program, cluster).seconds;
        r.metrics["model.cpu_err"] = cpu_pred / measured - 1.0;
        r.metrics["model.cluster_err"] = cluster_pred / measured - 1.0;
    }
}

circuit::Netlist HammingNetlist() {
    return vip::FindWorkload("Hamming").build();
}

circuit::Netlist AdderNetlist() {
    hdl::Builder b;
    const hdl::Bits x = hdl::InputBits(b, 8, "x");
    const hdl::Bits y = hdl::InputBits(b, 8, "y");
    hdl::OutputBits(b, hdl::Add(b, x, y), "sum");
    return std::move(b.netlist());
}

core::CompileOptions OptionsFor(const tfhe::Params& params) {
    core::CompileOptions options;  // Elision + memory plan: the defaults.
    options.params = params;
    return options;
}

std::string KeyPath(const Args& args, int tenant) {
    return args.workdir + "/tenant" + std::to_string(tenant) + ".ekey";
}

/** fig1_tfhe128: the paper's Fig. 1 flow on Server::Run. */
void RunFig1(const Args& args, int threads, Tracer& tracer, Report& r) {
    const Clock::time_point run_start = Clock::now();
    const tfhe::Params params = tfhe::Tfhe128Params();
    const core::CompileOptions options = OptionsFor(params);
    std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 1);

    std::vector<double> setups;
    std::optional<Built> built;
    std::unique_ptr<core::Client> client;
    std::unique_ptr<core::Server> server;
    uint64_t ekey_bytes = 0;
    for (int i = 0; i < kSetups; ++i) {
        server.reset();  // At most one key resident at a time.
        client.reset();
        const uint64_t job = kSetupJob + i;
        const Clock::time_point t0 = Clock::now();
        built = BuildAndCompile(HammingNetlist, options, &tracer, job, -1);
        client = std::make_unique<core::Client>(params, rng());
        server = std::make_unique<core::Server>(
            Provision(*client, KeyPath(args, 0), &tracer, job, &ekey_bytes));
        setups.push_back(Seconds(t0, Clock::now()));
    }
    r.metrics["setup_s"] = Median(setups);

    core::RunOptions run;
    run.num_threads = threads;
    const int min_jobs = args.trace ? 4 : 3;
    const ClosedLoop loop = RunClosedLoop(
        *client, *built, *server, run,
        run_start + FromSeconds(args.seconds),
        min_jobs, rng, &tracer, args, r);
    ReportClosedLoop(loop, *built, threads, tracer, r);
    ReportPrograms({&*built}, r);
    if (tracer.enabled()) {
        r.metrics["tfhe.ekey_bytes"] = static_cast<double>(ekey_bytes);
        ReportReplay({&*built}, {options}, tracer, r);
        ReportSetupSpans(tracer.Spans(), r);
    }
}

// ------------------------------------------------------------ compile job

/** compile_mnist_s: elaborate -> Compile -> serialize -> load -> execute. */
void RunCompile(const Args& args, int threads, Tracer& tracer, Report& r) {
    const Clock::time_point run_start = Clock::now();
    const core::CompileOptions options = OptionsFor(tfhe::Tfhe128Params());
    const auto frontend = vip::FindWorkload("MNIST_S").build;
    std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 3);

    // Setup: elaborate the frontend netlist and evaluate the plaintext
    // reference for this run's inputs, start the executor's worker pool.
    std::vector<double> setups;
    std::vector<bool> in, want;
    std::unique_ptr<backend::Executor> executor;
    uint64_t frontend_gates = 0;
    for (int i = 0; i < kSetups; ++i) {
        executor.reset();
        const uint64_t job = kSetupJob + i;
        const Clock::time_point t0 = Clock::now();
        std::optional<circuit::Netlist> netlist;
        {
            Tracer::Scope s(&tracer, "frontend", "build", job, -1);
            netlist = frontend();
        }
        frontend_gates = netlist->ComputeStats().num_gates;
        in = RandomBits(rng, netlist->Inputs().size());
        {
            Tracer::Scope s(&tracer, "check", "reference", job, -1);
            want = netlist->EvaluatePlain(in);
        }
        executor = std::make_unique<backend::Executor>();
        setups.push_back(Seconds(t0, Clock::now()));
    }
    r.metrics["setup_s"] = Median(setups);

    const Clock::time_point deadline =
        run_start + FromSeconds(args.seconds);
    const int min_jobs = args.trace ? 4 : 3;
    std::vector<double> compile_seconds, traced, untraced;
    std::optional<Built> last;
    backend::PlainEvaluator plain;
    for (uint64_t job = 1;
         static_cast<int>(job) <= min_jobs || Clock::now() < deadline; ++job) {
        Tracer* t = tracer.enabled() && job % 2 == 1 ? &tracer : nullptr;
        const Clock::time_point t0 = Clock::now();
        const int64_t root = t ? t->Open("job", "job", t0, job) : -1;
        last.reset();  // Free the previous program before building the next.
        last = BuildAndCompile(frontend, options, t, job, root);
        const double compile_s = Seconds(t0, Clock::now());
        std::optional<pasm::Program> loaded;
        {
            Tracer::Scope s(t, "pasm", "load", job, root);
            std::istringstream is(last->bytes);
            std::string error;
            loaded = pasm::Program::Deserialize(is, &error);
            if (!loaded)
                throw std::runtime_error("serialized program does not load: " +
                                         error);
        }
        std::vector<bool> got, got_1t;
        {
            Tracer::Scope s(t, "backend", "plain_exec", job, root);
            backend::ExecOptions exec;
            exec.num_threads = threads;
            exec.executor = executor.get();
            got = backend::Execute(*loaded, plain, in, exec);
        }
        {
            Tracer::Scope s(t, "backend", "plain_exec_1t", job, root);
            got_1t = backend::Execute(*loaded, plain, in);
        }
        bool ok;
        {
            Tracer::Scope s(t, "check", "check", job, root);
            ok = CheckOutputs(got, want, job, args, r) &
                 CheckOutputs(got_1t, want, 0, args, r);
        }
        const Clock::time_point t1 = Clock::now();
        if (t) t->Close(root, t1);
        ++r.attempted;
        if (!ok) ++r.failed;
        compile_seconds.push_back(compile_s);
        (t ? traced : untraced).push_back(compile_s);
    }
    double total = 0.0;
    for (double s : compile_seconds) total += s;
    r.metrics["jobs_per_s"] = compile_seconds.size() / total;
    r.metrics["loadgen.job_p50_s"] = Median(compile_seconds);
    ReportPrograms({&*last}, r);
    r.metrics["frontend.gates"] = static_cast<double>(frontend_gates);
    r.Extra("compile_s", Median(compile_seconds), "s");
    if (!tracer.enabled()) return;
    const std::vector<SpanRecord> spans = tracer.Spans();
    std::vector<SpanRecord> job_spans;
    for (const SpanRecord& s : spans)
        if (s.job >= 1 && s.job < kSetupJob) job_spans.push_back(s);
    r.metrics["frontend.build_s"] =
        MedianPerJob(job_spans, "frontend", "build");
    r.metrics["pasm.serialize_s"] =
        MedianPerJob(job_spans, "pasm", "serialize");
    r.metrics["pasm.load_s"] = MedianPerJob(job_spans, "pasm", "load");
    const double exec_s = MedianPerJob(job_spans, "backend", "plain_exec");
    r.metrics["backend.plain_exec_s"] = exec_s;
    r.metrics["backend.plain_exec_1t_s"] =
        MedianPerJob(job_spans, "backend", "plain_exec_1t");
    r.metrics["backend.execute_s"] = exec_s;
    // Plaintext gates cost no kernel time: all execute wall is dispatch.
    ReportKernel({}, exec_s, last->compiled.program.NumGates(), threads, 1, r);
    r.metrics["tfhe.bootstraps"] = 0.0;
    ReportOverhead(traced, untraced, r);
    ReportTrace(tracer, traced.size(), r);
    ReportReplay({&*last}, {options}, tracer, r);
}

// ------------------------------------------------------ open-loop serving

/** Fixed serving load: the same on every commit this benchmark measures. */
constexpr int kServeTenants = 8;
constexpr int kCachedKeys = 4;
constexpr double kZipfExponent = 1.2;

/** The programs serve_toy jobs run. */
enum Kind { kAdder, kHamming, kLut, kNumKinds };

/**
 * Fixed job mix, so the work per run does not vary with the seed: of every
 * ten jobs of a step, two are Hamming, one is the LUT adder and seven are
 * boolean 8-bit adders. The Zipf tenants run the boolean programs; the LUT
 * adder runs under one more tenant, whose key is multibit.
 */
Kind KindOf(int i) {
    if (i % 5 == 4) return kHamming;
    if (i % 10 == 2) return kLut;
    return kAdder;
}

/**
 * Load steps, each held for a share of --seconds and started on an empty
 * service: a warm-up that fills the key cache and is not measured; open
 * loops at rates lo and hi (Poisson, well below the 300-540 jobs/s
 * saturation measured on a 4-vCPU VM); a closed loop that keeps 32 jobs
 * outstanding, whose completion rate is the saturation throughput. The saturation step gets
 * most of the run, and its throughput is the median rate over
 * kRateWindows equal windows, so a burst of load from outside the process
 * moves a few windows, not the result. max_rate_jobs_s is the
 * higher of lo and hi that meets kP99LimitSeconds with no failed job and
 * no growing backlog. Open-loop steps above hi are left out: their
 * backlogs pin extra keys and made the run's memory and time unsteady.
 */
struct Step {
    double rate;       ///< Poisson jobs/s; 0 marks a closed loop.
    uint32_t inflight; ///< Closed loop: jobs kept outstanding.
    double share;      ///< Of --seconds.
};
constexpr Step kSteps[] = {{120.0, 0, 0.05},
                           {120.0, 0, 0.15},
                           {240.0, 0, 0.15},
                           {0.0, 32, 0.65}};
constexpr int kLo = 1, kHi = 2, kSaturation = 3;  // Step 0: warm-up.
constexpr int kNumSteps = static_cast<int>(std::size(kSteps));
/** Windows the saturation step is split into for its median rate. */
constexpr int kRateWindows = 16;
/** Upper bound on saturation throughput, for pre-drawing its jobs. */
constexpr double kMaxJobsPerSecond = 2000.0;
constexpr double kP99LimitSeconds = 0.25;
/** How often the collector polls the jobs in flight for completion. */
constexpr auto kPollInterval = std::chrono::microseconds(200);

/** One open-loop job in flight from the generator to the collector. */
struct Pending {
    uint64_t job = 0;
    int phase = 0;
    int tenant = 0;
    Kind kind = kAdder;
    std::vector<bool> in;
    double offset = 0.0;  ///< Due time, seconds after its step starts.
    Clock::time_point due;
    Clock::time_point sent;       ///< Generator picked the job up.
    Clock::time_point encrypted;  ///< Inputs encrypted; Submit called.
    Clock::time_point submitted;  ///< Submit returned.
    std::optional<core::JobHandle> handle;  ///< Empty when rejected.
};

/** Per-job outcome recorded by the collector. */
struct Outcome {
    uint64_t job = 0;
    int phase = 0;
    bool ok = false;
    double latency = 0.0;  ///< Due time -> checked output.
    double late = 0.0;     ///< Due time -> generator sent it.
    double submit = 0.0;
    Clock::time_point terminal;
    backend::JobMetrics metrics;
};

/**
 * Sums GateProfiles of every evaluator the key cache ever held: a reloaded
 * key is a fresh evaluator, so the profile must be harvested when the
 * cache's last reference to it drops.
 */
struct ProfileSink {
    std::mutex mu;
    tfhe::GateProfileSnapshot total;

    void Add(const tfhe::GateProfileSnapshot& s) {
        std::lock_guard<std::mutex> lock(mu);
        Accumulate(total, s);
    }
};

core::KeySource HarvestingSource(core::KeySource inner,
                                 std::shared_ptr<ProfileSink> sink) {
    return [inner = std::move(inner), sink]() {
        std::shared_ptr<tfhe::GateEvaluator> loaded = inner();
        tfhe::GateEvaluator* raw = loaded.get();
        return std::shared_ptr<tfhe::GateEvaluator>(
            raw, [loaded, sink](tfhe::GateEvaluator* g) mutable {
                sink->Add(g->profile().Snapshot());
                loaded.reset();
            });
    };
}

/** serve_toy: multi-tenant open-loop serving through core::Service. */
void RunServe(const Args& args, int threads, Tracer& tracer, Report& r) {
    const tfhe::Params params = tfhe::ToyParams();
    const tfhe::Params lut_params = tfhe::ToyMultibitParams();
    std::vector<core::CompileOptions> options = {
        OptionsFor(params), OptionsFor(params), OptionsFor(lut_params)};
    options[kLut].multibit = 16;  // Lowered to LUTs by core::Compile.
    const std::function<circuit::Netlist()> frontends[kNumKinds] = {
        AdderNetlist, HammingNetlist, AdderNetlist};
    std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 4);

    core::ServiceOptions service_options;
    service_options.serving.num_workers = threads;
    service_options.serving.batch_size = 4;
    service_options.serving.max_pending_jobs = 1024;

    // Tenants 0..kServeTenants-1 hold toy keys; tenant kServeTenants holds
    // the multibit key the LUT adder runs under.
    constexpr int kLutTenant = kServeTenants;
    std::vector<double> setups;
    std::vector<Built> built;  ///< Indexed by Kind.
    std::vector<std::unique_ptr<core::Client>> clients;
    std::vector<core::KeyId> ids;
    std::unique_ptr<core::Service> service;
    auto sink = std::make_shared<ProfileSink>();
    uint64_t ekey_bytes = 0;
    for (int i = 0; i < kServeSetups; ++i) {
        service.reset();
        clients.clear();
        ids.clear();
        built.clear();
        sink = std::make_shared<ProfileSink>();
        const uint64_t job = kSetupJob + i;
        const Clock::time_point t0 = Clock::now();
        for (int k = 0; k < kNumKinds; ++k)
            built.push_back(
                BuildAndCompile(frontends[k], options[k], &tracer, job, -1));
        if (built[kLut].compiled.program.MessageModulus() == 0)
            throw std::runtime_error("LUT adder fell back to boolean gates");
        uint64_t key_bytes = 0, lut_key_bytes = 0;
        for (int k = 0; k <= kLutTenant; ++k) {
            const bool lut = k == kLutTenant;
            clients.push_back(std::make_unique<core::Client>(
                lut ? lut_params : params, rng()));
            std::shared_ptr<tfhe::GateEvaluator> generated;
            {
                Tracer::Scope s(&tracer, "tfhe", "keygen", job, -1);
                generated = clients.back()->MakeEvaluationKey();
            }
            Tracer::Scope s(&tracer, "tfhe", "ekey_save", job, -1);
            const uint64_t saved = SaveKey(*generated, KeyPath(args, k));
            (lut ? lut_key_bytes : key_bytes) =
                core::EvaluationKeyBytes(*generated);
            if (!lut) ekey_bytes = saved;
            ids.push_back(generated->key_id());
        }
        {
            Tracer::Scope s(&tracer, "core", "service_start", job, -1);
            service_options.key_cache_capacity_bytes =
                kCachedKeys * key_bytes + lut_key_bytes;
            service = std::make_unique<core::Service>(service_options);
            for (int k = 0; k <= kLutTenant; ++k)
                service->RegisterTenantSource(
                    ids[k],
                    HarvestingSource(core::FileKeySource(KeyPath(args, k)),
                                     sink));
        }
        setups.push_back(Seconds(t0, Clock::now()));
    }
    r.metrics["setup_s"] = Median(setups);

    std::vector<std::shared_ptr<const pasm::Program>> programs;
    for (const Built& b : built)
        programs.push_back(
            std::make_shared<const pasm::Program>(b.compiled.program));

    // The whole schedule is drawn from the seed before the clock starts.
    std::vector<double> zipf(kServeTenants);
    for (int k = 0; k < kServeTenants; ++k)
        zipf[k] = 1.0 / std::pow(k + 1.0, kZipfExponent);
    std::discrete_distribution<int> pick_tenant(zipf.begin(), zipf.end());
    // Per step: jobs with due offsets (seconds) from the step's start.
    std::vector<std::vector<Pending>> schedule(kNumSteps);
    uint64_t next_job = 1;
    for (int step = 0; step < kNumSteps; ++step) {
        const bool closed = kSteps[step].rate == 0.0;
        const double seconds = kSteps[step].share * args.seconds;
        const int n = static_cast<int>(
            (closed ? kMaxJobsPerSecond : kSteps[step].rate) * seconds + 0.5);
        std::exponential_distribution<double> gap(closed ? 1.0
                                                         : kSteps[step].rate);
        double t = 0.0;
        for (int i = 0; i < n; ++i) {
            Pending p;
            p.job = next_job++;
            p.phase = step;
            p.kind = KindOf(i);
            p.tenant = p.kind == kLut ? kLutTenant : pick_tenant(rng);
            p.in = RandomBits(rng, programs[p.kind]->NumInputs());
            if (!closed) t += gap(rng);
            p.offset = t;
            schedule[step].push_back(std::move(p));
        }
    }

    std::mutex mu;
    std::condition_variable handoff_cv;   ///< Generator -> collector.
    std::condition_variable progress_cv;  ///< Collector -> generator.
    std::deque<Pending> handoff;          ///< Submitted, not yet polled.
    bool done_sending = false;
    uint64_t sent = 0;   ///< Jobs handed to the collector.
    uint64_t ended = 0;  ///< Jobs the collector saw terminal.
    std::vector<Outcome> outcomes;  ///< Guarded by mu.
    std::atomic<uint64_t> traced_jobs{0};

    // Decrypts and checks one terminal job.
    auto collect = [&](Pending& p) {
        Outcome o;
        o.job = p.job;
        o.phase = p.phase;
        o.late = Seconds(p.due, p.sent);
        o.submit = Seconds(p.encrypted, p.submitted);
        if (!p.handle) return o;
        Tracer* t = tracer.enabled() && p.job % 2 == 1 ? &tracer : nullptr;
        try {
            o.metrics = p.handle->Metrics();
            o.terminal = p.submitted + FromSeconds(o.metrics.wall_seconds);
            const core::Ciphertexts& out = p.handle->Get();
            const Clock::time_point c0 = Clock::now();
            std::vector<bool> got;
            {
                Tracer::Scope s(t, "tfhe", "decrypt", p.job, -1);
                got = clients[p.tenant]->DecryptBitsFor(*programs[p.kind],
                                                        out);
            }
            {
                Tracer::Scope s(t, "check", "check", p.job, -1);
                o.ok = CheckOutputs(got,
                                    built[p.kind].netlist.EvaluatePlain(p.in),
                                    p.job, args, r);
            }
            o.latency = Seconds(p.due, o.terminal) + Seconds(c0, Clock::now());
            if (t) {
                const int64_t root = t->Open("job", "job", p.due, p.job);
                t->Close(root, o.terminal);
                t->Record("loadgen", "late", p.due, p.sent, p.job, root);
                t->Record("tfhe", "encrypt", p.sent, p.encrypted, p.job, root);
                t->Record("core", "submit", p.encrypted, p.submitted, p.job,
                          root);
                const Clock::time_point admitted =
                    p.submitted + FromSeconds(o.metrics.queue_seconds);
                t->Record("serving", "queue_wait", p.submitted, admitted,
                          p.job, root);
                t->Record("backend", "run", admitted, o.terminal, p.job, root);
                ++traced_jobs;
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: job %llu failed: %s\n",
                         static_cast<unsigned long long>(p.job), e.what());
            o.ok = false;
        }
        return o;
    };

    // Collector: polls every job in flight and takes each the moment it is
    // terminal, so a slow job holds back no other. A job's slot frees
    // before its decrypt and check.
    std::thread collector([&] {
        std::vector<Pending> active, ready;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mu);
                if (active.empty())
                    handoff_cv.wait(lock, [&] {
                        return !handoff.empty() || done_sending;
                    });
                else
                    handoff_cv.wait_for(lock, kPollInterval,
                                        [&] { return !handoff.empty(); });
                if (active.empty() && handoff.empty()) return;
                for (Pending& p : handoff) active.push_back(std::move(p));
                handoff.clear();
            }
            ready.clear();
            for (size_t i = 0; i < active.size();) {
                if (active[i].handle && !active[i].handle->TryGet()) {
                    ++i;
                    continue;
                }
                ready.push_back(std::move(active[i]));
                if (i + 1 != active.size()) active[i] = std::move(active.back());
                active.pop_back();
            }
            if (ready.empty()) continue;
            {
                std::lock_guard<std::mutex> lock(mu);
                ended += ready.size();
            }
            progress_cv.notify_all();
            for (Pending& p : ready) {
                const Outcome o = collect(p);
                std::lock_guard<std::mutex> lock(mu);
                outcomes.push_back(o);
            }
            progress_cv.notify_all();
        }
    });

    // Generator: sends each job at its due time (open loop); each step
    // starts once every earlier job has been checked.
    std::vector<Clock::time_point> step_start(kNumSteps);
    double busy_wall = 0.0;  ///< Summed step walls, start to drained.
    auto drain = [&] {
        std::unique_lock<std::mutex> lock(mu);
        progress_cv.wait(lock, [&] { return outcomes.size() == sent; });
    };
    for (int step = 0; step < kNumSteps; ++step) {
        drain();
        if (step > 0) busy_wall += Seconds(step_start[step - 1], Clock::now());
        step_start[step] = Clock::now() + std::chrono::milliseconds(5);
        const bool closed = kSteps[step].rate == 0.0;
        const Clock::time_point step_end =
            step_start[step] + FromSeconds(kSteps[step].share * args.seconds);
        for (Pending& p : schedule[step]) {
            if (closed) {
                // Send when a slot frees up; the job is due when sent.
                std::unique_lock<std::mutex> lock(mu);
                progress_cv.wait(lock, [&] {
                    return sent - ended < kSteps[step].inflight;
                });
                lock.unlock();
                p.due = std::max(Clock::now(), step_start[step]);
                if (p.due >= step_end) break;
            } else {
                p.due = step_start[step] + FromSeconds(p.offset);
            }
            std::this_thread::sleep_until(p.due);
            p.sent = Clock::now();
            const auto& prog = programs[p.kind];
            try {
                core::Ciphertexts cts =
                    clients[p.tenant]->EncryptBitsFor(*prog, p.in);
                p.encrypted = Clock::now();
                p.handle = service->Submit(ids[p.tenant], prog, std::move(cts));
            } catch (const std::exception& e) {
                std::fprintf(stderr,
                             "perfbench: submit of job %llu rejected: %s\n",
                             static_cast<unsigned long long>(p.job), e.what());
            }
            p.submitted = Clock::now();
            {
                std::lock_guard<std::mutex> lock(mu);
                handoff.push_back(std::move(p));
                ++sent;
            }
            handoff_cv.notify_one();
        }
    }
    drain();
    busy_wall += Seconds(step_start[kNumSteps - 1], Clock::now());
    {
        std::lock_guard<std::mutex> lock(mu);
        done_sending = true;
    }
    handoff_cv.notify_one();
    collector.join();

    // Per-step latency in submission order, late sends and the ladder.
    std::sort(outcomes.begin(), outcomes.end(),
              [](const Outcome& a, const Outcome& b) { return a.job < b.job; });
    std::vector<std::vector<double>> latency(kNumSteps);
    std::vector<double> late, submit, queue, run_s;
    std::vector<bool> step_ok(kNumSteps, true);
    for (const Outcome& o : outcomes) {
        ++r.attempted;
        if (!o.ok) {
            ++r.failed;
            step_ok[o.phase] = false;
            continue;
        }
        latency[o.phase].push_back(o.latency);
        if (o.phase != kLo && o.phase != kHi) continue;
        // Layer figures come from the two fixed-rate steps only.
        late.push_back(o.late);
        submit.push_back(o.submit);
        queue.push_back(o.metrics.queue_seconds);
        run_s.push_back(o.metrics.run_seconds);
    }
    double max_rate = 0.0;
    for (int s = kLo; s < kNumSteps; ++s) {
        const std::vector<double>& l = latency[s];
        if (kSteps[s].rate == 0.0 || !step_ok[s] || l.size() < 3) continue;
        // A growing backlog: the step's last third waits far longer than
        // its first third.
        const size_t third = l.size() / 3;
        const double first = Median({l.begin(), l.begin() + third});
        const double last = Median({l.end() - third, l.end()});
        if (Quantile(l, 0.99) <= kP99LimitSeconds &&
            last <= 2.0 * first + 0.005)
            max_rate = std::max(max_rate, kSteps[s].rate);
    }
    // Only the saturation throughput is gated: the loaded latencies of
    // these toy jobs are mostly worker wake-ups and queueing, and moved
    // 15-45% from run to run with the host's load.
    const double window = kSteps[kSaturation].share * args.seconds /
                          kRateWindows;
    std::vector<double> window_jobs(kRateWindows, 0.0);
    for (const Outcome& o : outcomes) {
        if (!o.ok || o.phase != kSaturation) continue;
        const auto w = static_cast<int>(
            Seconds(step_start[kSaturation], o.terminal) / window);
        if (w >= 0 && w < kRateWindows) ++window_jobs[w];
    }
    const double lo_p50 = Median(latency[kLo]);
    r.metrics["jobs_per_s"] = Median(window_jobs) / window;
    r.metrics["loadgen.job_p50_s"] = lo_p50;
    ReportPrograms({&built[kAdder], &built[kHamming], &built[kLut]}, r);
    r.metrics["loadgen.late_p99_s"] = Quantile(late, 0.99);
    r.metrics["loadgen.lo_p50_s"] = lo_p50;
    r.metrics["loadgen.lo_p99_s"] = Quantile(latency[kLo], 0.99);
    r.metrics["loadgen.hi_p50_s"] = Median(latency[kHi]);
    r.metrics["loadgen.hi_p99_s"] = Quantile(latency[kHi], 0.99);
    r.metrics["loadgen.max_rate_jobs_s"] = max_rate;
    r.Extra("lo_p50_s", lo_p50, "s");
    r.Extra("lo_p99_s", Quantile(latency[kLo], 0.99), "s");
    r.Extra("hi_p50_s", Median(latency[kHi]), "s");
    r.Extra("hi_p99_s", Quantile(latency[kHi], 0.99), "s");
    r.Extra("max_rate_jobs_s", max_rate, "jobs/s");

    const core::Service::Stats stats = service->stats();
    // Harvest the kernel profile: destroying the service drops every
    // cached key, which feeds the sink.
    service.reset();
    if (!tracer.enabled()) return;
    uint64_t gates = 0;
    for (const Outcome& o : outcomes) gates += o.metrics.gates_executed;
    ReportKernel(sink->total, busy_wall, gates, threads, outcomes.size(), r);
    r.metrics["backend.execute_s"] = Median(run_s);
    r.metrics["serving.queue_wait_p50_s"] = Median(queue);
    r.metrics["serving.queue_wait_p99_s"] = Quantile(queue, 0.99);
    r.metrics["serving.run_p50_s"] = Median(run_s);
    r.metrics["serving.max_active"] = stats.serving.max_active_observed;
    r.metrics["serving.rejected"] =
        static_cast<double>(stats.serving.jobs_rejected);
    r.metrics["serving.retries"] =
        static_cast<double>(stats.serving.job_retries);
    r.metrics["core.submit_s"] = Median(submit);
    r.metrics["core.key_cache.hit_rate"] = stats.key_cache.HitRate();
    r.metrics["core.key_cache.reloads"] =
        static_cast<double>(stats.key_cache.reloads);
    r.metrics["core.key_cache.reload_s"] = stats.key_cache.reload_seconds;
    r.metrics["core.key_cache.evictions"] =
        static_cast<double>(stats.key_cache.evictions);
    r.metrics["core.key_cache.peak_bytes"] =
        static_cast<double>(stats.key_cache.peak_total_bytes);
    r.metrics["tfhe.ekey_bytes"] = static_cast<double>(ekey_bytes);
    ReportReplay({&built[kAdder], &built[kHamming], &built[kLut]}, options,
                 tracer, r);
    const std::vector<SpanRecord> spans = tracer.Spans();
    ReportSetupSpans(spans, r);
    // Keys load lazily here, inside Submit, not in set-up.
    if (stats.key_cache.reloads > 0)
        r.metrics["tfhe.ekey_load_s"] =
            stats.key_cache.reload_seconds / stats.key_cache.reloads;
    r.metrics["tfhe.encrypt_s"] = MedianPerJob(spans, "tfhe", "encrypt");
    r.metrics["tfhe.decrypt_s"] = MedianPerJob(spans, "tfhe", "decrypt");
    std::vector<double> traced_lat, untraced_lat;
    for (const Outcome& o : outcomes)
        if (o.ok && o.phase == kHi)
            (o.job % 2 == 1 ? traced_lat : untraced_lat).push_back(o.latency);
    ReportOverhead(traced_lat, untraced_lat, r);
    ReportTrace(tracer, traced_jobs.load(), r);
}

// -------------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Args& a) {
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) return false;
        const std::string v = argv[++i];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v);
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--workdir") a.workdir = v;
        else if (k == "--trace-out") a.trace_out = v;
        else if (k == "--inject-flip") a.inject_flip = std::stoll(v);
        else return false;
    }
    return !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    try {
        if (!ParseArgs(argc, argv, args)) {
            std::fprintf(stderr,
                         "usage: pytfhe_e2e --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--workdir DIR] "
                         "[--trace-out FILE] [--inject-flip JOB]\n");
            return 2;
        }
    } catch (const std::exception&) {
        std::fprintf(stderr, "pytfhe_e2e: malformed numeric argument\n");
        return 2;
    }
    const std::map<std::string, std::function<void(const Args&, int, Tracer&,
                                                   Report&)>>
        workloads = {{"fig1_tfhe128", RunFig1},
                     {"serve_toy", RunServe},
                     {"compile_mnist_s", RunCompile}};
    const auto it = workloads.find(args.workload);
    if (it == workloads.end()) {
        std::fprintf(stderr, "pytfhe_e2e: unknown workload %s\n",
                     args.workload.c_str());
        return 2;
    }
    const int threads = Nproc();
    const std::string host = HostJson(args, threads);
    std::printf("host %s\n", host.c_str());
    std::fflush(stdout);

    std::filesystem::create_directories(args.workdir);
    Tracer tracer(args.trace);
    Report report;
    try {
        it->second(args, threads, tracer, report);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pytfhe_e2e: %s\n", e.what());
        return 1;
    }
    report.metrics["peak_rss_mb"] = PeakRssMb();
    report.metrics["loadgen.sent"] = static_cast<double>(report.attempted);
    report.metrics["loadgen.ok"] =
        static_cast<double>(report.attempted - report.failed);
    report.metrics["loadgen.failed"] = static_cast<double>(report.failed);
    if (args.trace && !args.trace_out.empty() &&
        !tracer.WriteChromeJson(args.trace_out, host)) {
        std::fprintf(stderr, "pytfhe_e2e: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
    }

    // Every metric, human readable, then the JSON result line.
    const double fail_frac =
        report.attempted ? static_cast<double>(report.failed) / report.attempted
                         : 1.0;
    std::printf("metric fail_frac %.6g ratio\n", fail_frac);
    for (const auto& [name, value] : report.extras)
        std::printf("metric %s %s\n", name.c_str(), value.c_str());
    const MetricDef* defs = args.trace ? kPerLayer : kEndToEnd;
    const size_t n = args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
    std::string json = "{\"correct\": ";
    json += report.correct && report.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < n; ++i) {
        const auto found = report.metrics.find(defs[i].name);
        const double value =
            found == report.metrics.end() ? 0.0 : found->second;
        std::printf("metric %s %.9g %s\n", defs[i].name, value, defs[i].unit);
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, "
                                        "\"unit\": \"%s\"}",
                      i ? ", " : "", defs[i].name, value, defs[i].unit);
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return report.correct && report.failed == 0 ? 0 : 1;
}
