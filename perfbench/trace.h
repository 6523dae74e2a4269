/**
 * @file
 * Benchmark-side span recorder for the end-to-end benchmark.
 *
 * Spans are taken only around calls into the library's public functions
 * (compile passes, encrypt, ciphertext serde, Server::Run, Submit/Get,
 * decrypt, key load), never inside the library. Each span carries the
 * layer it charges, the job it belongs to, and the span that caused it,
 * so a layer's self time is its duration minus what its children cover.
 * A disabled Tracer, or a null one handed to Scope, records nothing.
 */
#ifndef PYTFHE_PERFBENCH_TRACE_H
#define PYTFHE_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/** One finished span. Times are seconds since the tracer's origin. */
struct SpanRecord {
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    uint64_t job = 0;      ///< Spans of one job share this id.
    int64_t parent = -1;   ///< Index of the causing span, -1 for a root.

    double Duration() const { return end - start; }
};

class Tracer {
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool enabled() const { return enabled_; }

    /**
     * Records a finished span and returns its index (-1 when disabled),
     * usable as the parent of later spans.
     */
    int64_t Record(std::string layer, std::string name, Clock::time_point t0,
                   Clock::time_point t1, uint64_t job, int64_t parent = -1) {
        if (!enabled_) return -1;
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(SpanRecord{std::move(name), std::move(layer),
                                    Seconds(origin_, t0), Seconds(origin_, t1),
                                    job, parent});
        return static_cast<int64_t>(spans_.size()) - 1;
    }

    /**
     * Reserves a span whose end is not known yet (a job root that encloses
     * child spans recorded first); close it with Close().
     */
    int64_t Open(std::string layer, std::string name, Clock::time_point t0,
                 uint64_t job) {
        return Record(std::move(layer), std::move(name), t0, t0, job);
    }

    void Close(int64_t span, Clock::time_point t1) {
        if (span < 0) return;
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<size_t>(span)].end = Seconds(origin_, t1);
    }

    /** RAII span around one call; closes on scope exit. */
    class Scope {
      public:
        Scope(Tracer* tracer, const char* layer, const char* name,
              uint64_t job, int64_t parent)
            : tracer_(tracer && tracer->enabled_ ? tracer : nullptr),
              layer_(layer), name_(name), job_(job), parent_(parent) {
            if (tracer_) t0_ = Clock::now();
        }
        ~Scope() {
            if (tracer_)
                tracer_->Record(layer_, name_, t0_, Clock::now(), job_,
                                parent_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer* tracer_;
        const char* layer_;
        const char* name_;
        uint64_t job_;
        int64_t parent_;
        Clock::time_point t0_{};
    };

    std::vector<SpanRecord> Spans() const {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_;
    }

    /**
     * Self time per layer over the spans of jobs in [first_job, end_job):
     * each span's duration minus the time its direct children cover
     * (children of one span never overlap: they are sequential calls from
     * the thread that owns the parent).
     */
    static std::map<std::string, double> SelfSecondsByLayer(
        const std::vector<SpanRecord>& spans, uint64_t first_job,
        uint64_t end_job) {
        const std::vector<double> covered = ChildSeconds(spans);
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans.size(); ++i)
            if (spans[i].job >= first_job && spans[i].job < end_job)
                out[spans[i].layer] += spans[i].Duration() - covered[i];
        return out;
    }

    /**
     * Share of job wall no layer covers: over every root span of layer
     * "job", the part of its duration no child span covers, divided by
     * the summed root durations.
     */
    static double UnaccountedFraction(const std::vector<SpanRecord>& spans) {
        const std::vector<double> covered = ChildSeconds(spans);
        double wall = 0.0, uncovered = 0.0;
        for (size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].layer != "job") continue;
            wall += spans[i].Duration();
            uncovered += spans[i].Duration() - covered[i];
        }
        return wall > 0.0 ? uncovered / wall : 0.0;
    }

    /**
     * Writes the spans as Chrome trace-event JSON ("X" complete events,
     * microseconds; one track per job) with `metadata_json` — a JSON
     * object — under "otherData". Returns false if the file cannot be
     * written.
     */
    bool WriteChromeJson(const std::string& path,
                         const std::string& metadata_json) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f) return false;
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                        "\"traceEvents\":[",
                     metadata_json.c_str());
        const std::vector<SpanRecord> spans = Spans();
        for (size_t i = 0; i < spans.size(); ++i) {
            const SpanRecord& s = spans[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
                         "\"args\":{\"job\":%llu,\"span\":%zu,"
                         "\"parent\":%lld}}",
                         i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                         s.start * 1e6, s.Duration() * 1e6,
                         static_cast<unsigned long long>(s.job),
                         static_cast<unsigned long long>(s.job), i,
                         static_cast<long long>(s.parent));
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    /** Per span, the summed duration of its direct children. */
    static std::vector<double> ChildSeconds(
        const std::vector<SpanRecord>& spans) {
        std::vector<double> covered(spans.size(), 0.0);
        for (const SpanRecord& s : spans)
            if (s.parent >= 0)
                covered[static_cast<size_t>(s.parent)] += s.Duration();
        return covered;
    }

    const bool enabled_;
    const Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
};

}  // namespace perfbench

#endif  // PYTFHE_PERFBENCH_TRACE_H
