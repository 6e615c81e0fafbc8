#pragma once

/**
 * @file
 * Shared plumbing of the benchmark driver: the per-run Recorder (op
 * samples, set-up times, determinism counts, per-layer sums, trace
 * spans), the host probe, and the small helpers the four workloads
 * share. The driver records raw samples only; perfbench/run.py turns
 * them into percentiles, guards and the final metrics line.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/json.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/arena.hpp"
#include "runtime/program.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady-clock points. */
inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** Command-line knobs of one driver run. */
struct RunOptions {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;       ///< result JSON path
    std::string traceFile; ///< span dump path (trace mode)
    /** Run the workload's set-up only, then stop (one setup_s sample). */
    bool setupOnly = false;
    /** Start of main(): set-up time is measured from here. */
    Clock::time_point start = Clock::now();
};

/** Everything one run measured, written out as JSON at exit. */
class Recorder {
  public:
    explicit Recorder(const RunOptions& options);

    bool tracing() const { return trace_; }

    /** Index of op kind @p name (created on first use). */
    uint32_t kind(const std::string& name);

    /**
     * Wall time of the timed phase. It defaults to the sum of op times
     * (ops run one after another); concurrent workloads set it.
     */
    void setPhase(double ms) { phaseMs_ = ms; }

    /**
     * The first timed op can be issued now: records the cold set-up
     * time since the start of main(). Returns false in a set-up-only
     * run, whose workload then stops.
     */
    bool setupDone();

    /**
     * @p ops ops whose output check failed (or could not run); with
     * ops = 0, a whole-run check failed instead (no single op to blame).
     */
    void fail(const std::string& why, uint64_t ops = 1);

    /** One determinism observation; all values of a key must agree. */
    void count(const std::string& key, int64_t value);

    /** Per-layer per-op quantity: written out as its mean over ops. */
    void layer(const std::string& name, double value)
    {
        perOp_[name] += value;
    }
    /** Per-layer whole-run quantity (a ratio, a maximum, a label count). */
    void layerSet(const std::string& name, double value)
    {
        layers_[name] = value;
    }
    void label(const std::string& name, const std::string& value)
    {
        labels_[name] = value;
    }
    /**
     * Take the peak-RSS reading now (end of the timed phase), so the
     * benchmark's own post-phase checks do not count toward it.
     */
    void markPeakRss();

    void thread(const std::string& name, uint64_t count)
    {
        threads_[name] = count;
    }

    /** One child span of an op: offset from the op's start, length. */
    struct Child {
        std::string name;
        double startMs;
        double durMs;
    };

    /**
     * Record a timed op that began at @p start and its child spans
     * (trace mode). Each child's time is summed into the per-op layer
     * "<child name>_ms". Children are disjoint; the op time they leave
     * uncovered is the op's residual, returned and summed into
     * trace.residual_ms.
     */
    double finishOp(uint32_t kind, Clock::time_point start, double ms,
                    const std::vector<Child>& children);

    /** Write the result JSON and (trace mode) the span dump. */
    void write() const;

  private:
    /** Append one timed op; returns its op id. */
    uint64_t op(uint32_t kind, double ms);

    struct SpanRow {
        uint64_t op;
        Child child;
    };

    RunOptions options_;
    bool trace_;
    std::vector<std::string> kinds_;
    std::vector<double> opMs_;
    std::vector<uint32_t> opKind_;
    std::vector<double> opStartMs_; ///< trace mode: op start offsets
    Clock::time_point epoch_ = Clock::now();
    double phaseMs_ = 0.0;
    double setupSeconds_ = 0.0;
    uint64_t failed_ = 0;
    double peakRssMb_ = 0.0;
    uint64_t checkFailures_ = 0;
    std::vector<std::string> failures_;
    std::vector<std::pair<std::string, int64_t>> counts_;
    std::map<std::string, double> perOp_;
    std::map<std::string, double> layers_;
    std::map<std::string, std::string> labels_;
    std::map<std::string, uint64_t> threads_;
    std::vector<SpanRow> spans_;
};

/**
 * Times one op and (trace mode) its child spans: child() marks the
 * end of a child stage started at the previous mark.
 */
class OpTimer {
  public:
    OpTimer() : start_(Clock::now()), mark_(start_) {}

    /** Close a child span [previous mark, now] under @p name. */
    double child(Recorder& rec, const std::string& name);

    /** Milliseconds since the op began. */
    double elapsedMs() const { return msBetween(start_, Clock::now()); }

    /** Record the op and its children (Recorder::finishOp). */
    void finish(Recorder& rec, uint32_t kind);

    /** After finish(): op time not covered by child spans. */
    double residualMs() const { return residualMs_; }

  private:
    Clock::time_point start_;
    Clock::time_point mark_;
    std::vector<Recorder::Child> children_;
    double residualMs_ = 0.0;
};

/**
 * The host probe: a fixed integer-mixing loop plus a fixed
 * random-access walk over a 32 MiB table. Same work on every call, so
 * its time tracks how fast the host is running right now.
 */
double hostProbeMs();

/**
 * Pin each thread of this process to its own allowed CPU (none when
 * there are more threads than CPUs) and record how many were pinned.
 * A fresh process's pool workers otherwise wait on the caller's CPU:
 * for up to ~2.5 s after set-up all three busy threads of exec-large
 * share one vCPU and every op runs 2-3x slower. Call it only once no
 * thread will start another, since new threads inherit the mask.
 */
void pinThreads(Recorder& rec);

/** Peak resident set size of this process in MiB (VmHWM). */
double peakRssMb();

/** Pipeline options every workload synthesizes with. */
hecate::pipeline::PipelineOptions synthOptions(hecate::obs::Telemetry* sink);

/**
 * Checksum of every cell of a seeded @p nodes-node instance of
 * @p pipe's grammar after exec::computeReference (the oracle).
 */
uint64_t referenceChecksum(hecate::pipeline::Pipeline& pipe, uint32_t nodes,
                           uint64_t seed);

/** Checksum of the same instance after executing @p program over it. */
uint64_t programChecksum(hecate::pipeline::Pipeline& pipe,
                         const hecate::runtime::Program& program,
                         uint32_t nodes, uint64_t seed);

/** Lower median of @p values (0 when empty). */
double medianOf(std::vector<double> values);

/** splitmix64-derived sub-seed of (@p seed, @p salt). */
uint64_t subSeed(uint64_t seed, uint64_t salt);

/** Sum of child spans named @p name in @p sink, in milliseconds. */
double spanMs(const hecate::obs::Telemetry& sink, const char* name);

// The four workloads. Each runs its cold set-up once (ending at
// Recorder::setupDone), then its fixed op sequence, then its output
// checks. run.py takes the median set-up over several processes.
void runSynthFresh(const RunOptions& options, Recorder& rec);
void runExecLarge(const RunOptions& options, Recorder& rec);
void runEditStorm(const RunOptions& options, Recorder& rec);
void runServeMix(const RunOptions& options, Recorder& rec);

} // namespace perfbench
