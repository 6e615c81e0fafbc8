#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "exec/interp.hpp"
#include "runtime/executor.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"

using namespace hecate;

namespace perfbench {

Recorder::Recorder(const RunOptions& options)
    : options_(options), trace_(options.trace)
{
}

uint32_t
Recorder::kind(const std::string& name)
{
    auto it = std::find(kinds_.begin(), kinds_.end(), name);
    if (it != kinds_.end())
        return static_cast<uint32_t>(it - kinds_.begin());
    kinds_.push_back(name);
    return static_cast<uint32_t>(kinds_.size() - 1);
}

uint64_t
Recorder::op(uint32_t kind, double ms)
{
    opMs_.push_back(ms);
    opKind_.push_back(kind);
    phaseMs_ += ms;
    return opMs_.size() - 1;
}

bool
Recorder::setupDone()
{
    setupSeconds_ = msBetween(options_.start, Clock::now()) / 1e3;
    return !options_.setupOnly;
}

void
Recorder::fail(const std::string& why, uint64_t ops)
{
    failed_ += ops;
    if (ops == 0)
        ++checkFailures_;
    if (failures_.size() < 16)
        failures_.push_back(why);
}

void
Recorder::count(const std::string& key, int64_t value)
{
    counts_.emplace_back(key, value);
}

void
Recorder::markPeakRss()
{
    peakRssMb_ = peakRssMb();
}

double
Recorder::finishOp(uint32_t kind, Clock::time_point start, double ms,
                   const std::vector<Child>& children)
{
    const uint64_t id = op(kind, ms);
    if (!trace_)
        return 0.0;
    opStartMs_.resize(id + 1, 0.0);
    opStartMs_[id] = msBetween(epoch_, start);
    double childSum = 0.0;
    for (const Child& c : children) {
        spans_.push_back({id, c});
        layer(c.name + "_ms", c.durMs);
        childSum += c.durMs;
    }
    layer("trace.residual_ms", ms - childSum);
    layer("trace.op_ms", ms);
    return ms - childSum;
}

void
Recorder::write() const
{
    using net::Json;
    using net::JsonArray;
    using net::JsonObject;

    JsonObject out;
    out.emplace("workload", Json(options_.workload));
    out.emplace("seed", Json(options_.seed));
    out.emplace("trace", Json(trace_));
    out.emplace("hardware_threads",
                Json(uint64_t{std::thread::hardware_concurrency()}));
    JsonObject threads;
    for (const auto& [name, value] : threads_)
        threads.emplace(name, Json(value));
    out.emplace("threads", Json(std::move(threads)));
    out.emplace("setup_s", Json(setupSeconds_));
    out.emplace("phase_ms", Json(phaseMs_));
    JsonArray kinds;
    for (const std::string& k : kinds_)
        kinds.push_back(Json(k));
    out.emplace("kinds", Json(std::move(kinds)));
    JsonArray opMs, opKind;
    for (size_t i = 0; i < opMs_.size(); ++i) {
        opMs.push_back(Json(opMs_[i]));
        opKind.push_back(Json(opKind_[i]));
    }
    out.emplace("op_ms", Json(std::move(opMs)));
    out.emplace("op_kind", Json(std::move(opKind)));
    out.emplace("failed", Json(failed_));
    out.emplace("check_failures", Json(checkFailures_));
    JsonArray failures;
    for (const std::string& f : failures_)
        failures.push_back(Json(f));
    out.emplace("failures", Json(std::move(failures)));
    JsonArray counts;
    for (const auto& [key, value] : counts_)
        counts.push_back(Json(JsonArray{Json(key), Json(value)}));
    out.emplace("counts", Json(std::move(counts)));
    JsonObject layers;
    const double ops = opMs_.empty() ? 1.0 : double(opMs_.size());
    for (const auto& [name, value] : perOp_)
        layers.emplace(name, Json(value / ops));
    for (const auto& [name, value] : layers_)
        layers.emplace(name, Json(value));
    out.emplace("layers", Json(std::move(layers)));
    JsonObject labels;
    for (const auto& [name, value] : labels_)
        labels.emplace(name, Json(value));
    out.emplace("labels", Json(std::move(labels)));
    out.emplace("peak_rss_mb",
                Json(peakRssMb_ > 0.0 ? peakRssMb_ : peakRssMb()));

    std::ofstream file(options_.out);
    file << Json(std::move(out)).dump() << "\n";
    if (!file)
        userError("cannot write " + options_.out);

    if (!trace_ || options_.traceFile.empty())
        return;
    // Chrome trace-event form: one "X" event per op and per child,
    // children carrying their op's id, so chrome://tracing or Perfetto
    // shows each op with its layers underneath.
    std::ofstream trace(options_.traceFile);
    trace << "{\"traceEvents\": [";
    bool first = true;
    auto event = [&](const std::string& name, uint64_t op, double startMs,
                     double durMs, const char* cat) {
        char buffer[256];
        std::snprintf(buffer, sizeof(buffer),
                      "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                      "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"op\": %llu}}",
                      first ? "" : ",", name.c_str(), cat, startMs * 1e3,
                      durMs * 1e3, static_cast<unsigned long long>(op));
        trace << buffer;
        first = false;
    };
    for (size_t i = 0; i < opMs_.size() && i < opStartMs_.size(); ++i)
        event(kinds_[opKind_[i]], i, opStartMs_[i], opMs_[i], "op");
    for (const SpanRow& row : spans_)
        event(row.child.name, row.op, opStartMs_[row.op] + row.child.startMs,
              row.child.durMs, "layer");
    trace << "\n]}\n";
}

double
OpTimer::child(Recorder& rec, const std::string& name)
{
    const Clock::time_point now = Clock::now();
    const double dur = msBetween(mark_, now);
    if (rec.tracing())
        children_.push_back({name, msBetween(start_, mark_), dur});
    mark_ = now;
    return dur;
}

void
OpTimer::finish(Recorder& rec, uint32_t kind)
{
    residualMs_ = rec.finishOp(kind, start_, elapsedMs(), children_);
}

double
hostProbeMs()
{
    constexpr size_t kTableWords = size_t{4} << 20; // 32 MiB of uint64_t
    std::vector<uint64_t> table(kTableWords);
    for (size_t i = 0; i < table.size(); ++i)
        table[i] = splitmix64(i);
    const Clock::time_point start = Clock::now();
    uint64_t acc = 0;
    for (uint64_t i = 0; i < (uint64_t{1} << 23); ++i)
        acc += splitmix64(acc ^ i);
    uint64_t index = acc;
    for (uint32_t i = 0; i < (1u << 20); ++i) {
        index = table[index % kTableWords] ^ i;
        acc += index;
    }
    const double ms = msBetween(start, Clock::now());
    static volatile uint64_t sink = 0;
    sink = sink ^ acc;
    return ms;
}

void
pinThreads(Recorder& rec)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return;
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &allowed))
            cpus.push_back(cpu);
    std::vector<pid_t> tids;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task"))
        tids.push_back(pid_t(std::stol(task.path().filename().string())));
    std::sort(tids.begin(), tids.end());
    uint64_t pinned = 0;
    if (tids.size() <= cpus.size()) {
        for (size_t i = 0; i < tids.size(); ++i) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[i], &one);
            pinned += sched_setaffinity(tids[i], sizeof(one), &one) == 0;
        }
    }
    rec.thread("pinned_threads", pinned);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

pipeline::PipelineOptions
synthOptions(obs::Telemetry* sink)
{
    pipeline::PipelineOptions options;
    options.config.verify.maxDepth = 3;
    options.config.verifyThreads = 2;
    options.telemetry = sink;
    return options;
}

namespace {

runtime::TreeArena
instance(pipeline::Pipeline& pipe, uint32_t nodes, uint64_t seed)
{
    runtime::GenConfig gen;
    gen.targetNodes = nodes;
    gen.seed = seed;
    return runtime::TreeArena::generate(pipe.grammar(), pipe.rootInterface(),
                                        gen);
}

} // namespace

uint64_t
referenceChecksum(pipeline::Pipeline& pipe, uint32_t nodes, uint64_t seed)
{
    tree::Tree reference = instance(pipe, nodes, seed).toTree();
    reference.clearOutputs();
    exec::computeReference(reference);
    return runtime::TreeArena::fromTree(reference).checksum();
}

uint64_t
programChecksum(pipeline::Pipeline& pipe, const runtime::Program& program,
                uint32_t nodes, uint64_t seed)
{
    runtime::TreeArena arena = instance(pipe, nodes, seed);
    runtime::execute(program, arena);
    return arena.checksum();
}

double
medianOf(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[(values.size() - 1) / 2];
}

uint64_t
subSeed(uint64_t seed, uint64_t salt)
{
    return splitmix64(seed * 0x9e3779b97f4a7c15ull + salt);
}

double
spanMs(const obs::Telemetry& sink, const char* name)
{
    return sink.spanSeconds(name) * 1e3;
}

} // namespace perfbench
