/**
 * @file
 * exec-large and edit-storm: the two workloads over seeded 1M-node
 * arenas of AST and RenderTree.
 *
 *  - exec-large: each op is one warm full runtime::execute (bytecode
 *    tier, Auto strategy, 2-worker pool), cycling AST, RenderTree,
 *    RenderTree. The runtime's tiles, steal deques, kernels and strips do
 *    the work; the working set is far larger than cache.
 *  - edit-storm: each op applies one seeded incr::applyRandomEdits
 *    batch (3:1 mutate:replace) and heals it with
 *    Pipeline::reexecute. The run is split into kPeriods periods; at
 *    each period end (untimed) the compacted arena is checked against a
 *    from-scratch execute and the pristine executed copy is restored,
 *    so orphan rows never pile up across the run. Periods alternate
 *    between kScripts seeded edit scripts, so every script is replayed
 *    from the same pristine state and must reproduce its exact counts.
 *
 * Set-up is synthesis, compilation, generation and the cold first
 * execute of both arenas (plus, for edit-storm, the pristine copies).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "exec/interp.hpp"
#include "harness.hpp"
#include "incr/edit.hpp"
#include "incr/reexecute.hpp"
#include "runtime/executor.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

using namespace hecate;

namespace perfbench {

namespace {

constexpr uint32_t kArenaNodes = 1000000;
constexpr size_t kPoolWorkers = 2;

/**
 * Ops per second of --seconds, including each op's untimed checksum,
 * on the 4-vCPU reference host (a warm execute is ~12-25 ms; the
 * checksum of a 1M-node arena's outputs ~20-35 ms). Sizes the fixed op
 * count.
 */
constexpr double kExecOpsPerSecond = 20.0;

/**
 * exec-large runs the AST arena once for every two RenderTree ops
 * (AST executes take about twice as long): with a 1:1 mix, p50 would
 * sit exactly on the edge between the two arenas' latencies.
 */
constexpr uint64_t kExecCycle = 3;

size_t
execArena(uint64_t op)
{
    return op % kExecCycle == 0 ? 0 : 1;
}
/** Edit+reexecute ops per second of --seconds on the reference host. */
constexpr double kEditOpsPerSecond = 700.0;
constexpr int kPeriods = 4;
constexpr int kScripts = 2;

/**
 * Edit batch shapes (edits, replacement subtree nodes). Every 10
 * consecutive ops of an arena use each entry once, in a seeded order,
 * so any stretch of a run has the same mix. The 16 x 512 batches leave
 * frontiers wide enough that Auto picks the Wave walk for some ops.
 * The mix puts p50 inside the 8 x 64 ops and p95 inside the 16 x 512
 * ops, never on the edge between two shapes' latencies.
 */
struct BatchShape {
    uint32_t edits;
    uint32_t subtreeNodes;
};
constexpr BatchShape kShapes[] = {{4, 64},  {4, 64},  {4, 64},  {4, 64},
                                   {8, 64},  {8, 64},  {8, 64},  {8, 256},
                                   {8, 256}, {16, 512}};
constexpr size_t kShapeCount = std::size(kShapes);

/** One synthesized grammar with its executed 1M-node arena. */
struct ArenaEntry {
    std::string name; ///< op kind: "ast" / "rendertree"
    /** Traced runs: the pipeline's sink, which must outlive it. */
    std::unique_ptr<obs::Telemetry> sink;
    std::unique_ptr<pipeline::Pipeline> pipe;
    const runtime::Program* program = nullptr;
    std::optional<runtime::TreeArena> arena;
    double generateMs = 0.0;
    double coldMs = 0.0;
    runtime::RuntimeStats coldStats;
    uint64_t checksum = 0;
};

/**
 * Set-up of both arenas. A traced run also records the synthesis
 * layers of the set-up's two fresh syntheses, summed over AST and
 * RenderTree: with synth-fresh out of the gated benchmark, these are
 * where a synthesis change shows (through setup_s).
 */
std::vector<ArenaEntry>
buildArenas(uint64_t seed, ThreadPool& pool, Recorder& rec)
{
    std::vector<ArenaEntry> entries;
    const std::pair<const char*, const grammars::Benchmark*> benches[] = {
        {"ast", &grammars::astBench()},
        {"rendertree", &grammars::renderTree()}};
    std::map<std::string, double> synthLayers;
    for (size_t i = 0; i < 2; ++i) {
        ArenaEntry entry;
        entry.name = benches[i].first;
        entry.sink = std::make_unique<obs::Telemetry>();
        const obs::Telemetry& sink = *entry.sink;
        entry.pipe = std::make_unique<pipeline::Pipeline>(
            *benches[i].second, "",
            synthOptions(rec.tracing() ? entry.sink.get() : nullptr));
        OpTimer stages;
        entry.pipe->parse();
        synthLayers["lang.parse_ms"] += stages.child(rec, "lang.parse");
        entry.pipe->analyze();
        synthLayers["sem.analyze_ms"] += stages.child(rec, "sem.analyze");
        const pipeline::SynthArtifact& synth = entry.pipe->synthesize();
        synthLayers["synth.synthesize_ms"] +=
            stages.child(rec, "synth.synthesize");
        if (!synth.ok)
            userError(entry.name + ": set-up synthesis failed");
        entry.pipe->plan();
        synthLayers["sched.plan_ms"] += stages.child(rec, "sched.plan");
        entry.program = &entry.pipe->compileProgram();
        synthLayers["runtime.compile_ms"] +=
            stages.child(rec, "runtime.compile");
        entry.pipe->incrPlan();
        synthLayers["symbolic.encode_ms"] += spanMs(sink, "encode");
        synthLayers["solver.solve_ms"] += spanMs(sink, "solve");
        synthLayers["synth.verify_ms"] += spanMs(sink, "verify");
        synthLayers["solver.branch_nodes"] += sink.counter("ilp.branch_nodes");
        synthLayers["symbolic.constraint_terms"] +=
            sink.counter("ilp.constraint_terms");
        synthLayers["synth.cegis_rounds"] += synth.cegisIterations;
        synthLayers["synth.skeletons_tried"] += synth.skeletonsTried;
        synthLayers["plan_hits"] += sink.counter("plan_cache.hits");
        synthLayers["plan_lookups"] += sink.counter("plan_cache.hits") +
                                       sink.counter("plan_cache.misses");

        // TreeArena::generate returns a tiny tree when the root draws a
        // leaf class (a 2-node AST for about one seed in a hundred),
        // whatever the node budget. The workload needs a 1M-node arena,
        // so the next sub-seed is tried; each undersized draw is
        // reported (stderr and the run record), not hidden.
        runtime::GenConfig gen;
        gen.targetNodes = kArenaNodes;
        Clock::time_point start;
        for (uint64_t attempt = 0;; ++attempt) {
            gen.seed = subSeed(seed, 100 + i + 2 * attempt);
            start = Clock::now();
            entry.arena.emplace(runtime::TreeArena::generate(
                entry.pipe->grammar(), entry.pipe->rootInterface(), gen));
            if (entry.arena->size() >= kArenaNodes / 2)
                break;
            const std::string note =
                std::to_string(entry.arena->size()) +
                " nodes for a budget of " + std::to_string(kArenaNodes) +
                " (generation attempt " + std::to_string(attempt) + ")";
            std::fprintf(stderr, "perfbench_driver: %s: generated %s\n",
                         entry.name.c_str(), note.c_str());
            rec.label("undersized_arena." + entry.name, note);
            if (attempt == 7)
                userError(entry.name + ": generated arena has only " +
                          note);
        }
        entry.generateMs = msBetween(start, Clock::now());

        runtime::ExecOptions exec;
        exec.pool = &pool;
        start = Clock::now();
        entry.coldStats = runtime::execute(*entry.program, *entry.arena, exec);
        entry.coldMs = msBetween(start, Clock::now());
        entry.checksum = entry.arena->checksum();
        entries.push_back(std::move(entry));
    }
    if (rec.tracing()) {
        const double lookups = synthLayers["plan_lookups"];
        rec.layerSet("sched.plan_cache_hit_ratio",
                     lookups > 0.0 ? synthLayers["plan_hits"] / lookups : 0.0);
        synthLayers.erase("plan_hits");
        synthLayers.erase("plan_lookups");
        for (const auto& [name, value] : synthLayers)
            rec.layerSet(name, value);
    }
    return entries;
}

int64_t
asCount(uint64_t value)
{
    int64_t out;
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

} // namespace

void
runExecLarge(const RunOptions& options, Recorder& rec)
{
    rec.thread("exec_pool_workers", kPoolWorkers);
    rec.thread("busy_threads_max", kPoolWorkers + 1);
    ThreadPool pool(kPoolWorkers);
    std::vector<ArenaEntry> entries = buildArenas(options.seed, pool, rec);
    if (!rec.setupDone())
        return;
    pinThreads(rec);

    const uint64_t ops =
        kExecCycle * std::max<uint64_t>(1, std::llround(options.seconds *
                                                        kExecOpsPerSecond /
                                                        kExecCycle));
    std::vector<std::vector<double>> warmMs(entries.size());
    double tiles = 0.0, steals = 0.0;
    for (uint64_t i = 0; i < ops; ++i) {
        ArenaEntry& entry = entries[execArena(i)];
        const uint32_t kind = rec.kind(entry.name);
        obs::Telemetry sink;
        runtime::ExecOptions exec;
        exec.pool = &pool;
        exec.telemetry = rec.tracing() ? &sink : nullptr;
        // Untimed: every op computes its outputs from the inputs, so a
        // read before its write cannot find the last op's answer.
        entry.arena->clearOutputs();
        OpTimer timer;
        const runtime::RuntimeStats stats =
            runtime::execute(*entry.program, *entry.arena, exec);
        const double ms = timer.child(rec, "runtime.execute");
        timer.finish(rec, kind);
        warmMs[execArena(i)].push_back(ms);

        if (entry.arena->checksum() != entry.checksum)
            rec.fail(entry.name + ": execute output checksum changed");
        rec.count(entry.name + "/rules_evaluated",
                  asCount(stats.rulesEvaluated));
        if (rec.tracing()) {
            rec.layer("runtime.sweep_ms", spanMs(sink, "sweep.tiled"));
            rec.layer("runtime.tiles", stats.tilesExecuted);
            rec.layer("runtime.segment_kernels", stats.segmentKernels);
            rec.layer("runtime.strips", stats.stripsRun);
            rec.layer("runtime.fallback_nodes", stats.fallbackNodes);
            tiles += stats.tilesExecuted;
            steals += stats.tileSteals;
        }
    }

    rec.markPeakRss();
    double structureMs = 0.0, generateMs = 0.0;
    for (size_t a = 0; a < entries.size(); ++a) {
        const ArenaEntry& entry = entries[a];
        rec.count(entry.name + "/rules_evaluated",
                  asCount(entry.coldStats.rulesEvaluated));
        rec.count(entry.name + "/checksum", asCount(entry.checksum));
        rec.label("strategy." + entry.name,
                  std::string(runtime::sweepStrategyName(
                      entry.coldStats.strategy)) +
                      "/" +
                      runtime::strategyReasonName(entry.coldStats.selection));
        const double warm = medianOf(warmMs[a]);
        rec.layerSet("runtime.execute_ms." + entry.name, warm);
        structureMs += (entry.coldMs - warm) / entries.size();
        generateMs += entry.generateMs / entries.size();
    }
    if (rec.tracing()) {
        rec.layerSet("runtime.structure_ms", structureMs);
        rec.layerSet("runtime.generate_ms", generateMs);
        rec.layerSet("runtime.tile_steal_ratio",
                     tiles > 0.0 ? steals / tiles : 0.0);
    }

    // The checksum every op matched, verified once per arena against
    // the schedule interpreter over the whole 1M-node tree, and the
    // program against computeReference on a 20k-node instance
    // (computeReference over 1M nodes takes ~10 s per arena).
    for (ArenaEntry& entry : entries) {
        tree::Tree tree = entry.arena->toTree();
        tree.clearOutputs();
        exec::execute(entry.pipe->skeleton(),
                      *entry.pipe->synthesize().schedule, tree);
        if (runtime::TreeArena::fromTree(tree).checksum() != entry.checksum)
            rec.fail(entry.name + ": checksum disagrees with exec::execute",
                     0);
        const uint64_t checkSeed = subSeed(options.seed, 7);
        if (programChecksum(*entry.pipe, *entry.program, 20000, checkSeed) !=
            referenceChecksum(*entry.pipe, 20000, checkSeed))
            rec.fail(entry.name + ": program disagrees with "
                                  "computeReference",
                     0);
    }
}

void
runEditStorm(const RunOptions& options, Recorder& rec)
{
    rec.thread("exec_pool_workers", kPoolWorkers);
    rec.thread("busy_threads_max", kPoolWorkers + 1);
    ThreadPool pool(kPoolWorkers);
    std::vector<ArenaEntry> entries = buildArenas(options.seed, pool, rec);
    std::vector<std::optional<runtime::TreeArena>> pristine;
    for (ArenaEntry& entry : entries)
        pristine.emplace_back(*entry.arena);
    if (!rec.setupDone())
        return;
    pinThreads(rec);

    const uint64_t opsPerPeriod =
        2 * std::max<uint64_t>(1, std::llround(options.seconds *
                                               kEditOpsPerSecond /
                                               (2 * kPeriods)));
    double waves = 0.0, rulesEvaluated = 0.0, cellsDirtied = 0.0;
    uint64_t rowsMax = 0;
    for (int period = 0; period < kPeriods; ++period) {
        const int script = period % kScripts;
        std::vector<uint64_t> digest(entries.size(), 0);
        std::vector<size_t> deck(kShapeCount);
        for (uint64_t j = 0; j < opsPerPeriod; ++j) {
            const size_t a = j % entries.size();
            ArenaEntry& entry = entries[a];
            const uint32_t kind = rec.kind(entry.name);
            const uint64_t opSeed =
                subSeed(options.seed, 1000000 * (script + 1) + j);
            const uint64_t slot = j / entries.size() % kShapeCount;
            if (slot == 0 && a == 0) {
                for (size_t i = 0; i < kShapeCount; ++i)
                    deck[i] = i;
                Rng rng(opSeed);
                for (size_t i = kShapeCount; i > 1; --i)
                    std::swap(deck[i - 1], deck[rng.below(i)]);
            }
            const BatchShape shape = kShapes[deck[slot]];
            obs::Telemetry sink;
            incr::IncrOptions incrOptions;
            incrOptions.pool = &pool;
            incrOptions.telemetry = rec.tracing() ? &sink : nullptr;

            OpTimer timer;
            incr::applyRandomEdits(*entry.arena, shape.edits,
                                   shape.subtreeNodes, opSeed);
            timer.child(rec, "incr.edit");
            const incr::IncrStats stats =
                entry.pipe->reexecute(*entry.arena, incrOptions);
            timer.child(rec, "incr.reexecute");
            timer.finish(rec, kind);

            digest[a] = splitmix64(digest[a] ^ stats.rulesEvaluated);
            if (rec.tracing()) {
                rec.layer("incr.nodes_visited", stats.nodesVisited);
                rec.layer("incr.rules_checked", stats.rulesChecked);
                rec.layer("incr.rules_evaluated", stats.rulesEvaluated);
                waves += stats.usedWave ? 1.0 : 0.0;
                rulesEvaluated += stats.rulesEvaluated;
                cellsDirtied += stats.cellsDirtied;
                rowsMax = std::max<uint64_t>(rowsMax, entry.arena->size());
            }
        }

        // Reset point (untimed): the compacted arena must match a
        // from-scratch execute of the same shape; then restore the
        // pristine executed copy.
        for (size_t a = 0; a < entries.size(); ++a) {
            ArenaEntry& entry = entries[a];
            runtime::TreeArena arena = entry.arena->compact();
            const uint64_t healed = arena.checksum();
            arena.clearOutputs();
            runtime::ExecOptions exec;
            exec.pool = &pool;
            runtime::execute(*entry.program, arena, exec);
            const std::string key =
                entry.name + "/script" + std::to_string(script);
            if (arena.checksum() != healed)
                rec.fail(key + ": healed arena differs from a full execute",
                         opsPerPeriod / entries.size());
            rec.count(key + "/rules_evaluated_digest", asCount(digest[a]));
            rec.count(key + "/reset_checksum", asCount(healed));
            entry.arena.emplace(*pristine[a]);
        }
    }
    rec.markPeakRss();
    if (rec.tracing()) {
        const double ops = double(opsPerPeriod) * kPeriods;
        rec.layerSet("incr.wave_share", waves / ops);
        rec.layerSet("incr.cutoff_ratio",
                     rulesEvaluated > 0.0 ? cellsDirtied / rulesEvaluated
                                          : 0.0);
        rec.layerSet("incr.arena_rows_max", double(rowsMax));
    }
}

} // namespace perfbench
