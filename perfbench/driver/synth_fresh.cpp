/**
 * @file
 * synth-fresh: the paper's own measurement. Each op runs one bundled
 * grammar through Pipeline parse → analyze → synthesize → plan →
 * compileProgram with no ScheduleCache, so every op is a fresh CEGIS
 * run (auto-tuned skeleton, verify depth 3, 2 verify threads).
 *
 * One round holds each of the four cheapest grammars (BinaryTree, FMM,
 * Piecewise, RenderTree) seven times and AST and the three CSS grammars
 * once: 32 ops, ~2.2 s on a 4-vCPU host, most of it in the CSS
 * grammars. The cheap copies put 224 ops into the 7 rounds of a 20 s
 * run, so p95 has ≥10 samples beyond it; with 32 ops a round, p50 falls
 * inside the BinaryTree samples and p95 inside the CSS-float/-margin
 * samples, never on the edge between two grammars. The round's order
 * is shuffled once from the seed and then repeated.
 */

#include <algorithm>
#include <cmath>
#include <map>

#include "harness.hpp"
#include "support/rng.hpp"

using namespace hecate;

namespace perfbench {

namespace {

struct RoundEntry {
    const grammars::Benchmark& (*bench)();
    int copies;
};

const RoundEntry kRound[] = {
    {grammars::binaryTree, 7}, {grammars::fmm, 7},
    {grammars::piecewise, 7},  {grammars::renderTree, 7},
    {grammars::astBench, 1},   {grammars::cssFloat, 1},
    {grammars::cssMargin, 1},  {grammars::cssFull, 1},
};

/** Rounds per second of --seconds (7 per 20 s run). */
constexpr double kRoundsPerSecond = 0.35;

/** Nodes of the small instance each op's program is checked on. */
constexpr uint32_t kCheckNodes = 300;

/**
 * One cold pipeline through compileProgram (set-up): returns the
 * schedule text every timed op of this grammar must reproduce.
 */
std::string
compileOnce(const grammars::Benchmark& bench)
{
    pipeline::Pipeline pipe(bench, "", synthOptions(nullptr));
    const pipeline::SynthArtifact& synth = pipe.synthesize();
    if (!synth.ok)
        hecate::userError("synth-fresh: set-up synthesis failed for " +
                          bench.name);
    pipe.compileProgram();
    return synth.concreteTraversal;
}

} // namespace

void
runSynthFresh(const RunOptions& options, Recorder& rec)
{
    rec.thread("verify_threads", 2);
    rec.thread("busy_threads_max", 2);

    // Set-up: a cold synthesis of each of the 8 grammars, whose
    // schedule text is what every timed op must reproduce, and the
    // seeded op order.
    std::map<std::string, std::string> expectedText;
    std::vector<const grammars::Benchmark*> order;
    for (const RoundEntry& entry : kRound) {
        const grammars::Benchmark& bench = entry.bench();
        expectedText[bench.name] = compileOnce(bench);
        for (int c = 0; c < entry.copies; ++c)
            order.push_back(&bench);
    }
    Rng rng(subSeed(options.seed, 1));
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    if (!rec.setupDone())
        return;

    const int rounds =
        std::max(1, int(std::lround(options.seconds * kRoundsPerSecond)));
    std::map<std::string, uint64_t> referenceSum; ///< oracle, per grammar
    double planHits = 0.0, planLookups = 0.0;
    for (int round = 0; round < rounds; ++round) {
        for (const grammars::Benchmark* bench : order) {
            const uint32_t kind = rec.kind(bench->name);
            obs::Telemetry sink;
            OpTimer timer;
            pipeline::Pipeline pipe(
                *bench, "", synthOptions(rec.tracing() ? &sink : nullptr));
            pipe.parse();
            timer.child(rec, "lang.parse");
            pipe.analyze();
            timer.child(rec, "sem.analyze");
            const pipeline::SynthArtifact& synth = pipe.synthesize();
            timer.child(rec, "synth.synthesize");
            if (!synth.ok) {
                timer.finish(rec, kind);
                rec.fail(bench->name + ": synthesis failed: " + synth.failure);
                continue;
            }
            pipe.plan();
            timer.child(rec, "sched.plan");
            const runtime::Program& program = pipe.compileProgram();
            timer.child(rec, "runtime.compile");
            timer.finish(rec, kind);

            // Checks, outside the op timer.
            const bool textOk =
                expectedText[bench->name] == synth.concreteTraversal;
            // The oracle's answer on this grammar's check instance does
            // not depend on the op, so it is computed once.
            const uint64_t checkSeed = subSeed(options.seed, kind);
            auto [sum, first] = referenceSum.emplace(bench->name, 0);
            if (first)
                sum->second = referenceChecksum(pipe, kCheckNodes, checkSeed);
            const bool programOk =
                programChecksum(pipe, program, kCheckNodes, checkSeed) ==
                sum->second;
            if (!textOk)
                rec.fail(bench->name + ": schedule text differs from the "
                                       "set-up synthesis");
            else if (!programOk)
                rec.fail(bench->name + ": program disagrees with "
                                       "computeReference");
            rec.count(bench->name + "/cegis_rounds", synth.cegisIterations);
            rec.count(bench->name + "/skeletons_tried", synth.skeletonsTried);
            if (rec.tracing()) {
                rec.count(bench->name + "/branch_nodes",
                          int64_t(sink.counter("ilp.branch_nodes")));
                rec.layer("pipeline.residual_ms", timer.residualMs());
                rec.layer("symbolic.encode_ms", spanMs(sink, "encode"));
                rec.layer("solver.solve_ms", spanMs(sink, "solve"));
                rec.layer("synth.verify_ms", spanMs(sink, "verify"));
                rec.layer("solver.branch_nodes",
                          sink.counter("ilp.branch_nodes"));
                rec.layer("symbolic.constraint_terms",
                          sink.counter("ilp.constraint_terms"));
                rec.layer("synth.cegis_rounds", synth.cegisIterations);
                rec.layer("synth.skeletons_tried", synth.skeletonsTried);
                planHits += sink.counter("plan_cache.hits");
                planLookups += sink.counter("plan_cache.hits") +
                               sink.counter("plan_cache.misses");
            }
        }
    }
    rec.markPeakRss();
    if (rec.tracing() && planLookups > 0.0)
        rec.layerSet("sched.plan_cache_hit_ratio", planHits / planLookups);

    // Exact work counts for the determinism guard: one untimed,
    // telemetry-instrumented synthesis per grammar. Its CEGIS rounds
    // must equal the timed ops'; its ILP branch nodes are recorded
    // (in a traced run every op records them too).
    for (const RoundEntry& entry : kRound) {
        const grammars::Benchmark& bench = entry.bench();
        obs::Telemetry sink;
        pipeline::Pipeline pipe(bench, "", synthOptions(&sink));
        const pipeline::SynthArtifact& synth = pipe.synthesize();
        rec.count(bench.name + "/cegis_rounds", synth.cegisIterations);
        rec.count(bench.name + "/skeletons_tried", synth.skeletonsTried);
        rec.count(bench.name + "/branch_nodes",
                  int64_t(sink.counter("ilp.branch_nodes")));
        auto it = expectedText.find(bench.name);
        if (!synth.ok || it == expectedText.end() ||
            it->second != synth.concreteTraversal)
            rec.fail(bench.name + ": count pass disagrees with the ops", 0);
    }
}

} // namespace perfbench
