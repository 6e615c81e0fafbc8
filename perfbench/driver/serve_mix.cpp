/**
 * @file
 * serve-mix: an in-process net::Server on loopback (2 request workers,
 * exec-threads 1) driven by two closed-loop net::Client connections,
 * each keeping one request outstanding and matching every response by
 * its "id". The zoo is synthesized into the server's cache during
 * set-up, so every synth in the timed phase is a cache hit.
 *
 * Each client sends blocks of 20 requests in a seed-shuffled order:
 *   6 synth    cache hits over 5 bundled grammars and 4 variants of the
 *              Fig. 3 render grammar, each in 3 isomorphic renames;
 *   4 run      server-generated ~20k-node AST / RenderTree trees
 *              (cache-resident, so Auto picks the small-tree strategy);
 *   4 run_tree client-supplied ~40-node trees;
 *   2 edit + 2 reexec  pairs on the client's pinned session;
 *   2 ping.
 * Every kSessionPairs pairs the session is re-pinned by a `run` with a
 * "session" field (op kind session_run), so the session's edits always
 * replay from the same tree and its digests repeat.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <thread>

#include "harness.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"

using namespace hecate;
using net::Json;
using net::JsonArray;
using net::JsonObject;

namespace perfbench {

namespace {

constexpr size_t kClients = 2;
constexpr size_t kServerWorkers = 2;
/**
 * Requests per second of --seconds over both clients (a 20 s run sends
 * 20000, ~24 s on the 4-vCPU reference host). The daemon's telemetry
 * sink keeps every request's spans, so its memory grows through the run
 * and the span buffer's capacity doubles near 16000 requests; the count
 * stays well past that point so every run's peak RSS includes it.
 */
constexpr double kServeOpsPerSecond = 1000.0;
constexpr int kBlockOps = 20;
constexpr int kSessionPairs = 8;
constexpr int kSessionNodes = 5000;
constexpr int kRunNodes = 20000;
constexpr int kTreeNodes = 40;
constexpr int kSalts = 4;
constexpr int kVariants = 3;
constexpr int kRunSeeds = 4;
constexpr int kTrees = 8;

/**
 * The Fig. 3 render grammar with constant @p salt (one synthesis
 * problem per salt) and every name suffixed by @p variant (isomorphic
 * renames: one problem key per salt).
 */
std::string
renderGrammar(int salt, int variant)
{
    const std::string v = "_v" + std::to_string(variant);
    const std::string s = std::to_string(salt);
    return "interface Box" + v + " {\n"
           "    input w0" + v + ", h0" + v + " : int;\n"
           "    output w1" + v + ", w" + v + ", h1" + v + ", h" + v +
           " : int;\n}\n"
           "class Inner" + v + " : Box" + v + " {\n"
           "    children {\n"
           "        nx" + v + " : Optional[Box" + v + "];\n"
           "        fc" + v + " : Optional[Box" + v + "];\n"
           "    }\n"
           "    rules {\n"
           "        self.w" + v + "  := max(self.w0" + v + " + " + s +
           ", fc" + v + ".w1" + v + ");\n"
           "        self.w1" + v + " := max(self.w" + v + ", nx" + v +
           ".w1" + v + ");\n"
           "        self.h" + v + "  := max(self.h0" + v + ", fc" + v +
           ".h1" + v + ");\n"
           "        self.h1" + v + " := self.h" + v + " + nx" + v +
           ".h1" + v + ";\n"
           "    }\n}\n"
           "class Leaf" + v + " : Box" + v + " {\n"
           "    children {}\n"
           "    rules {\n"
           "        self.w" + v + "  := self.w0" + v + ";\n"
           "        self.w1" + v + " := self.w" + v + ";\n"
           "        self.h" + v + "  := self.h0" + v + ";\n"
           "        self.h1" + v + " := self.h" + v + ";\n"
           "    }\n}\n";
}

/**
 * Tree depth cap of client-supplied trees: each level nests three JSON
 * values, and the server's parser refuses nesting past 64.
 */
constexpr int kTreeDepth = 12;

/** A random render-grammar tree of about @p budget nodes (variant 0). */
Json
randomTree(Rng& rng, int& budget, int depth = 0)
{
    --budget;
    JsonObject node;
    JsonObject inputs;
    inputs.emplace("w0_v0", Json(int64_t(rng.below(1000))));
    inputs.emplace("h0_v0", Json(int64_t(rng.below(1000))));
    node.emplace("inputs", Json(std::move(inputs)));
    if (budget <= 0 || depth >= kTreeDepth || rng.below(5) == 0) {
        node.emplace("class", Json("Leaf_v0"));
        return Json(std::move(node));
    }
    node.emplace("class", Json("Inner_v0"));
    JsonObject children;
    for (const char* child : {"fc_v0", "nx_v0"})
        children.emplace(child, budget > 0 && rng.below(4) != 0
                                    ? randomTree(rng, budget, depth + 1)
                                    : Json());
    node.emplace("children", Json(std::move(children)));
    return Json(std::move(node));
}

int64_t
digestOf(const std::string& text)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text)
        h = (h ^ c) * 1099511628211ull;
    return int64_t(h >> 1);
}

int64_t
checksumOf(const Json& response)
{
    const Json* checksum = response.find("checksum");
    return checksum != nullptr && checksum->isInt() ? checksum->asInt() : 0;
}

/** One request of a client's fixed sequence. */
struct Request {
    std::string kind;
    Json body;           ///< without "id" (added when sent)
    std::string digestKey; ///< determinism key; empty = none
};

/** What a client observed for one request. */
struct Sample {
    uint32_t kindIndex = 0;
    Clock::time_point start;
    double ms = 0.0;
    double serverMs = 0.0; ///< server-reported time; 0 when none
    bool ok = false;
    std::string failure;
    std::string digestKey;
    int64_t digest = 0;
};

/** The shared, seed-derived request zoo. */
struct Zoo {
    std::vector<std::string> synthGrammars; ///< inline source or builtin:
    std::vector<std::string> synthNames;
    std::vector<Json> trees;
};

Zoo
makeZoo(uint64_t seed)
{
    Zoo zoo;
    for (const char* name : {"binarytree", "fmm", "piecewise", "ast",
                             "rendertree"}) {
        zoo.synthGrammars.push_back(std::string("builtin:") + name);
        zoo.synthNames.push_back(name);
    }
    for (int salt = 0; salt < kSalts; ++salt)
        for (int variant = 0; variant < kVariants; ++variant) {
            zoo.synthGrammars.push_back(renderGrammar(salt, variant));
            zoo.synthNames.push_back("render" + std::to_string(salt) + "v" +
                                     std::to_string(variant));
        }
    Rng rng(subSeed(seed, 3));
    for (int t = 0; t < kTrees; ++t) {
        int budget = kTreeNodes;
        zoo.trees.push_back(randomTree(rng, budget));
    }
    return zoo;
}

Json
object(std::initializer_list<std::pair<const char*, Json>> fields)
{
    JsonObject out;
    for (const auto& [key, value] : fields)
        out.emplace(key, value);
    return Json(std::move(out));
}

/** The protocol "client" id of client @p client ("c0", "c1", ...). */
std::string
clientName(size_t client)
{
    std::string name = "c";
    name += std::to_string(client);
    return name;
}

/**
 * The `run` that pins client @p client's session: a generated render
 * tree. Attempt @p attempt varies the generation seed (a tree whose
 * root draws the Leaf class has one node and takes no edits).
 */
Json
sessionRun(size_t client, uint64_t seed, int attempt)
{
    return object(
        {{"op", Json("run")},
         {"client", Json(clientName(client))},
         {"session", Json("s")},
         {"grammar", Json(renderGrammar(0, 0))},
         {"tree_size", Json(int64_t(kSessionNodes))},
         {"seed", Json(int64_t(subSeed(seed, 50 + 64 * client + attempt) >>
                               33))}});
}

/**
 * Client @p client's fixed request sequence: whole blocks, each
 * shuffled from the seed, with session re-pins every kSessionPairs
 * edit/reexec pairs.
 */
std::vector<Request>
makeSequence(const Zoo& zoo, size_t client, uint64_t seed, int blocks,
             const Json& sessionPin, int sessionNodes)
{
    Rng rng(subSeed(seed, 10 + client));
    const std::string clientId = clientName(client);
    std::vector<Request> out;
    int pairs = 0;
    for (int b = 0; b < blocks; ++b) {
        // 18 units: a pair unit is edit followed by its reexec.
        std::vector<char> units;
        units.insert(units.end(), 6, 's');
        units.insert(units.end(), 4, 'r');
        units.insert(units.end(), 4, 't');
        units.insert(units.end(), 2, 'e');
        units.insert(units.end(), 2, 'p');
        for (size_t i = units.size(); i > 1; --i)
            std::swap(units[i - 1], units[rng.below(i)]);
        for (char unit : units) {
            switch (unit) {
            case 's': {
                const size_t g = rng.below(zoo.synthGrammars.size());
                out.push_back({"synth",
                               object({{"op", Json("synth")},
                                       {"grammar",
                                        Json(zoo.synthGrammars[g])}}),
                               "synth/" + zoo.synthNames[g]});
                break;
            }
            case 'r': {
                const bool ast = rng.below(2) == 0;
                const int64_t runSeed = int64_t(rng.below(kRunSeeds)) + 1;
                const std::string grammar = ast ? "ast" : "rendertree";
                out.push_back(
                    {"run",
                     object({{"op", Json("run")},
                             {"grammar", Json("builtin:" + grammar)},
                             {"tree_size", Json(int64_t(kRunNodes))},
                             {"seed", Json(runSeed)}}),
                     "run/" + grammar + "/" + std::to_string(runSeed)});
                break;
            }
            case 't': {
                const size_t t = rng.below(zoo.trees.size());
                out.push_back({"run_tree",
                               object({{"op", Json("run")},
                                       {"grammar", Json(renderGrammar(0, 0))},
                                       {"tree", zoo.trees[t]}}),
                               "run_tree/" + std::to_string(t)});
                break;
            }
            case 'e': {
                if (pairs > 0 && pairs % kSessionPairs == 0)
                    out.push_back({"session_run", sessionPin,
                                   clientId + "/session_run"});
                const int slot = pairs % kSessionPairs;
                ++pairs;
                // Mutations only: every node stays live, so ids drawn
                // from the session's node count are always valid.
                Rng editRng(subSeed(seed, 1000 * (client + 1) + slot));
                JsonArray edits;
                for (int e = 0; e < 4; ++e)
                    edits.push_back(object(
                        {{"kind", Json("mutate")},
                         {"node",
                          Json(int64_t(1 + editRng.below(sessionNodes - 1)))},
                         {"attr", Json(int64_t(editRng.below(2)))},
                         {"value", Json(int64_t(editRng.below(1000)))}}));
                out.push_back({"edit",
                               object({{"op", Json("edit")},
                                       {"client", Json(clientId)},
                                       {"session", Json("s")},
                                       {"edits", Json(std::move(edits))}}),
                               ""});
                out.push_back({"reexec",
                               object({{"op", Json("reexec")},
                                       {"client", Json(clientId)},
                                       {"session", Json("s")}}),
                               clientId + "/reexec/" + std::to_string(slot)});
                break;
            }
            default:
                out.push_back({"ping", object({{"op", Json("ping")}}), ""});
            }
        }
    }
    return out;
}

/** Server-reported service time of @p response, in milliseconds. */
double
serverMs(const std::string& kind, const Json& response)
{
    if (kind == "synth")
        return response.doubleOr("ms", 0.0);
    if (kind == "reexec")
        return response.doubleOr("reexec_ms", 0.0);
    if (kind == "run" || kind == "run_tree" || kind == "session_run")
        return response.doubleOr("generate_ms", 0.0) +
               response.doubleOr("execute_ms", 0.0);
    return 0.0;
}

/** Digest of a response for the determinism guard. */
int64_t
responseDigest(const std::string& kind, const Json& response)
{
    if (kind == "synth")
        return digestOf(response.stringOr("key", "") + "\n" +
                        response.stringOr("traversal", ""));
    return checksumOf(response);
}

/** Send @p body with @p id and wait for its response. */
Json
roundTrip(net::Client& client, Json body, int64_t id, bool* idMatched)
{
    JsonObject request = body.asObject();
    request.insert_or_assign("id", Json(id));
    Json response = client.call(Json(std::move(request)));
    const Json* echoed = response.find("id");
    *idMatched = echoed != nullptr && echoed->isInt() && echoed->asInt() == id;
    return response;
}

/** A started server with its cache warmed and sessions pinned. */
struct Served {
    std::unique_ptr<net::Server> server;
    std::vector<Json> sessionPins;  ///< per client: the pinning `run`
    std::vector<int> sessionNodes;  ///< per client: its tree's size
};

Served
startServer(const Zoo& zoo, uint64_t seed)
{
    net::ServeOptions options;
    options.workers = kServerWorkers;
    options.execThreads = 1;
    options.maxSessions = 8;
    options.service.workers = 1;
    Served served;
    served.server = std::make_unique<net::Server>(options);
    served.server->start();
    net::Client client("127.0.0.1", served.server->port());
    bool matched = false;
    int64_t id = 0;
    // Synthesize every distinct problem once (variant 0 of each salt
    // stands for its renames).
    for (size_t g = 0; g < zoo.synthGrammars.size(); ++g) {
        if (zoo.synthNames[g].find('v') != std::string::npos &&
            zoo.synthNames[g].back() != '0')
            continue;
        Json response = roundTrip(
            client,
            object({{"op", Json("synth")},
                    {"grammar", Json(zoo.synthGrammars[g])}}),
            ++id, &matched);
        if (!response.boolOr("ok", false) || !matched)
            userError("serve-mix: warm-up synth failed: " + response.dump());
    }
    for (size_t c = 0; c < kClients; ++c) {
        for (int attempt = 0;; ++attempt) {
            Json pin = sessionRun(c, seed, attempt);
            Json response = roundTrip(client, pin, ++id, &matched);
            if (!response.boolOr("ok", false) || !matched)
                userError("serve-mix: session pin failed: " +
                          response.dump());
            const int nodes = int(response.intOr("nodes", 0));
            if (nodes >= kSessionNodes / 2) {
                served.sessionPins.push_back(std::move(pin));
                served.sessionNodes.push_back(nodes);
                break;
            }
            if (attempt == 63)
                userError("serve-mix: no session tree of >= " +
                          std::to_string(kSessionNodes / 2) + " nodes");
        }
    }
    return served;
}

void
stopServer(Served& served)
{
    served.server->requestDrain();
    served.server->waitUntilStopped();
    served.server.reset();
}

double
numberAt(const Json& root, std::initializer_list<const char*> path)
{
    const Json* node = &root;
    for (const char* key : path) {
        node = node->find(key);
        if (node == nullptr)
            return 0.0;
    }
    return node->isNumber() ? node->asDouble() : 0.0;
}

} // namespace

void
runServeMix(const RunOptions& options, Recorder& rec)
{
    rec.thread("server_workers", kServerWorkers);
    rec.thread("server_exec_threads", 1);
    rec.thread("service_pool_workers", 1);
    rec.thread("client_connections", kClients);
    rec.thread("busy_threads_max", kServerWorkers + kClients);

    const Zoo zoo = makeZoo(options.seed);
    Served served = startServer(zoo, options.seed);
    const uint16_t port = served.server->port();

    const int blocks = std::max(
        1, int(std::lround(options.seconds * kServeOpsPerSecond /
                           (kClients * kBlockOps))));
    std::vector<std::vector<Request>> sequences;
    for (size_t c = 0; c < kClients; ++c)
        sequences.push_back(
            makeSequence(zoo, c, options.seed, blocks, served.sessionPins[c],
                         served.sessionNodes[c]));
    std::vector<std::string> kindNames = {"synth",  "run",  "run_tree",
                                          "edit",   "reexec", "ping",
                                          "session_run"};
    for (const std::string& name : kindNames)
        rec.kind(name);
    if (!rec.setupDone()) {
        stopServer(served);
        return;
    }

    // Traced runs read the server's `metrics` op before and after the
    // timed phase, and sample its queue from a third connection.
    Json before;
    std::atomic<bool> running{true};
    double queueMax = 0.0;
    std::thread observer;
    if (rec.tracing()) {
        net::Client probe("127.0.0.1", port);
        bool matched = false;
        before = roundTrip(probe, object({{"op", Json("metrics")}}), 0,
                           &matched);
        observer = std::thread([&] {
            net::Client probe("127.0.0.1", port);
            bool matched = false;
            while (running.load()) {
                Json m = roundTrip(probe, object({{"op", Json("metrics")}}),
                                   0, &matched);
                queueMax = std::max(queueMax,
                                    numberAt(m, {"queue", "depth"}) +
                                        numberAt(m, {"queue", "in_flight"}));
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
        });
    }

    std::vector<std::vector<Sample>> samples(kClients);
    std::vector<std::thread> clients;
    const Clock::time_point phaseStart = Clock::now();
    for (size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            net::Client client("127.0.0.1", port);
            std::vector<Sample>& out = samples[c];
            out.reserve(sequences[c].size());
            int64_t id = int64_t(c) << 32;
            for (const Request& request : sequences[c]) {
                Sample sample;
                sample.kindIndex = uint32_t(
                    std::find(kindNames.begin(), kindNames.end(),
                              request.kind) -
                    kindNames.begin());
                sample.digestKey = request.digestKey;
                bool matched = false;
                sample.start = Clock::now();
                try {
                    Json response =
                        roundTrip(client, request.body, ++id, &matched);
                    sample.ms = msBetween(sample.start, Clock::now());
                    sample.ok = matched && response.boolOr("ok", false);
                    if (!sample.ok)
                        sample.failure =
                            request.kind + (matched ? ": " : ": id mismatch: ") +
                            response.dump().substr(0, 300);
                    sample.serverMs = serverMs(request.kind, response);
                    sample.digest = responseDigest(request.kind, response);
                } catch (const std::exception& error) {
                    sample.ms = msBetween(sample.start, Clock::now());
                    sample.failure = request.kind + ": " + error.what();
                }
                out.push_back(std::move(sample));
            }
        });
    for (std::thread& thread : clients)
        thread.join();
    const double phaseMs = msBetween(phaseStart, Clock::now());
    running.store(false);
    if (observer.joinable())
        observer.join();

    // Record the ops in the order they were issued, across clients.
    std::vector<Sample> issued;
    for (std::vector<Sample>& list : samples)
        std::move(list.begin(), list.end(), std::back_inserter(issued));
    std::sort(issued.begin(), issued.end(),
              [](const Sample& a, const Sample& b) { return a.start < b.start; });

    std::vector<std::vector<double>> byKind(kindNames.size());
    double serverExecute = 0.0, serverReexec = 0.0;
    double runs = 0.0, reexecs = 0.0;
    for (const Sample& sample : issued) {
        // The server reports how long it worked, not when: its span
        // is placed mid-op, and the rest of the op is net overhead.
        std::vector<Recorder::Child> children;
        if (sample.serverMs > 0.0)
            children.push_back({"net.server",
                                (sample.ms - sample.serverMs) / 2,
                                sample.serverMs});
        rec.layer("net.overhead_ms",
                  rec.finishOp(sample.kindIndex, sample.start, sample.ms,
                               children));
        if (!sample.ok)
            rec.fail(sample.failure);
        else if (!sample.digestKey.empty())
            rec.count(sample.digestKey, sample.digest);
        byKind[sample.kindIndex].push_back(sample.ms);
        const std::string& kind = kindNames[sample.kindIndex];
        if (kind == "run") {
            serverExecute += sample.serverMs;
            runs += 1;
        } else if (kind == "reexec") {
            serverReexec += sample.serverMs;
            reexecs += 1;
        }
    }
    rec.setPhase(phaseMs);
    rec.markPeakRss();

    // After the timed phase: re-send a fixed sample with check: true.
    // Each must come back ok, check "ok", and (for runs) with the
    // checksum the timed phase saw.
    {
        net::Client client("127.0.0.1", port);
        bool matched = false;
        int64_t id = int64_t(kClients) << 32;
        for (const char* grammar : {"ast", "rendertree"})
            for (int64_t runSeed = 1; runSeed <= 2; ++runSeed) {
                Json response = roundTrip(
                    client,
                    object({{"op", Json("run")},
                            {"grammar", Json(std::string("builtin:") + grammar)},
                            {"tree_size", Json(int64_t(kRunNodes))},
                            {"seed", Json(runSeed)},
                            {"check", Json(true)}}),
                    ++id, &matched);
                if (!matched || response.stringOr("check", "") != "ok")
                    rec.fail(std::string("check run ") + grammar + ": " +
                                 response.dump(),
                             0);
                rec.count("run/" + std::string(grammar) + "/" +
                              std::to_string(runSeed),
                          checksumOf(response));
            }
        for (size_t t = 0; t < zoo.trees.size(); ++t) {
            Json response = roundTrip(
                client,
                object({{"op", Json("run")},
                        {"grammar", Json(renderGrammar(0, 0))},
                        {"tree", zoo.trees[t]},
                        {"check", Json(true)}}),
                ++id, &matched);
            if (!matched || response.stringOr("check", "") != "ok")
                rec.fail("check run_tree: " + response.dump(), 0);
            rec.count("run_tree/" + std::to_string(t), checksumOf(response));
        }
        for (size_t c = 0; c < kClients; ++c) {
            Json response = roundTrip(
                client,
                object({{"op", Json("reexec")},
                        {"client", Json(clientName(c))},
                        {"session", Json("s")},
                        {"check", Json(true)}}),
                ++id, &matched);
            if (!matched || response.stringOr("check", "") != "ok")
                rec.fail("check reexec: " + response.dump(), 0);
        }
    }

    if (rec.tracing()) {
        net::Client probe("127.0.0.1", port);
        bool matched = false;
        Json after = roundTrip(probe, object({{"op", Json("metrics")}}), 0,
                               &matched);
        auto delta = [&](std::initializer_list<const char*> path) {
            return numberAt(after, path) - numberAt(before, path);
        };
        const char* names[] = {"synth", "run", "run_tree", "edit", "reexec",
                               "ping"};
        for (size_t k = 0; k < std::size(names); ++k)
            rec.layerSet(std::string("net.") + names[k] + "_ms",
                         medianOf(byKind[k]));
        rec.layerSet("net.server_execute_ms",
                     runs > 0 ? serverExecute / runs : 0.0);
        rec.layerSet("net.server_reexec_ms",
                     reexecs > 0 ? serverReexec / reexecs : 0.0);
        rec.layerSet("net.server_p99_ms",
                     numberAt(after, {"latency", "run", "p99_ms"}));
        rec.layerSet("net.queue_depth_max", queueMax);
        const double requests = delta({"service", "requests"});
        rec.layerSet("service.cache_hit_ratio",
                     requests > 0 ? delta({"service", "cache_hits"}) / requests
                                  : 0.0);
        rec.layerSet("net.rejected",
                     delta({"requests", "rejected_queue"}) +
                         delta({"requests", "rejected_quota"}));
        rec.layerSet("net.sessions_evicted", delta({"sessions", "evicted"}));
        for (const char* strategy : {"stack", "linear", "segmented", "tiled"})
            rec.layerSet(std::string("runtime.strategy_counts.") + strategy,
                         delta({"exec", "strategy", strategy}));
    }
    stopServer(served);
}

} // namespace perfbench
