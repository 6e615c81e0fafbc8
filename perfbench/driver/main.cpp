/**
 * @file
 * perfbench_driver: runs one benchmark workload and writes its raw
 * samples as JSON (see harness.hpp). Invoked by perfbench/run.py:
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --out result.json [--trace-file spans.json]
 *                    [--setup-only 1]
 *   perfbench_driver --probe
 *
 * --probe prints the host probe's time in milliseconds; run.py runs it
 * in its own process before and after each workload so the probe's
 * table never counts toward the workload's peak RSS. --setup-only 1
 * runs the workload's cold set-up and stops: run.py starts a few such
 * processes so setup_s is a median of cold set-ups.
 *
 * Exit codes: 0 = ran (correctness is in the JSON), 2 = usage error,
 * 1 = the workload threw.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

using namespace perfbench;

namespace {

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "synth-fresh|exec-large|edit-storm|serve-mix --seed N "
                 "--seconds S --trace 0|1 --out FILE [--trace-file FILE] "
                 "[--setup-only 0|1]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    RunOptions options; // stamps the start of main: set-up begins here
    if (argc == 2 && std::strcmp(argv[1], "--probe") == 0) {
        std::printf("%.6f\n", hostProbeMs());
        return 0;
    }

    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            options.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            options.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--out")
            options.out = value;
        else if (flag == "--trace-file")
            options.traceFile = value;
        else if (flag == "--setup-only")
            options.setupOnly = std::strcmp(value, "0") != 0;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0)
        return usage("flags take one value each");
    if (options.out.empty() || !(options.seconds > 0.0))
        return usage("--out and a positive --seconds are required");

    // Every thread count is fixed here, never taken from the hardware:
    // the service path resolves verification threads from this variable.
    setenv("HECATE_VERIFY_THREADS", "2", 1);

    using Runner = void (*)(const RunOptions&, Recorder&);
    Runner runner = nullptr;
    if (options.workload == "synth-fresh")
        runner = runSynthFresh;
    else if (options.workload == "exec-large")
        runner = runExecLarge;
    else if (options.workload == "edit-storm")
        runner = runEditStorm;
    else if (options.workload == "serve-mix")
        runner = runServeMix;
    else
        return usage(("unknown workload '" + options.workload + "'").c_str());

    try {
        Recorder rec(options);
        runner(options, rec);
        rec.write();
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_driver: %s: %s\n",
                     options.workload.c_str(), error.what());
        return 1;
    }
    return 0;
}
