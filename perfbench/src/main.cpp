/**
 * @file
 * perfbench_load — runs one benchmark workload and prints its metrics.
 *
 *   perfbench_load --workload hot_wire|cold_sim|overload --seed N
 *                  --seconds S --trace 0|1
 *                  [--reference perfbench/reference.tsv]
 *                  [--trace-out FILE] [--routerd PATH]
 *   perfbench_load --pin 1 [--reference FILE]
 *
 * Prints a table of every metric with its unit, then, as the last
 * line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * --trace 0 reports the end-to-end metrics of an untraced run;
 * --trace 1 reports the per-layer metrics of a traced run. --pin 1
 * re-runs every suite program and rewrites the reference file.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>

#include "bench.hpp"
#include "bench/flags.hpp"

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::uint64_t trace = 0;
    std::uint64_t pin = 0;
    perfbench::RunOptions opt;
    opt.referencePath = "perfbench/reference.tsv";
    opt.routerdPath = PERFBENCH_ROUTERD;

    com::bench::FlagSet flags(
        "perfbench_load",
        "run one repository benchmark workload and print its metrics");
    flags.addString("workload", &workload,
                    "hot_wire, cold_sim or overload");
    flags.addUint("seed", &seed, "request stream seed");
    flags.addDouble("seconds", &seconds, "measured seconds");
    flags.addUint("trace", &trace,
                  "1: traced run reporting per-layer metrics");
    flags.addString("reference", &opt.referencePath,
                    "pinned reference observables");
    flags.addString("trace-out", &opt.traceOut,
                    "where a traced run writes its spans");
    flags.addString("routerd", &opt.routerdPath,
                    "comsim_routerd binary (hot_wire)");
    flags.addUint("pin", &pin,
                  "1: re-pin the reference observables and exit");
    flags.parse(argc, argv);

    try {
        perfbench::References refs;
        std::string err;
        if (pin != 0) {
            if (!refs.pin(opt.referencePath, &err)) {
                std::fprintf(stderr, "perfbench_load: %s\n", err.c_str());
                return 1;
            }
            std::printf("pinned %zu programs to %s\n", refs.size(),
                        opt.referencePath.c_str());
            return 0;
        }
        if (!perfbench::parseWorkload(workload, &opt.workload) ||
            seconds <= 0.0 || trace > 1) {
            std::fprintf(stderr,
                         "perfbench_load: want --workload hot_wire|"
                         "cold_sim|overload, --seconds > 0, --trace "
                         "0|1\n");
            return 2;
        }
        if (!refs.load(opt.referencePath, &err)) {
            std::fprintf(stderr, "perfbench_load: %s\n", err.c_str());
            return 1;
        }
        opt.seed = seed;
        opt.seconds = seconds;
        opt.trace = trace != 0;

        perfbench::RunReport report = perfbench::runWorkload(opt, refs);

        std::printf("%s seed %" PRIu64 ", %s run\n", workload.c_str(),
                    seed, opt.trace ? "traced" : "untraced");
        for (const std::string &note : report.notes)
            std::printf("  %s\n", note.c_str());
        for (perfbench::Metric &m : report.metrics) {
            if (!std::isfinite(m.value)) {
                std::fprintf(stderr, "perfbench_load: %s is not finite\n",
                             m.name.c_str());
                m.value = 0.0;
                report.correct = false;
            }
            std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    report.correct ? "true" : "false",
                    std::max<std::uint64_t>(report.attempted, 1),
                    report.failed);
        for (std::size_t i = 0; i < report.metrics.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", report.metrics[i].name.c_str(),
                        report.metrics[i].value,
                        report.metrics[i].unit.c_str());
        std::printf("}}\n");
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_load: %s\n", e.what());
        return 1;
    }
}
