/**
 * @file
 * perfbench: the repository benchmark's measuring program.
 *
 *   perfbench --workload sweep|serve-hot|serve-cold --seed N
 *             --seconds S --trace 0|1 --workdir DIR
 *
 * Prints a human-readable summary on stderr and, as the last line of
 * stdout, one JSON object {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}}. Exits 1 when any
 * operation failed or an exact total drifted, 2 on a usage error.
 * perfbench/run.py builds this program and checks its output against
 * BENCHMARK.json.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "perfbench.hh"

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload sweep|serve-hot|serve-cold"
                 " --seed N --seconds S --trace 0|1 --workdir DIR\n";
    std::exit(2);
}

perfbench::Options
parseArgs(int argc, char **argv)
{
    perfbench::Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = value;
            else if (flag == "--seed")
                o.seed = std::stoull(value);
            else if (flag == "--seconds")
                o.seconds = std::stod(value);
            else if (flag == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (flag == "--workdir")
                o.workdir = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (o.workload.empty() || o.workdir.empty())
        usage("--workload and --workdir are required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

/** Every digit a double carries, as a JSON number. */
std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opts = parseArgs(argc, argv);
    // The harness honours these for the figure tools; a benchmark run
    // must neither write reports nor change its own tracing from them.
    unsetenv("DSP_TRACE_JSON");
    unsetenv("DSP_BENCH_JSON");

    perfbench::Report report;
    try {
        if (opts.workload == "sweep")
            report = perfbench::runSweep(opts);
        else if (opts.workload == "serve-hot")
            report = perfbench::runServe(opts, false);
        else if (opts.workload == "serve-cold")
            report = perfbench::runServe(opts, true);
        else
            usage("unknown workload " + opts.workload);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opts.workload << ": " << e.what()
                  << "\n";
        return 1;
    }

    for (const std::string &p : report.problems)
        std::cerr << "perfbench: FAIL " << p << "\n";
    std::cerr << "perfbench: " << opts.workload << " seed " << opts.seed
              << (opts.trace ? " (traced)" : "") << ": " << report.attempted
              << " attempted, " << report.failed << " failed\n";
    for (const perfbench::Metric &m : report.metrics)
        std::cerr << "  " << m.name << " = " << number(m.value) << " "
                  << m.unit << "\n";

    std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const perfbench::Metric &m = report.metrics[i];
        std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
                  << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return report.correct ? 0 : 1;
}
