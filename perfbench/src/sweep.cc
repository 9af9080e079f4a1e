/**
 * @file
 * The `sweep` workload: repeated measureSuite() over all 23 suite
 * benchmarks, with every configuration of the paper's evaluation and
 * the profile run, as the fig7/fig8/table3/perf_baseline tools run it
 * (resilient compiles, threaded-tier measurement runs, a fresh compile
 * cache per sweep). The suite is fixed, so the seed does not change
 * this workload's inputs.
 */

#include <functional>

#include "common.hh"
#include "layers.hh"
#include "perfbench.hh"

namespace perfbench
{

namespace
{

using dsp::bench::BenchResult;
using dsp::bench::Measurement;

std::vector<dsp::Benchmark>
loadSuite()
{
    std::vector<dsp::Benchmark> suite = dsp::kernelBenchmarks();
    const std::vector<dsp::Benchmark> &apps = dsp::applicationBenchmarks();
    suite.insert(suite.end(), apps.begin(), apps.end());
    return suite;
}

std::vector<const Measurement *>
configurations(const BenchResult &r)
{
    return {&r.base, &r.cb, &r.pr, &r.dup, &r.fullDup, &r.ideal};
}

/** One sweep's outcome. */
struct SweepRun
{
    double seconds = 0;
    std::vector<BenchResult> results;
};

SweepRun
sweepOnce(const std::vector<dsp::Benchmark> &suite)
{
    dsp::bench::SuiteRunOptions ro;
    ro.threads = kThreads;
    ro.resilient = true;
    dsp::Span span("perfbench.sweep", "perfbench");
    auto t0 = Clock::now();
    SweepRun run;
    run.results = dsp::bench::measureSuite(suite, ro);
    run.seconds = secondsSince(t0);
    return run;
}

/** Exact totals over the six configurations of every benchmark; the
 *  first sweep fixes them and every later sweep must repeat them. */
struct Totals
{
    long cycles = -1;
    long cost = -1;
    long vliwWords = 0;
};

/** Score one sweep: a failed row (wrong output, fault, timeout) is a
 *  failed operation, and totals that differ from the first sweep's
 *  make the run incorrect. Measurement runs compare every output word
 *  with the suite's host reference (measureSuite's checkOutput). */
void
score(const SweepRun &run, Totals &totals, Report &report)
{
    long cycles = 0, cost = 0, words = 0;
    bool all_ok = true;
    for (const BenchResult &r : run.results) {
        ++report.attempted;
        if (!r.ok()) {
            report.fail(r.name + ": " + r.error);
            all_ok = false;
            continue;
        }
        for (const Measurement *m : configurations(r)) {
            cycles += m->cycles;
            cost += m->cost.total();
            words += m->cost.insts;
        }
    }
    if (!all_ok)
        return;
    if (totals.cycles < 0) {
        totals = {cycles, cost, words};
    } else if (cycles != totals.cycles || cost != totals.cost) {
        report.correct = false;
        report.problems.push_back(
            "sweep totals drifted: cycles " + std::to_string(cycles) +
            " vs " + std::to_string(totals.cycles) + ", cost " +
            std::to_string(cost) + " vs " + std::to_string(totals.cost));
    }
}

/** Sweep until @p seconds have passed (at least once). */
std::vector<double>
sweepFor(const std::vector<dsp::Benchmark> &suite, double seconds,
         Totals &totals, Report &report,
         const std::function<bool()> &stop_early = {})
{
    std::vector<double> sweep_s;
    auto t0 = Clock::now();
    do {
        SweepRun run = sweepOnce(suite);
        sweep_s.push_back(run.seconds);
        score(run, totals, report);
    } while (secondsSince(t0) < seconds && !(stop_early && stop_early()));
    return sweep_s;
}

/** Pool queue wait and longest job of each traced sweep, from the job
 *  spans that fall inside that sweep's own span. */
void
poolMetrics(const std::vector<dsp::TraceEvent> &events, LayerLedger &ledger)
{
    std::vector<const dsp::TraceEvent *> sweeps, jobs;
    for (const dsp::TraceEvent &e : events) {
        if (e.phase != dsp::TraceEvent::Phase::Complete)
            continue;
        if (e.name == "perfbench.sweep")
            sweeps.push_back(&e);
        else if (e.category == "job")
            jobs.push_back(&e);
    }
    std::vector<double> waits, longest;
    for (const dsp::TraceEvent *s : sweeps) {
        double maxMs = 0;
        for (const dsp::TraceEvent *j : jobs) {
            if (j->tsUs < s->tsUs || j->tsUs > s->tsUs + s->durUs)
                continue;
            waits.push_back((j->tsUs - s->tsUs) / 1000.0);
            maxMs = std::max(maxMs, j->durUs / 1000.0);
        }
        longest.push_back(maxMs);
    }
    double sum = 0;
    for (double w : waits)
        sum += w;
    ledger.set("pool.wait.ms", waits.empty() ? 0.0 : sum / waits.size());
    ledger.set("pool.longest_job.ms", median(longest));
}

} // namespace

Report
runSweep(const Options &opts)
{
    Report report;
    Totals totals;
    const std::vector<dsp::Benchmark> suite = loadSuite();

    if (!opts.trace) {
        // Set-up: warm-up sweeps (first-touch allocation, lazy
        // statics). Each is a full sweep and is checked like one.
        std::vector<double> setup_s;
        for (int i = 0; i < kSetupReps; ++i) {
            auto t0 = Clock::now();
            SweepRun run = sweepOnce(suite);
            setup_s.push_back(secondsSince(t0));
            score(run, totals, report);
        }

        std::vector<double> sweep_s =
            sweepFor(suite, opts.seconds, totals, report);
        double wall = 0;
        for (double s : sweep_s)
            wall += s;
        report.add("setup_s", median(setup_s), "s");
        report.add("sweep_s", median(sweep_s), "s");
        report.add("sim_cycles_total", static_cast<double>(totals.cycles),
                   "cycles");
        report.add("cost_words_total", static_cast<double>(totals.cost),
                   "words");
        // A request of this workload is one whole sweep.
        std::vector<double> sweep_ms;
        for (double s : sweep_s)
            sweep_ms.push_back(s * 1000.0);
        report.add("req_ms_p50", quantile(sweep_ms, 0.50), "ms");
        report.add("req_ms_p99", quantile(sweep_ms, 0.99), "ms");
        report.add("req_per_s", sweep_s.size() / wall, "1/s");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        return report;
    }

    // Traced run: half the time untraced, half under a TraceSession.
    score(sweepOnce(suite), totals, report); // warm-up
    std::vector<double> plain_s =
        sweepFor(suite, opts.seconds / 2, totals, report);

    dsp::TraceSession session;
    std::vector<double> traced_s;
    {
        dsp::ScopedTraceSession scope(session);
        traced_s = sweepFor(
            suite, opts.seconds / 2, totals, report,
            [&session] { return session.eventCount() >= kMaxTraceEvents; });
    }

    TracedWindow window;
    window.events = session.events();
    window.countersAfter = session.counters().snapshot();
    window.passes = static_cast<double>(traced_s.size());
    for (double s : traced_s)
        window.wallSeconds += s;

    LayerLedger ledger;
    ledger.addTrace(window);
    poolMetrics(window.events, ledger);
    ledger.set("codegen.vliw_words", static_cast<double>(totals.vliwWords));
    ledger.set("trace_overhead", median(traced_s) - median(plain_s));
    report.metrics = ledger.metrics();
    return report;
}

} // namespace perfbench
