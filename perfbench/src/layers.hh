/**
 * @file
 * The per-layer ledger of a traced run: span self time and counters,
 * attributed to the repository's modules (minic, lower, opt, codegen,
 * sim, driver, support/job_pool).
 *
 * Self time is a span's duration minus the part of it that its direct
 * child spans cover. Spans carry no parent link, so nesting is
 * recovered per recording thread from time containment: a span
 * recorded on the same thread that starts inside another one and
 * ends before it is its child.
 *
 * Time metrics are normalised per pass, so runs of different lengths
 * compare: a pass is one sweep of the suite, or 115 server requests
 * (23 programs x 5 modes).
 */

#ifndef DSP_PERFBENCH_LAYERS_HH
#define DSP_PERFBENCH_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "perfbench.hh"
#include "support/telemetry.hh"

namespace perfbench
{

/** What a traced run recorded. */
struct TracedWindow
{
    /** Complete and instant events recorded during the window. */
    std::vector<dsp::TraceEvent> events;
    std::map<std::string, long> countersBefore;
    std::map<std::string, long> countersAfter;
    /** Passes completed in the window (see the file comment). */
    double passes = 0;
    /** Wall time of the window, for the pool's busy share. */
    double wallSeconds = 0;
};

/** The ordered per-layer metric table; every metric starts at 0, so
 *  a layer a workload does not exercise reads 0. */
class LayerLedger
{
  public:
    LayerLedger();

    /** Fill every metric derived from spans and counters. */
    void addTrace(const TracedWindow &window);

    /** Set a metric the workload measures itself; the name must be in
     *  the table. */
    void set(const std::string &name, double value);

    const std::vector<Metric> &metrics() const { return table; }

  private:
    std::vector<Metric> table;
};

} // namespace perfbench

#endif // DSP_PERFBENCH_LAYERS_HH
