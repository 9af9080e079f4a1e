/**
 * @file
 * The `serve-hot` and `serve-cold` workloads: a closed loop of
 * kThreads clients against an in-process compile server with kThreads
 * workers. Each client waits for its reply before it sends the next
 * request, as a build tool would.
 *
 * A client walks the suite from a seeded start program and requests
 * each program in all 5 allocation modes, in a seeded mode order.
 *  - serve-hot: memory cache only. Set-up requests each of the 115
 *    (program, mode) keys once, so every timed request is an L1 hit:
 *    the time goes to transport, parsing, the cache probe, simulation
 *    and serialisation, with no compile.
 *  - serve-cold: a fresh on-disk cache. Every request carries a
 *    request-unique variant of its program (the suite source plus one
 *    never-called function returning a seed-derived constant), so it
 *    misses both cache tiers, compiles, stores to disk and evicts
 *    from L1.
 *
 * Every reply's output words are compared with the suite's host
 * reference (Benchmark::expected). The cycles and cost words of each
 * (program, mode) key must agree across all of its replies; the
 * variants' extra function is never called, so it changes neither.
 */

#include <malloc.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "driver/server.hh"
#include "layers.hh"
#include "perfbench.hh"
#include "suite/suite.hh"
#include "support/json.hh"

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;
using dsp::json::Value;

constexpr int kModes = 5;
/** Request spellings of the modes (server.cc's modeFromName). */
const char *const kModeNames[kModes] = {"single", "cb", "dup", "fulldup",
                                        "ideal"};

/** Ids at or above this mark timed requests; set-up ids are below. */
constexpr long long kTimedIdBase = 1'000'000'000LL;

/** splitmix64: draws everything the workload seed decides. */
struct SeedRng
{
    std::uint64_t s;

    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/** One client's seeded request sequence. */
struct Plan
{
    int start = 0;
    int modeOrder[kModes] = {0, 1, 2, 3, 4};
    /** Requests issued so far in the timed sequence. */
    long step = 0;
    /** Variants issued so far (each salt is used by one variant). */
    long variants = 0;
};

/** Everything the seed decides: the variant salts' base, and each
 *  client's start program and mode order. */
struct Workload
{
    bool cold = false;
    std::vector<const dsp::Benchmark *> suite;
    std::uint64_t saltBase = 0;
    std::vector<Plan> plans;

    int keys() const { return static_cast<int>(suite.size()) * kModes; }

    /** Salts are unique per (client, variant) within a run. */
    long long
    salt(int client, long variant) const
    {
        return static_cast<long long>(saltBase) + variant * kThreads + client;
    }
};

Workload
makeWorkload(std::uint64_t seed, bool cold)
{
    Workload w;
    w.cold = cold;
    w.suite = dsp::allBenchmarks();
    SeedRng rng{seed};
    w.saltBase = 1 + rng.below(1u << 20);
    for (int c = 0; c < kThreads; ++c) {
        Plan p;
        p.start = static_cast<int>(rng.below(w.suite.size()));
        for (int i = kModes - 1; i > 0; --i)
            std::swap(p.modeOrder[i], p.modeOrder[rng.below(i + 1)]);
        w.plans.push_back(p);
    }
    return w;
}

std::string
variantSource(const dsp::Benchmark &b, long long salt)
{
    return b.source + "\nint perfbench_variant() {\n    return " +
           std::to_string(salt) + ";\n}\n";
}

std::string
requestLine(long long id, const std::string &source, const char *mode,
            const std::vector<std::uint32_t> &input)
{
    std::ostringstream os;
    dsp::json::Writer w(os);
    w.beginObject(dsp::json::Writer::Block::Inline);
    w.field("id", id);
    w.field("op", "compile");
    w.field("mode", mode);
    w.field("source", source);
    w.key("input").beginArray(dsp::json::Writer::Block::Inline);
    for (std::uint32_t word : input)
        w.value(static_cast<long long>(word));
    w.endArray();
    w.endObject();
    return os.str();
}

/** One client's results; merged after the client threads join. */
struct Tally
{
    std::vector<double> latencyMs;
    long attempted = 0;
    long diskHits = 0;
    /** Per key: cycles and cost words of its replies (-1 = unseen). */
    std::vector<long> cycles, cost;
    std::vector<std::string> failures;
    std::vector<std::string> drift;

    explicit Tally(int keys) : cycles(keys, -1), cost(keys, -1) {}

    void
    record(int key, long c, long k, const std::string &what)
    {
        if (cycles[key] < 0) {
            cycles[key] = c;
            cost[key] = k;
        } else if (cycles[key] != c || cost[key] != k) {
            drift.push_back(what + ": cycles " + std::to_string(c) +
                            " vs " + std::to_string(cycles[key]) +
                            ", cost " + std::to_string(k) + " vs " +
                            std::to_string(cost[key]));
        }
    }
};

/** Send one request and check its reply against the host reference. */
void
issue(dsp::ServeClient &client, const Workload &w, int key,
      const std::string &line, Tally &tally, bool timed)
{
    const dsp::Benchmark &b = *w.suite[key / kModes];
    std::string what = b.name + " (" + kModeNames[key % kModes] + ")";
    ++tally.attempted;
    auto t0 = Clock::now();
    Value reply;
    try {
        reply = client.call(line);
    } catch (const std::exception &e) {
        tally.failures.push_back(what + ": " + e.what());
        return;
    }
    double ms = secondsSince(t0) * 1000.0;

    const Value *ok = reply.find("ok");
    const Value *result = reply.find("result");
    if (!ok || !ok->isBool() || !ok->boolean || !result) {
        const Value *err = reply.find("error");
        tally.failures.push_back(
            what + ": " +
            (err ? err->stringAt("kind") + ": " + err->stringAt("message")
                 : std::string("malformed reply")));
        return;
    }
    const Value *out = result->find("output");
    bool match = out && out->isArray() &&
                 out->items.size() == b.expected.size();
    for (std::size_t i = 0; match && i < b.expected.size(); ++i)
        match = static_cast<std::uint32_t>(out->items[i].numberAt("raw")) ==
                b.expected[i];
    if (!match) {
        tally.failures.push_back(what + ": output differs from reference");
        return;
    }
    tally.record(key, result->longAt("cycles"), result->longAt("cost_words"),
                 what);
    if (timed) {
        tally.latencyMs.push_back(ms);
        if (reply.stringAt("cached") == "disk")
            ++tally.diskHits;
    }
}

/** The request for @p key from @p client: the suite source (hot) or a
 *  fresh variant of it (cold). */
std::string
lineFor(const Workload &w, int client, int key, long variant, long long id)
{
    const dsp::Benchmark &b = *w.suite[key / kModes];
    return requestLine(id,
                       w.cold ? variantSource(b, w.salt(client, variant))
                              : b.source,
                       kModeNames[key % kModes], b.input);
}

/** A running server and one connection per client. */
struct Fixture
{
    std::unique_ptr<dsp::Server> server;
    std::vector<std::unique_ptr<dsp::ServeClient>> clients;

    ~Fixture()
    {
        clients.clear();
        if (server)
            server->stop();
    }
};

/** Run @p body(c) on one thread per client and join them all. */
template <typename Body>
void
onClients(Body body)
{
    std::vector<std::thread> threads;
    for (int c = 0; c < kThreads; ++c)
        threads.emplace_back([&body, c] { body(c); });
    for (std::thread &t : threads)
        t.join();
}

/**
 * Set-up: start a server and connect the clients, then request each of
 * the 115 keys once, split across the clients. For serve-hot this
 * fills L1 with every key the timed phase asks for; for serve-cold
 * each request is a fresh variant, so nothing is reused.
 */
std::unique_ptr<Fixture>
setUp(const Options &opts, Workload &w, int index,
      const std::string &access_log, std::vector<Tally> &tallies)
{
    auto fx = std::make_unique<Fixture>();
    dsp::ServeOptions so;
    so.socketPath = opts.workdir + "/s" + std::to_string(index) + ".sock";
    so.threads = kThreads;
    if (w.cold) {
        so.cacheDir = opts.workdir + "/cache" + std::to_string(index);
        fs::remove_all(so.cacheDir);
    }
    so.accessLogPath = access_log;
    fx->server = std::make_unique<dsp::Server>(so);
    fx->server->start();
    for (int c = 0; c < kThreads; ++c)
        fx->clients.push_back(
            std::make_unique<dsp::ServeClient>(so.socketPath));

    onClients([&](int c) {
        for (int key = c; key < w.keys(); key += kThreads) {
            long variant = w.plans[c].variants++;
            issue(*fx->clients[c], w, key,
                  lineFor(w, c, key, variant, key + 1), tallies[c], false);
        }
    });
    return fx;
}

/** One timed phase; returns its wall seconds. Each client walks its
 *  plan: program (start + step / 5) in the client's mode order. */
double
runTimed(Fixture &fx, Workload &w, double seconds,
         std::vector<Tally> &tallies,
         const std::function<bool()> &stop_early = {})
{
    std::atomic<long long> nextId{kTimedIdBase};
    // Hot requests repeat, so their lines are built once per key.
    std::vector<std::string> hotLines;
    if (!w.cold)
        for (int key = 0; key < w.keys(); ++key)
            hotLines.push_back(lineFor(w, 0, key, 0, kTimedIdBase + key));

    auto t0 = Clock::now();
    auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
    onClients([&](int c) {
        Plan &p = w.plans[c];
        const int programs = static_cast<int>(w.suite.size());
        while (Clock::now() < deadline) {
            if (stop_early && p.step % 16 == 0 && stop_early())
                break;
            int program =
                static_cast<int>((p.start + p.step / kModes) % programs);
            int key = program * kModes + p.modeOrder[p.step % kModes];
            if (w.cold && p.step % kModes == 0)
                ++p.variants;
            ++p.step;
            if (w.cold)
                issue(*fx.clients[c], w, key,
                      lineFor(w, c, key, p.variants - 1, nextId++),
                      tallies[c], true);
            else
                issue(*fx.clients[c], w, key, hotLines[key], tallies[c],
                      true);
        }
    });
    return secondsSince(t0);
}

long
timedRequests(const std::vector<Tally> &tallies)
{
    long n = 0;
    for (const Tally &t : tallies)
        n += static_cast<long>(t.latencyMs.size());
    return n;
}

/** Fold the client tallies into @p report; returns the exact totals
 *  over the 115 keys (-1 when a key was never answered). */
std::pair<long, long>
merge(const std::vector<Tally> &tallies, int keys, Report &report)
{
    Tally all(keys);
    for (const Tally &t : tallies) {
        report.attempted += t.attempted;
        for (const std::string &f : t.failures)
            report.fail(f);
        for (const std::string &d : t.drift) {
            report.correct = false;
            report.problems.push_back("drift: " + d);
        }
        for (int k = 0; k < keys; ++k)
            if (t.cycles[k] >= 0)
                all.record(k, t.cycles[k], t.cost[k],
                           "key " + std::to_string(k));
    }
    for (const std::string &d : all.drift) {
        report.correct = false;
        report.problems.push_back("drift across clients: " + d);
    }
    long cycles = 0, cost = 0;
    for (int k = 0; k < keys; ++k) {
        if (all.cycles[k] < 0)
            return {-1, -1};
        cycles += all.cycles[k];
        cost += all.cost[k];
    }
    return {cycles, cost};
}

/** Per-phase quantiles of the timed requests, from the access log. */
void
phaseMetrics(const std::string &path, LayerLedger &ledger)
{
    const char *phases[] = {"queue",    "parse",     "cache", "compile",
                            "simulate", "serialize", "write", "total"};
    std::map<std::string, std::vector<double>> us;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        Value v = dsp::json::parse(line);
        if (v.numberAt("id", -1) < kTimedIdBase)
            continue;
        const Value *t = v.find("timing_us");
        if (!t)
            continue;
        for (const char *p : phases)
            us[p].push_back(t->numberAt(p));
    }
    for (const char *p : phases) {
        ledger.set(std::string("serve.") + p + ".p50_us",
                   quantile(us[p], 0.50));
        ledger.set(std::string("serve.") + p + ".p99_us",
                   quantile(us[p], 0.99));
    }
    double sum = 0;
    for (double q : us["queue"])
        sum += q;
    ledger.set("pool.wait.ms",
               us["queue"].empty() ? 0.0 : sum / us["queue"].size() / 1000.0);
}

double
longestJobMs(const std::vector<dsp::TraceEvent> &events)
{
    double longest = 0;
    for (const dsp::TraceEvent &e : events)
        if (e.phase == dsp::TraceEvent::Phase::Complete &&
            e.category == "job")
            longest = std::max(longest, e.durUs / 1000.0);
    return longest;
}

} // namespace

Report
runServe(const Options &opts, bool cold)
{
    Report report;
    Workload w = makeWorkload(opts.seed, cold);
    const int keys = w.keys();
    std::vector<Tally> tallies(kThreads, Tally(keys));
    fs::create_directories(opts.workdir);

    if (!opts.trace) {
        std::vector<double> setup_s;
        std::unique_ptr<Fixture> fx;
        for (int i = 0; i < kSetupReps; ++i) {
            // A process runs one server: hand the last one's freed
            // memory back, so repeated set-ups do not stack up in
            // peak_rss_mb.
            fx.reset();
            malloc_trim(0);
            auto t0 = Clock::now();
            fx = setUp(opts, w, i, "", tallies);
            setup_s.push_back(secondsSince(t0));
        }
        double wall = runTimed(*fx, w, opts.seconds, tallies);
        fx.reset();

        long n = timedRequests(tallies);
        std::vector<double> latency;
        for (const Tally &t : tallies)
            latency.insert(latency.end(), t.latencyMs.begin(),
                           t.latencyMs.end());
        auto [cycles, cost] = merge(tallies, keys, report);
        report.add("setup_s", median(setup_s), "s");
        report.add("sweep_s", n > 0 ? wall * keys / n : 0.0, "s");
        report.add("sim_cycles_total", static_cast<double>(cycles),
                   "cycles");
        report.add("cost_words_total", static_cast<double>(cost), "words");
        report.add("req_ms_p50", quantile(latency, 0.50), "ms");
        report.add("req_ms_p99", quantile(latency, 0.99), "ms");
        report.add("req_per_s", n / wall, "1/s");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        if (cycles < 0) {
            report.correct = false;
            report.problems.push_back("a (program, mode) key got no reply");
        }
        return report;
    }

    // Traced run. Untraced half: the same server shape as the timed
    // runs (counters only). Traced half: a second server that also
    // retains span events and writes the access log, whose per-request
    // phase timings give the server's quantiles for the timed requests
    // alone (the stats op's histograms would mix in the set-up ones).
    double plainPassS = 0;
    {
        std::unique_ptr<Fixture> fx = setUp(opts, w, 0, "", tallies);
        double wall = runTimed(*fx, w, opts.seconds / 2, tallies);
        long n = timedRequests(tallies);
        plainPassS = n > 0 ? wall * keys / n : 0.0;
    }
    std::vector<Tally> traced(kThreads, Tally(keys));
    std::string log = opts.workdir + "/access.log";
    fs::remove(log);
    std::unique_ptr<Fixture> fx = setUp(opts, w, 1, log, traced);
    dsp::TraceSession &session = fx->server->session();

    TracedWindow window;
    window.countersBefore = session.counters().snapshot();
    session.setEventCapacity(kMaxTraceEvents);
    window.wallSeconds = runTimed(*fx, w, opts.seconds / 2, traced, [&] {
        return session.eventCount() >= kMaxTraceEvents;
    });
    window.events = session.events();
    window.countersAfter = session.counters().snapshot();
    fx.reset(); // stop the server: every access-log line is written
    long n = timedRequests(traced);
    window.passes = static_cast<double>(n) / keys;

    tallies.insert(tallies.end(), traced.begin(), traced.end());
    merge(tallies, keys, report);

    LayerLedger ledger;
    ledger.addTrace(window);
    phaseMetrics(log, ledger);
    ledger.set("pool.longest_job.ms", longestJobMs(window.events));
    long diskHits = 0;
    for (const Tally &t : traced)
        diskHits += t.diskHits;
    if (window.passes > 0) {
        ledger.set("cache.disk.hits", diskHits / window.passes);
        long misses =
            window.countersAfter["serve.cache.disk.miss"] -
            window.countersBefore["serve.cache.disk.miss"];
        ledger.set("cache.disk.misses", misses / window.passes);
    }
    ledger.set("trace_overhead",
               n > 0 ? window.wallSeconds * keys / n - plainPassS : 0.0);
    report.metrics = ledger.metrics();
    return report;
}

} // namespace perfbench
