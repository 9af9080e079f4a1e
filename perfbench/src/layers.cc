#include "layers.hh"

#include <stdexcept>

namespace perfbench
{

namespace
{

/** The per-layer metrics in print order, with their units. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"trace_overhead", "s"},
    // Self time of each module's spans, per pass.
    {"layer.minic.ms", "ms/pass"},
    {"layer.lower.ms", "ms/pass"},
    {"layer.opt.ms", "ms/pass"},
    {"layer.codegen.ms", "ms/pass"},
    {"layer.sim.ms", "ms/pass"},
    {"layer.driver.ms", "ms/pass"},
    {"layer.job_pool.ms", "ms/pass"},
    // minic
    {"minic.parse.ms", "ms/pass"},
    {"minic.sema.ms", "ms/pass"},
    // lower
    {"lower.ms", "ms/pass"},
    {"lower.ir_ops", "count"},
    // opt
    {"opt.pipeline.ms", "ms/pass"},
    {"opt.pipeline.self_ms", "ms/pass"},
    {"opt.loop_rotate.ms", "ms/pass"},
    {"opt.strength_reduce.ms", "ms/pass"},
    {"opt.dce.ms", "ms/pass"},
    {"opt.simplify_cfg.ms", "ms/pass"},
    {"opt.mac_fuse.ms", "ms/pass"},
    {"opt.copy_coalesce.ms", "ms/pass"},
    {"opt.other.ms", "ms/pass"},
    {"opt.ir_ops_after", "count"},
    {"opt.rollbacks", "count"},
    // codegen
    {"codegen.isel.ms", "ms/pass"},
    {"codegen.alloc.ms", "ms/pass"},
    {"codegen.alloc.graph.ms", "ms/pass"},
    {"codegen.regalloc.ms", "ms/pass"},
    {"codegen.frame.ms", "ms/pass"},
    {"codegen.layout.ms", "ms/pass"},
    {"codegen.mcverify.ms", "ms/pass"},
    {"codegen.vliw_words", "count"},
    // driver: the compiler facade
    {"compile.calls", "count/pass"},
    {"compile.ms_p50", "ms"},
    {"compile.ms_p99", "ms"},
    {"compile.front_half.ms", "ms/pass"},
    {"compile.back_half.ms", "ms/pass"},
    {"compile.degradations", "count"},
    // sim
    {"sim.instrumented.ms", "ms/pass"},
    {"sim.fast.ms", "ms/pass"},
    {"sim.threaded.ms", "ms/pass"},
    {"sim.instrumented.mcps", "Mcycles/s"},
    {"sim.fast.mcps", "Mcycles/s"},
    {"sim.threaded.mcps", "Mcycles/s"},
    {"sim.runs", "count/pass"},
    {"sim.profile.share", "ratio"},
    {"sim.deopts", "count"},
    // support/job_pool
    {"pool.busy_share", "ratio"},
    {"pool.wait.ms", "ms"},
    {"pool.longest_job.ms", "ms"},
    // driver: compile_cache (L1) and disk_cache (L2)
    {"cache.mem.hits", "count/pass"},
    {"cache.mem.misses", "count/pass"},
    {"cache.mem.hit_ratio", "ratio"},
    {"cache.mem.evictions", "count/pass"},
    {"cache.disk.hits", "count/pass"},
    {"cache.disk.misses", "count/pass"},
    // driver: server request phases
    {"serve.queue.p50_us", "us"},
    {"serve.queue.p99_us", "us"},
    {"serve.parse.p50_us", "us"},
    {"serve.parse.p99_us", "us"},
    {"serve.cache.p50_us", "us"},
    {"serve.cache.p99_us", "us"},
    {"serve.compile.p50_us", "us"},
    {"serve.compile.p99_us", "us"},
    {"serve.simulate.p50_us", "us"},
    {"serve.simulate.p99_us", "us"},
    {"serve.serialize.p50_us", "us"},
    {"serve.serialize.p99_us", "us"},
    {"serve.write.p50_us", "us"},
    {"serve.write.p99_us", "us"},
    {"serve.total.p50_us", "us"},
    {"serve.total.p99_us", "us"},
    {"serve.shed", "count"},
    {"serve.inflight.peak", "count"},
};

/** Aggregate of every span sharing one key. */
struct SpanStats
{
    double totalUs = 0;
    double selfUs = 0;
    long count = 0;
    /** Sum of the "cycles" argument (sim.run spans). */
    long long cycles = 0;
};

const dsp::TraceArg *
findArg(const dsp::TraceEvent &e, const char *key)
{
    for (const dsp::TraceArg &a : e.args)
        if (a.key == key)
            return &a;
    return nullptr;
}

/** Aggregation key: pool jobs are named after their work item, so they
 *  share the key "job"; simulations are split by engine. */
std::string
spanKey(const dsp::TraceEvent &e)
{
    if (e.category == "job")
        return "job";
    if (e.name == "sim.run") {
        const dsp::TraceArg *f = findArg(e, "fidelity");
        return "sim.run/" + (f ? f->sval : std::string("?"));
    }
    return e.name;
}

/** The module a span key belongs to ("" = the benchmark's own). */
std::string
layerOf(const std::string &key)
{
    if (key == "frontend.parse" || key == "frontend.sema")
        return "minic";
    if (key == "frontend.lower")
        return "lower";
    if (key.rfind("opt.", 0) == 0)
        return "opt";
    if (key.rfind("backend.", 0) == 0 || key.rfind("alloc.", 0) == 0)
        return "codegen";
    if (key.rfind("sim.run", 0) == 0)
        return "sim";
    if (key == "compile" || key.rfind("serve.", 0) == 0)
        return "driver";
    if (key == "job")
        return "job_pool";
    return "";
}

/** Self time per span key, from per-thread time containment. */
std::map<std::string, SpanStats>
aggregateSpans(const std::vector<dsp::TraceEvent> &events,
               std::vector<double> &compile_ms)
{
    std::vector<const dsp::TraceEvent *> spans;
    for (const dsp::TraceEvent &e : events)
        if (e.phase == dsp::TraceEvent::Phase::Complete)
            spans.push_back(&e);
    // Parents before children: by thread, then start, longest first.
    std::sort(spans.begin(), spans.end(),
              [](const dsp::TraceEvent *a, const dsp::TraceEvent *b) {
                  if (a->tid != b->tid)
                      return a->tid < b->tid;
                  if (a->tsUs != b->tsUs)
                      return a->tsUs < b->tsUs;
                  return a->durUs > b->durUs;
              });

    std::vector<double> childUs(spans.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const dsp::TraceEvent &e = *spans[i];
        while (!stack.empty()) {
            const dsp::TraceEvent &top = *spans[stack.back()];
            if (top.tid == e.tid && e.tsUs < top.tsUs + top.durUs)
                break;
            stack.pop_back();
        }
        if (!stack.empty())
            childUs[stack.back()] += e.durUs;
        stack.push_back(i);
    }

    std::map<std::string, SpanStats> byKey;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const dsp::TraceEvent &e = *spans[i];
        SpanStats &s = byKey[spanKey(e)];
        s.totalUs += e.durUs;
        s.selfUs += std::max(0.0, e.durUs - childUs[i]);
        ++s.count;
        if (const dsp::TraceArg *c = findArg(e, "cycles"))
            s.cycles += c->nval;
        if (e.name == "compile")
            compile_ms.push_back(e.durUs / 1000.0);
    }
    return byKey;
}

long
counterDelta(const TracedWindow &w, const std::string &name)
{
    auto value = [&name](const std::map<std::string, long> &m) {
        auto it = m.find(name);
        return it == m.end() ? 0L : it->second;
    };
    return value(w.countersAfter) - value(w.countersBefore);
}

long
prefixDelta(const TracedWindow &w, const std::string &prefix)
{
    long total = 0;
    for (const auto &[name, value] : w.countersAfter)
        if (name.rfind(prefix, 0) == 0)
            total += value;
    for (const auto &[name, value] : w.countersBefore)
        if (name.rfind(prefix, 0) == 0)
            total -= value;
    return total;
}

} // namespace

LayerLedger::LayerLedger()
{
    for (const auto &[name, unit] : kLayerMetrics)
        table.push_back({name, 0.0, unit});
}

void
LayerLedger::set(const std::string &name, double value)
{
    for (Metric &m : table) {
        if (m.name == name) {
            m.value = value;
            return;
        }
    }
    throw std::logic_error("perfbench: unknown per-layer metric " + name);
}

void
LayerLedger::addTrace(const TracedWindow &w)
{
    if (w.passes <= 0)
        return;
    std::vector<double> compile_ms;
    std::map<std::string, SpanStats> spans =
        aggregateSpans(w.events, compile_ms);
    auto stat = [&spans](const std::string &key) {
        auto it = spans.find(key);
        return it == spans.end() ? SpanStats{} : it->second;
    };
    auto perPassMs = [&w](double us) { return us / 1000.0 / w.passes; };
    auto selfMs = [&](const std::string &key) {
        return perPassMs(stat(key).selfUs);
    };
    auto totalMs = [&](const std::string &key) {
        return perPassMs(stat(key).totalUs);
    };

    std::map<std::string, double> layerUs;
    for (const auto &[key, s] : spans) {
        std::string layer = layerOf(key);
        if (!layer.empty())
            layerUs[layer] += s.selfUs;
    }
    for (const char *layer :
         {"minic", "lower", "opt", "codegen", "sim", "driver", "job_pool"})
        set(std::string("layer.") + layer + ".ms", perPassMs(layerUs[layer]));

    set("minic.parse.ms", selfMs("frontend.parse"));
    set("minic.sema.ms", selfMs("frontend.sema"));
    set("lower.ms", selfMs("frontend.lower"));

    set("opt.pipeline.ms", totalMs("opt.pipeline"));
    set("opt.pipeline.self_ms", selfMs("opt.pipeline"));
    const std::vector<std::string> named = {
        "loop_rotate", "strength_reduce", "dce",
        "simplify_cfg", "mac_fuse", "copy_coalesce"};
    double namedUs = 0;
    for (const std::string &pass : named) {
        set("opt." + pass + ".ms", selfMs("opt." + pass));
        namedUs += stat("opt." + pass).selfUs;
    }
    set("opt.other.ms",
        perPassMs(layerUs["opt"] - stat("opt.pipeline").selfUs - namedUs));

    set("codegen.isel.ms", selfMs("backend.lower"));
    set("codegen.alloc.ms", selfMs("alloc.data") +
                                selfMs("alloc.partition") +
                                selfMs("alloc.duplicate"));
    set("codegen.alloc.graph.ms", selfMs("alloc.build_graph"));
    set("codegen.regalloc.ms", selfMs("backend.regalloc"));
    set("codegen.frame.ms", selfMs("backend.frame"));
    set("codegen.layout.ms", selfMs("backend.layout"));
    set("codegen.mcverify.ms", selfMs("backend.mcverify"));

    set("compile.calls", stat("compile").count / w.passes);
    set("compile.ms_p50", quantile(compile_ms, 0.50));
    set("compile.ms_p99", quantile(compile_ms, 0.99));
    double frontMs = 0;
    for (const char *key : {"frontend.parse", "frontend.sema",
                            "frontend.lower", "opt.pipeline",
                            "backend.lower"})
        frontMs += totalMs(key);
    set("compile.front_half.ms", frontMs);
    set("compile.back_half.ms",
        stat("compile").count ? totalMs("compile") - frontMs : 0.0);

    double simMs = 0;
    long simRuns = 0;
    for (const char *engine : {"instrumented", "fast", "threaded"}) {
        SpanStats s = stat(std::string("sim.run/") + engine);
        set(std::string("sim.") + engine + ".ms", perPassMs(s.selfUs));
        set(std::string("sim.") + engine + ".mcps",
            s.totalUs > 0 ? static_cast<double>(s.cycles) / s.totalUs
                          : 0.0);
        simMs += perPassMs(s.selfUs);
        simRuns += s.count;
    }
    set("sim.runs", simRuns / w.passes);
    set("sim.profile.share",
        simMs > 0 ? selfMs("sim.run/instrumented") / simMs : 0.0);

    if (w.wallSeconds > 0)
        set("pool.busy_share",
            stat("job").totalUs / (kThreads * w.wallSeconds * 1e6));

    set("opt.rollbacks", counterDelta(w, "opt.rollbacks"));
    set("compile.degradations", prefixDelta(w, "compile.degradations."));
    set("sim.deopts", counterDelta(w, "sim.threaded.deopts"));
    double hits = counterDelta(w, "compile.cache.hit");
    double misses = counterDelta(w, "compile.cache.miss");
    set("cache.mem.hits", hits / w.passes);
    set("cache.mem.misses", misses / w.passes);
    set("cache.mem.hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0);
    set("cache.mem.evictions",
        counterDelta(w, "compile.cache.eviction") / w.passes);
    // Peak-style counters ("max" registrations) are read, not diffed.
    auto peak = [&w](const char *name) {
        auto it = w.countersAfter.find(name);
        return it == w.countersAfter.end() ? 0.0
                                           : static_cast<double>(it->second);
    };
    set("lower.ir_ops", peak("ir.ops.before_opt"));
    set("opt.ir_ops_after", peak("ir.ops.after_opt"));
    set("serve.shed", counterDelta(w, "serve.shed"));
    set("serve.inflight.peak", peak("serve.inflight.peak"));
}

} // namespace perfbench
